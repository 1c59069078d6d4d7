#include "core/block_index.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/prefetch.hpp"
#include "util/thread_pool.hpp"

namespace fbf::core {

namespace {

// Polynomial rolling hash over bytes with an odd base, evaluated mod
// 2^64.  The odd base has a multiplicative inverse mod 2^64, which is
// what makes every deletion variant hashable in O(1) from prefix and
// positional-suffix tables (see variant_* below) — enumerating the whole
// depth-2 neighborhood of a string costs O(l^2) total instead of O(l^3).
// Collisions only ever surface extra candidates (the verifier decides),
// so a 64-bit rolling hash is sound here.
constexpr std::uint64_t kBase = 1099511628211ull;  // FNV prime, odd

constexpr std::uint64_t inverse_mod_2_64(std::uint64_t b) {
  // Newton iteration: each step doubles the number of correct low bits.
  std::uint64_t x = b;  // correct to 3 bits for odd b
  for (int i = 0; i < 5; ++i) {
    x *= 2 - b * x;
  }
  return x;
}
constexpr std::uint64_t kInvBase = inverse_mod_2_64(kBase);
static_assert(kBase * kInvBase == 1, "base must be invertible mod 2^64");

// Strings longer than this skip key enumeration: stored ones become
// unconditional candidates (long_ids_), querying ones receive the full id
// range.  Keeps the depth-2 neighborhood (C(l,2) keys) bounded; our field
// data tops out near 30 characters.
constexpr std::size_t kMaxEnumLength = 64;

// Minimum piece length for the piece family to be worth indexing: below
// this, equal-length strings share pieces so often that the family only
// adds candidates the deletion family would not have surfaced.
constexpr std::size_t kMinPieceLength = 4;

constexpr std::uint64_t kPieceSeed = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDeletionSeed = 0xc2b2ae3d27d4eb4full;

/// Number of keys collect_keys(s, k, ., dedup=false) emits for a string
/// of length l (0 when l is too long to enumerate).
[[nodiscard]] constexpr std::size_t enumerated_key_count(std::size_t l,
                                                         int k) noexcept {
  if (l > kMaxEnumLength) {
    return 0;
  }
  const std::size_t n_pieces = 2 * static_cast<std::size_t>(k) + 1;
  std::size_t n = l >= n_pieces * kMinPieceLength ? n_pieces : 0;
  n += 1;  // d = 0
  if (k >= 1) {
    n += l;
  }
  if (k >= 2 && l >= 2) {
    n += l * (l - 1) / 2;
  }
  return n;
}

/// splitmix64 finalizer: spreads the polynomial hash across all 64 bits
/// before it becomes a postings key.
[[nodiscard]] constexpr std::uint64_t finalize(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// kBase^i mod 2^64 for i <= kMaxEnumLength.
const std::uint64_t* power_table() {
  static const auto table = [] {
    std::array<std::uint64_t, kMaxEnumLength + 1> t{};
    t[0] = 1;
    for (std::size_t i = 1; i < t.size(); ++i) {
      t[i] = t[i - 1] * kBase;
    }
    return t;
  }();
  return table.data();
}

/// Reusable per-call buffers (thread_local at the call sites: generate()
/// runs from the worker pool).
struct KeyScratch {
  std::vector<std::uint64_t> pre;   ///< pre[i] = rolling hash of s[0, i)
  std::vector<std::uint64_t> suf;   ///< suf[i] = sum_{m>=i} s[m]*B^(l-1-m)
  std::vector<std::uint64_t> keys;  ///< key hashes (collect_keys appends)
  /// generate_batch: group query q's keys are keys[key_begin[q],
  /// key_begin[q + 1]), resolved to bucket ranges[] by one find_batch.
  std::vector<std::size_t> key_begin;
  std::vector<PackedPostings::Range> ranges;
};

/// Appends the key hashes for `s` to `keys` — the appended keys sorted
/// unique when `dedup` (the overflow tier never stores duplicate
/// postings), raw enumeration order otherwise (the postings build
/// deduplicates per id itself, and on the probe path duplicate keys only
/// re-surface ids the final candidate dedup removes anyway).  Returns
/// false, appending nothing, when the string is too long to enumerate
/// (caller takes the always-candidate path).
bool collect_keys(std::string_view s, int k, KeyScratch& scratch,
                  std::vector<std::uint64_t>& keys, bool dedup) {
  const std::size_t l = s.size();
  if (l > kMaxEnumLength) {
    return false;
  }
  const std::uint64_t* pw = power_table();
  scratch.pre.resize(l + 1);
  scratch.suf.resize(l + 1);
  scratch.pre[0] = 0;
  for (std::size_t i = 0; i < l; ++i) {
    scratch.pre[i + 1] =
        scratch.pre[i] * kBase + static_cast<unsigned char>(s[i]);
  }
  scratch.suf[l] = 0;
  for (std::size_t m = l; m-- > 0;) {
    scratch.suf[m] = scratch.suf[m + 1] +
                     static_cast<unsigned char>(s[m]) * pw[l - 1 - m];
  }
  const std::uint64_t* pre = scratch.pre.data();
  const std::uint64_t* suf = scratch.suf.data();
  const auto first = static_cast<std::ptrdiff_t>(keys.size());

  // Piece family: 2k+1 near-equal contiguous pieces, keyed by (length,
  // piece index, content) — a piece only ever meets the same piece of an
  // equal-length string, at the same position.  Emitted only when every
  // piece is at least kMinPieceLength characters: short pieces (2-3 chars
  // of a last name) are shared by huge equal-length cohorts and flood the
  // candidate set, and the deletion family below is a complete cover on
  // its own — the gate is a pure selectivity decision, applied
  // identically on append and probe (piece keys embed l, so both sides
  // of any equal-length pair take the same branch).
  const std::size_t n_pieces = 2 * static_cast<std::size_t>(k) + 1;
  if (l >= n_pieces * kMinPieceLength) {
    for (std::size_t p = 0; p < n_pieces; ++p) {
      const std::size_t a = p * l / n_pieces;
      const std::size_t b = (p + 1) * l / n_pieces;
      const std::uint64_t content = pre[b] - pre[a] * pw[b - a];
      keys.push_back(
          finalize(content ^ finalize(kPieceSeed ^ (l * 8 + p))));
    }
  }

  // Deletion family: content hash of every variant with d <= k deletions.
  // Exponents are (variant_length - 1 - variant_pos), so characters after
  // a deleted position keep their original suf[] contribution — each
  // variant is a prefix term plus suffix sums, O(1) apiece.
  keys.push_back(finalize(suf[0] ^ kDeletionSeed));  // d = 0
  if (k >= 1) {
    for (std::size_t i = 0; i < l; ++i) {
      keys.push_back(
          finalize((pre[i] * pw[l - 1 - i] + suf[i + 1]) ^ kDeletionSeed));
    }
  }
  if (k >= 2 && l >= 2) {
    for (std::size_t i = 0; i + 1 < l; ++i) {
      const std::uint64_t head = pre[i] * pw[l - 2 - i];
      for (std::size_t j = i + 1; j < l; ++j) {
        const std::uint64_t middle = (suf[i + 1] - suf[j]) * kInvBase;
        keys.push_back(
            finalize((head + middle + suf[j + 1]) ^ kDeletionSeed));
      }
    }
  }
  if (dedup) {
    std::sort(keys.begin() + first, keys.end());
    keys.erase(std::unique(keys.begin() + first, keys.end()), keys.end());
  }
  return true;
}

// Bucket table density: about four entries per bucket.
constexpr std::size_t kEntriesPerBucket = 4;

/// Bucket bits for `expected` entries: the power of two nearest (in log
/// scale) to expected / kEntriesPerBucket, so buckets hold 2.8-5.7
/// entries on average.  x * 181 / 256 ~ x / sqrt(2) turns bit_width's
/// round-up of log2 into round-to-nearest.
[[nodiscard]] int bucket_bits_for(std::size_t expected) noexcept {
  const std::size_t target = expected / kEntriesPerBucket;
  return std::clamp(static_cast<int>(std::bit_width(target * 181 / 256)), 1,
                    32);
}

// Ids whose keys PackedPostings::build collects before it counts or
// places them, so the group's cache misses overlap.
constexpr std::size_t kBuildGroup = 16;

// Key lists up to this long are deduplicated in place, keeping the first
// occurrence; longer ones (k = 2) are sorted first.
constexpr std::size_t kLinearDedup = 16;

/// Drops repeated hashes from one id's key list.  Short lists keep their
/// emission order (a linear scan per key beats sorting them); long lists
/// come out sorted.  Either way the result is a pure function of the
/// list.
void dedup_keys(std::vector<std::uint64_t>& hashes) {
  if (hashes.size() > kLinearDedup) {
    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
    return;
  }
  const auto first = hashes.begin();
  auto kept = first;
  for (const std::uint64_t h : hashes) {
    if (std::find(first, kept, h) == kept) {
      *kept++ = h;
    }
  }
  hashes.erase(kept, hashes.end());
}

// Strings between two checks of a cancellable build's stop token.
constexpr std::uint32_t kStopCheckIds = 4096;

// Overflow compaction: fold once the tier holds at least this many
// entries and a quarter as many as the base.
constexpr std::size_t kMinCompactEntries = 4096;

}  // namespace

bool PackedPostings::build(std::uint32_t n_ids, std::size_t expected_entries,
                           const KeySource& keys, std::size_t threads,
                           int tag_bits) {
  assert(tag_bits >= 0 && tag_bits <= kTagBits);
  *this = PackedPostings{};
  const int bucket_bits = bucket_bits_for(expected_entries);
  const std::size_t n_buckets = std::size_t{1} << bucket_bits;
  bucket_shift_ = 64 - bucket_bits;
  tag_shift_ = bucket_shift_ - tag_bits;
  tag_mask_ = (std::uint64_t{1} << tag_bits) - 1;
  tag_bits_ = tag_bits;
  bits_per_id_ = std::max(
      1, static_cast<int>(std::bit_width(n_ids == 0 ? 0u : n_ids - 1)));
  const auto bpi = static_cast<std::size_t>(bits_per_id_);

  // Ids are split into chunks as parallel_chunks splits them; both passes
  // see the same chunks.  Chunk c keeps one cursor per bucket: first its
  // entry count, then (after the prefix sums) the position of its next
  // entry.  The last chunk's cursors live in bucket_starts_[1..], so once
  // every entry is placed they hold the bucket ends.
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, n_ids));
  bucket_starts_.assign(n_buckets + 1, 0);
  std::vector<std::uint32_t> side((n_chunks - 1) * n_buckets, 0);
  const auto cursors = [&](std::size_t chunk) {
    return chunk + 1 == n_chunks ? bucket_starts_.data() + 1
                                 : side.data() + chunk * n_buckets;
  };
  std::vector<std::size_t> chunk_entries(n_chunks, 0);
  // Packed ids share words across chunk seams, so with several chunks
  // the ids are placed as 32-bit values first and packed afterwards.
  std::unique_ptr<std::uint32_t[]> wide_ids;
  std::atomic<bool> aborted{false};

  // One pass over every id: ids in groups of kBuildGroup, whose keys are
  // collected first (their cursors prefetched) and then counted or
  // placed in order, so a group's cache misses overlap.
  const auto pass = [&](bool place) {
    fbf::util::parallel_chunks(
        n_ids, n_chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          std::uint32_t* const cur = cursors(chunk);
          std::vector<std::uint64_t> hashes;
          std::vector<std::uint64_t> group;
          std::vector<std::uint32_t> group_ids;
          std::vector<std::uint32_t> group_pos;
          for (std::size_t g = begin; g < end; g += kBuildGroup) {
            group.clear();
            group_ids.clear();
            for (std::size_t i = g; i < std::min(g + kBuildGroup, end); ++i) {
              const auto id = static_cast<std::uint32_t>(i);
              hashes.clear();
              if (aborted.load(std::memory_order_relaxed) ||
                  !keys(id, hashes)) {
                aborted.store(true, std::memory_order_relaxed);
                return;
              }
              dedup_keys(hashes);
              for (const std::uint64_t h : hashes) {
                fbf::util::prefetch(cur + bucket_of(h));
                group.push_back(h);
                group_ids.push_back(id);
              }
            }
            if (!place) {
              for (const std::uint64_t h : group) {
                ++cur[bucket_of(h)];
              }
              chunk_entries[chunk] += group.size();
              continue;
            }
            group_pos.resize(group.size());
            for (std::size_t e = 0; e < group.size(); ++e) {
              const std::uint32_t pos = cur[bucket_of(group[e])]++;
              group_pos[e] = pos;
              fbf::util::prefetch_write(tags_.data() + pos);
              fbf::util::prefetch_write(
                  wide_ids ? static_cast<const void*>(wide_ids.get() + pos)
                           : bits_.data() + pos * bpi / 64);
            }
            for (std::size_t e = 0; e < group.size(); ++e) {
              const std::uint32_t pos = group_pos[e];
              tags_[pos] = tag_of(group[e]);
              if (wide_ids) {
                wide_ids[pos] = group_ids[e];
              } else {
                put_id(pos, group_ids[e]);
              }
            }
          }
        });
  };

  // 1. Count: each chunk tallies its entries per bucket.
  pass(/*place=*/false);
  if (aborted.load()) {
    *this = PackedPostings{};
    return false;
  }
  std::size_t total = 0;
  for (const std::size_t n : chunk_entries) {
    total += n;
  }
  // Per-bucket counts are 32-bit, so a bucket past 2^32 entries would
  // have wrapped; the total cannot wrap and bounds every bucket.
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    *this = PackedPostings{};
    throw std::length_error("PackedPostings: more than 2^32 entries");
  }

  // 2. Prefix sums in (bucket, chunk) order turn the counts into each
  //    chunk's first position in each bucket, fanned over bucket ranges:
  //    every range totals its counts, then assigns from its offset.
  const std::size_t n_ranges =
      std::min(std::max<std::size_t>(1, threads), n_buckets);
  std::vector<std::size_t> range_start(n_ranges + 1, 0);
  fbf::util::parallel_chunks(
      n_buckets, n_ranges,
      [&](std::size_t r, std::size_t b0, std::size_t b1) {
        std::size_t sum = 0;
        for (std::size_t c = 0; c < n_chunks; ++c) {
          const std::uint32_t* cur = cursors(c);
          for (std::size_t b = b0; b < b1; ++b) {
            sum += cur[b];
          }
        }
        range_start[r + 1] = sum;
      });
  for (std::size_t r = 0; r < n_ranges; ++r) {
    range_start[r + 1] += range_start[r];
  }
  fbf::util::parallel_chunks(
      n_buckets, n_ranges,
      [&](std::size_t r, std::size_t b0, std::size_t b1) {
        auto at = static_cast<std::uint32_t>(range_start[r]);
        for (std::size_t b = b0; b < b1; ++b) {
          for (std::size_t c = 0; c < n_chunks; ++c) {
            at += std::exchange(cursors(c)[b], at);
          }
        }
      });

  // 3. Place every entry at its chunk's cursor, then (several chunks)
  //    pack the ids in runs of 64 positions, whole words each.
  tags_.resize(total);
  bits_.assign((total * bpi + 63) / 64 + 1, 0);
  if (n_chunks > 1) {
    wide_ids = std::make_unique_for_overwrite<std::uint32_t[]>(total);
  }
  pass(/*place=*/true);
  if (aborted.load()) {
    *this = PackedPostings{};
    return false;
  }
  if (wide_ids) {
    fbf::util::parallel_chunks(
        (total + 63) / 64, threads,
        [&](std::size_t, std::size_t g0, std::size_t g1) {
          for (std::size_t pos = g0 * 64; pos < std::min(g1 * 64, total);
               ++pos) {
            put_id(pos, wide_ids[pos]);
          }
        });
  }
  return true;
}

void PackedPostings::put_id(std::size_t pos, std::uint32_t id) noexcept {
  const std::size_t bit = pos * static_cast<std::size_t>(bits_per_id_);
  const std::size_t shift = bit % 64;
  bits_[bit / 64] |= std::uint64_t{id} << shift;
  if (shift + static_cast<std::size_t>(bits_per_id_) > 64) {
    bits_[bit / 64 + 1] |= std::uint64_t{id} >> (64 - shift);
  }
}

void PackedPostings::find(std::uint64_t hash,
                          std::vector<std::uint32_t>& out) const {
  Range bucket;
  find_batch({&hash, 1}, {&bucket, 1});
  for_each_id(hash, bucket, [&](std::uint32_t id) { out.push_back(id); });
}

void PackedPostings::find_batch(std::span<const std::uint64_t> hashes,
                                std::span<Range> buckets) const noexcept {
  assert(hashes.size() == buckets.size());
  if (tags_.empty()) {
    std::fill(buckets.begin(), buckets.end(), Range{});
    return;
  }
  using fbf::util::prefetch;
  const std::size_t n = hashes.size();
  // 1. Every hash's bucket bounds.
  for (std::size_t i = 0; i < n; ++i) {
    prefetch(bucket_starts_.data() + bucket_of(hashes[i]));
  }
  // 2. Each bucket's run: its tag line and its first id word, both
  //    addressed by the bucket start, so they load side by side.
  const auto bpi = static_cast<std::size_t>(bits_per_id_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = bucket_of(hashes[i]);
    buckets[i] = {bucket_starts_[b], bucket_starts_[b + 1]};
    prefetch(tags_.data() + buckets[i].begin);
    prefetch(bits_.data() + buckets[i].begin * bpi / 64);
  }
}

std::uint32_t PackedPostings::id_at(std::size_t pos) const noexcept {
  const std::size_t bit = pos * static_cast<std::size_t>(bits_per_id_);
  const std::size_t word = bit / 64;
  const std::size_t shift = bit % 64;
  std::uint64_t v = bits_[word] >> shift;
  if (shift + static_cast<std::size_t>(bits_per_id_) > 64) {
    v |= bits_[word + 1] << (64 - shift);
  }
  const std::uint64_t mask =
      bits_per_id_ == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << bits_per_id_) - 1;
  return static_cast<std::uint32_t>(v & mask);
}

BlockIndexGenerator::BlockIndexGenerator(int k) : k_(k) {}

BlockIndexGenerator::BlockIndexGenerator(int k,
                                         std::span<const std::string> values,
                                         std::size_t threads)
    : BlockIndexGenerator(std::move(*build(k, values, threads, {}))) {}

std::optional<BlockIndexGenerator> BlockIndexGenerator::build(
    int k, std::span<const std::string> values, std::size_t threads,
    std::stop_token stop, int tag_bits) {
  BlockIndexGenerator gen(k);
  gen.tag_bits_ = tag_bits;
  gen.size_ = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].size() > kMaxEnumLength) {
      gen.long_ids_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (!gen.rebuild(values, threads, std::move(stop))) {
    return std::nullopt;
  }
  return gen;
}

void BlockIndexGenerator::append(std::span<const std::string> column,
                                 std::size_t threads) {
  assert(column.size() >= size_);
  const std::size_t first = size_;
  std::size_t new_keys = 0;
  for (std::size_t i = first; i < column.size(); ++i) {
    new_keys += enumerated_key_count(column[i].size(), k_);
    if (column[i].size() > kMaxEnumLength) {
      long_ids_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  size_ = column.size();
  // Fold everything into the base once the overflow tier would stop
  // being small next to it; the threshold keeps steady single-record
  // ingest amortized O(keys) per append.
  const std::size_t pending = overflow_entries_ + new_keys;
  if (pending >= kMinCompactEntries && pending * 4 >= base_.entry_count()) {
    if (!overflow_.empty()) {
      ++compactions_;
    }
    rebuild(column, threads);
    return;
  }
  thread_local KeyScratch scratch;
  for (std::size_t i = first; i < size_; ++i) {
    scratch.keys.clear();
    if (!collect_keys(column[i], k_, scratch, scratch.keys, /*dedup=*/true)) {
      continue;
    }
    for (const std::uint64_t key : scratch.keys) {
      overflow_[key].push_back(static_cast<std::uint32_t>(i));
    }
    overflow_entries_ += scratch.keys.size();
  }
}

void BlockIndexGenerator::compact(std::span<const std::string> column,
                                  std::size_t threads) {
  if (overflow_.empty()) {
    return;
  }
  rebuild(column, threads);
  ++compactions_;
}

bool BlockIndexGenerator::rebuild(std::span<const std::string> column,
                                  std::size_t threads, std::stop_token stop) {
  assert(column.size() >= size_);
  if (size_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("BlockIndexGenerator: more than 2^32 strings");
  }
  column = column.first(size_);
  // A string's key count depends only on (length, k): the pre-dedup total
  // sizes the bucket table as a pure function of the strings.
  std::size_t expected = 0;
  for (const std::string& s : column) {
    expected += enumerated_key_count(s.size(), k_);
  }
  overflow_.clear();
  overflow_entries_ = 0;
  return base_.build(
      static_cast<std::uint32_t>(size_), expected,
      [&](std::uint32_t id, std::vector<std::uint64_t>& out) {
        if (id % kStopCheckIds == 0 && stop.stop_requested()) {
          return false;
        }
        thread_local KeyScratch scratch;
        collect_keys(column[id], k_, scratch, out, /*dedup=*/false);
        return true;
      },
      threads, tag_bits_);
}

void BlockIndexGenerator::generate(std::string_view query,
                                   std::vector<std::uint32_t>& out) const {
  generate_batch({&query, 1}, {&out, 1});
}

void BlockIndexGenerator::generate_batch(
    std::span<const std::string_view> queries,
    std::span<std::vector<std::uint32_t>> outs) const {
  assert(queries.size() == outs.size());
  thread_local KeyScratch scratch;
  std::vector<std::uint64_t>& keys = scratch.keys;
  std::vector<std::size_t>& key_begin = scratch.key_begin;
  for (std::size_t g = 0; g < queries.size(); g += kProbeGroup) {
    const std::size_t n = std::min(kProbeGroup, queries.size() - g);
    // 1. The whole group's keys, query by query (a query too long to
    //    enumerate contributes none).
    keys.clear();
    key_begin.assign(1, 0);
    std::array<bool, kProbeGroup> enumerated{};
    for (std::size_t q = 0; q < n; ++q) {
      enumerated[q] = collect_keys(queries[g + q], k_, scratch, keys,
                                   /*dedup=*/false);
      key_begin.push_back(keys.size());
    }
    // 2. One staged lookup finds every key's bucket.
    scratch.ranges.resize(keys.size());
    base_.find_batch(keys, scratch.ranges);
    // 3. Each query's ids: tag-matching base entries and overflow hits
    //    per key, plus the long strings, then sorted and deduplicated.
    for (std::size_t q = 0; q < n; ++q) {
      std::vector<std::uint32_t>& out = outs[g + q];
      const std::size_t start = out.size();
      if (!enumerated[q]) {
        // Query too long to enumerate: every stored id is a candidate
        // (rare; sound by construction — the filter and verifier still
        // run).
        out.reserve(start + size_);
        for (std::size_t j = 0; j < size_; ++j) {
          out.push_back(static_cast<std::uint32_t>(j));
        }
        continue;
      }
      for (std::size_t e = key_begin[q]; e < key_begin[q + 1]; ++e) {
        base_.for_each_id(keys[e], scratch.ranges[e],
                          [&](std::uint32_t id) { out.push_back(id); });
        if (!overflow_.empty()) {
          if (const auto it = overflow_.find(keys[e]); it != overflow_.end()) {
            out.insert(out.end(), it->second.begin(), it->second.end());
          }
        }
      }
      out.insert(out.end(), long_ids_.begin(), long_ids_.end());
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
      out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(start),
                            out.end()),
                out.end());
    }
  }
}

BlockIndexStats BlockIndexGenerator::stats() const noexcept {
  BlockIndexStats s;
  s.entries = base_.entry_count();
  s.buckets = base_.bucket_count();
  s.bits_per_id = base_.bits_per_id();
  s.bytes = base_.bytes();
  s.overflow_entries = overflow_entries_;
  s.long_strings = long_ids_.size();
  s.compactions = compactions_;
  return s;
}

}  // namespace fbf::core
