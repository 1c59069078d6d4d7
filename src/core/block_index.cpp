#include "core/block_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
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
  /// key_begin[q + 1]), resolved to ranges[] by one find_batch.
  std::vector<std::size_t> key_begin;
  std::vector<PackedPostings::Range> ranges;
};

/// Appends the key hashes for `s` to scratch.keys — the appended keys
/// sorted unique when `dedup` (the append path, so the index never stores
/// duplicate postings), raw enumeration order otherwise (the probe path:
/// duplicate keys only re-surface ids the final candidate dedup removes
/// anyway).  Returns false, appending nothing, when the string is too
/// long to enumerate (caller takes the always-candidate path).
bool collect_keys(std::string_view s, int k, KeyScratch& scratch,
                  bool dedup = true) {
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
  std::vector<std::uint64_t>& keys = scratch.keys;
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

// Partition sizing for PackedPostings::build: about this many entries
// per partition (16 B each), so a partition and its radix scratch stay
// in a core's L2 while it is sorted and packed.
constexpr std::size_t kPartitionEntries = std::size_t{1} << 14;
constexpr int kMaxPartitionBits = 16;
// find() table density: about four keys per bucket.
constexpr std::size_t kKeysPerBucket = 4;

/// Sorts `part` (entries sharing their top `partition_bits` hash bits)
/// by (hash, id) through `scratch`, deduplicates it in place and returns
/// {unique entries, distinct keys}.  A radix split on the next hash bits
/// leaves ~1 entry per bucket (the hashes are uniform after finalize()),
/// so one insertion pass orders the small buckets; only a large bucket
/// (a hot key) sees a comparison sort.
std::pair<std::size_t, std::size_t> sort_partition(
    std::span<PostingEntry> part, int partition_bits,
    std::vector<PostingEntry>& scratch, std::vector<std::uint32_t>& starts) {
  if (part.empty()) {
    return {0, 0};
  }
  const int radix_bits =
      std::max(1, static_cast<int>(std::bit_width(part.size())));
  const int shift = 64 - partition_bits - radix_bits;
  const std::uint64_t mask = (std::uint64_t{1} << radix_bits) - 1;
  starts.assign((std::size_t{1} << radix_bits) + 1, 0);
  for (const PostingEntry& e : part) {
    ++starts[((e.hash >> shift) & mask) + 1];
  }
  for (std::size_t b = 1; b < starts.size(); ++b) {
    starts[b] += starts[b - 1];
  }
  scratch.resize(part.size());
  for (const PostingEntry& e : part) {
    scratch[starts[(e.hash >> shift) & mask]++] = e;
  }
  const auto less = [](const PostingEntry& a, const PostingEntry& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.id < b.id;
  };
  // The scatter advanced starts[b] to bucket b's end; bucket 0 begins
  // at 0.
  constexpr std::size_t kInsertionLimit = 16;
  std::size_t begin = 0;
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    const std::size_t end = starts[b];
    if (end - begin > kInsertionLimit) {
      std::sort(scratch.begin() + static_cast<std::ptrdiff_t>(begin),
                scratch.begin() + static_cast<std::ptrdiff_t>(end), less);
    }
    begin = end;
  }
  // Buckets are ordered and large ones sorted, so an entry only ever moves
  // back within its own small bucket.
  for (std::size_t i = 1; i < scratch.size(); ++i) {
    if (less(scratch[i], scratch[i - 1])) {
      const PostingEntry e = scratch[i];
      std::size_t j = i;
      do {
        scratch[j] = scratch[j - 1];
        --j;
      } while (j > 0 && less(e, scratch[j - 1]));
      scratch[j] = e;
    }
  }
  std::size_t n = 0;
  std::size_t keys = 0;
  for (const PostingEntry& e : scratch) {
    if (n > 0 && e.hash == part[n - 1].hash) {
      if (e.id == part[n - 1].id) {
        continue;
      }
    } else {
      ++keys;
    }
    part[n++] = e;
  }
  return {n, keys};
}

}  // namespace

void PackedPostings::build(std::vector<std::vector<PostingEntry>> runs,
                           std::size_t threads) {
  std::size_t total = 0;
  for (const auto& run : runs) {
    total += run.size();
  }
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("PackedPostings: more than 2^32 entries");
  }
  // Partition p holds the hashes whose top `partition_bits` bits equal p.
  // The count depends only on the entry total, never on `threads`.
  const int partition_bits = std::clamp(
      static_cast<int>(std::bit_width(total / kPartitionEntries)), 1,
      kMaxPartitionBits);
  const int partition_shift = 64 - partition_bits;
  const std::size_t n_parts = std::size_t{1} << partition_bits;
  const std::size_t n_runs = runs.size();

  // 1. Each run histograms its entries by partition (and finds its widest
  //    id).
  std::vector<std::size_t> cursor(n_runs * n_parts, 0);
  std::vector<std::uint32_t> run_max_id(n_runs, 0);
  fbf::util::parallel_chunks(
      n_runs, threads, [&](std::size_t, std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          std::size_t* counts = cursor.data() + r * n_parts;
          std::uint32_t max_id = 0;
          for (const PostingEntry& e : runs[r]) {
            ++counts[e.hash >> partition_shift];
            max_id = std::max(max_id, e.id);
          }
          run_max_id[r] = max_id;
        }
      });

  // 2. Partition-major layout: partition p's range starts at part_begin[p]
  //    and holds run 0's entries for p, then run 1's, and so on.
  std::vector<std::size_t> part_begin(n_parts + 1, 0);
  std::size_t at = 0;
  for (std::size_t p = 0; p < n_parts; ++p) {
    part_begin[p] = at;
    for (std::size_t r = 0; r < n_runs; ++r) {
      at += std::exchange(cursor[r * n_parts + p], at);
    }
  }
  part_begin[n_parts] = at;

  // 3. Every run scatters into its slots and is then released.  The
  //    array is written before it is read, so it skips the zero-fill.
  const auto parts = std::make_unique_for_overwrite<PostingEntry[]>(total);
  fbf::util::parallel_chunks(
      n_runs, threads, [&](std::size_t, std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          std::size_t* slot = cursor.data() + r * n_parts;
          for (const PostingEntry& e : runs[r]) {
            parts[slot[e.hash >> partition_shift]++] = e;
          }
          std::vector<PostingEntry>().swap(runs[r]);
        }
      });

  // 4. Sort, deduplicate and count each partition on its own.
  std::vector<std::size_t> part_entries(n_parts + 1, 0);
  std::vector<std::size_t> part_keys(n_parts + 1, 0);
  fbf::util::parallel_chunks(
      n_parts, threads, [&](std::size_t, std::size_t p0, std::size_t p1) {
        std::vector<PostingEntry> scratch;
        std::vector<std::uint32_t> starts;
        for (std::size_t p = p0; p < p1; ++p) {
          const std::span<PostingEntry> part(
              parts.get() + part_begin[p], part_begin[p + 1] - part_begin[p]);
          std::tie(part_entries[p], part_keys[p]) =
              sort_partition(part, partition_bits, scratch, starts);
        }
      });

  // 5. Exclusive prefix sums give each partition its global entry and key
  //    offsets.
  std::size_t entry_total = 0;
  std::size_t key_total = 0;
  for (std::size_t p = 0; p <= n_parts; ++p) {
    entry_total += std::exchange(part_entries[p], entry_total);
    key_total += std::exchange(part_keys[p], key_total);
  }
  count_ = entry_total;
  std::uint32_t max_id = 0;
  for (const std::uint32_t id : run_max_id) {
    max_id = std::max(max_id, id);
  }
  bits_per_id_ = std::max(1, static_cast<int>(std::bit_width(max_id)));
  const auto bpi = static_cast<std::size_t>(bits_per_id_);
  keys_.resize(key_total);
  offsets_.resize(key_total + 1);
  offsets_[key_total] = count_;
  bits_.assign((count_ * bpi + 63) / 64 + 1, 0);
  // Bucket acceleration for find(): key hashes are splitmix64-finalized,
  // so their top bits are uniform — a radix table at ~4 keys per bucket
  // narrows a probe to one short scan of adjacent keys.  At least as many
  // buckets as partitions, so each partition fills its own bucket range.
  const int bucket_bits =
      std::max(partition_bits,
               static_cast<int>(std::bit_width(key_total / kKeysPerBucket)));
  bucket_shift_ = 64 - bucket_bits;
  const int part_bucket_bits = bucket_bits - partition_bits;
  bucket_starts_.resize((std::size_t{1} << bucket_bits) + 1);
  bucket_starts_.back() = static_cast<std::uint32_t>(key_total);

  // 6. Pack every partition in parallel.  Interior id words belong to one
  //    partition alone; the first and last word of a partition's bit range
  //    may be shared with a neighbour, so those two are accumulated
  //    privately and OR-ed in afterwards.
  struct EdgeWords {
    std::size_t first = 0;
    std::uint64_t head = 0;
    std::size_t last = 0;
    std::uint64_t tail = 0;
  };
  std::vector<EdgeWords> edges(n_parts);
  fbf::util::parallel_chunks(
      n_parts, threads, [&](std::size_t, std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          const PostingEntry* part = parts.get() + part_begin[p];
          const std::size_t pos0 = part_entries[p];
          const std::size_t n = part_entries[p + 1] - pos0;
          std::size_t key = part_keys[p];
          std::size_t bucket = p << part_bucket_bits;
          const std::size_t bucket_end = (p + 1) << part_bucket_bits;
          EdgeWords& edge = edges[p];
          edge.first = pos0 * bpi / 64;
          edge.last = n == 0 ? edge.first : ((pos0 + n) * bpi - 1) / 64;
          const auto put = [&](std::size_t word, std::uint64_t v) {
            if (word == edge.first) {
              edge.head |= v;
            } else if (word == edge.last) {
              edge.tail |= v;
            } else {
              bits_[word] |= v;
            }
          };
          for (std::size_t i = 0; i < n; ++i) {
            const PostingEntry& e = part[i];
            if (i == 0 || e.hash != part[i - 1].hash) {
              const std::size_t b = e.hash >> bucket_shift_;
              while (bucket <= b) {
                bucket_starts_[bucket++] = static_cast<std::uint32_t>(key);
              }
              keys_[key] = e.hash;
              offsets_[key] = pos0 + i;
              ++key;
            }
            const std::size_t bit = (pos0 + i) * bpi;
            const std::size_t shift = bit % 64;
            put(bit / 64, std::uint64_t{e.id} << shift);
            if (shift + bpi > 64) {
              put(bit / 64 + 1, std::uint64_t{e.id} >> (64 - shift));
            }
          }
          while (bucket < bucket_end) {
            bucket_starts_[bucket++] = static_cast<std::uint32_t>(key);
          }
        }
      });
  for (const EdgeWords& edge : edges) {
    bits_[edge.first] |= edge.head;
    bits_[edge.last] |= edge.tail;
  }
}

PackedPostings::Range PackedPostings::find(std::uint64_t hash) const noexcept {
  Range range;
  find_batch({&hash, 1}, {&range, 1});
  return range;
}

void PackedPostings::find_batch(std::span<const std::uint64_t> hashes,
                                std::span<Range> ranges) const noexcept {
  assert(hashes.size() == ranges.size());
  if (keys_.empty()) {
    std::fill(ranges.begin(), ranges.end(), Range{});
    return;
  }
  using fbf::util::prefetch;
  const std::size_t n = hashes.size();
  // 1. Every hash's bucket bounds.
  for (std::size_t i = 0; i < n; ++i) {
    prefetch(bucket_starts_.data() + (hashes[i] >> bucket_shift_));
  }
  // 2. Each bucket's run of keys: ranges[i] holds key indices for now.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bucket = hashes[i] >> bucket_shift_;
    ranges[i] = {bucket_starts_[bucket], bucket_starts_[bucket + 1]};
    prefetch(keys_.data() + ranges[i].begin);
  }
  // 3. Scan the run: a hit narrows ranges[i] to its one key index, a miss
  //    empties it.
  for (std::size_t i = 0; i < n; ++i) {
    Range& r = ranges[i];
    std::size_t key = r.begin;
    while (key < r.end && keys_[key] != hashes[i]) {
      ++key;
    }
    if (key == r.end) {
      r = {};
      continue;
    }
    r = {key, key + 1};
    prefetch(offsets_.data() + key);
    prefetch(offsets_.data() + key + 1);
  }
  // 4. Key index -> packed positions, and the first id word they decode.
  const auto bpi = static_cast<std::size_t>(bits_per_id_);
  for (Range& r : ranges) {
    if (r.begin == r.end) {
      continue;
    }
    r = {offsets_[r.begin], offsets_[r.begin + 1]};
    prefetch(bits_.data() + r.begin * bpi / 64);
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
    : k_(k) {
  append(values, threads);
}

void BlockIndexGenerator::append(std::string_view value) {
  const auto id = static_cast<std::uint32_t>(size_++);
  thread_local KeyScratch scratch;
  scratch.keys.clear();
  if (!collect_keys(value, k_, scratch)) {
    long_ids_.push_back(id);
    return;
  }
  insert_keys(scratch.keys, id);
  maybe_compact();
}

void BlockIndexGenerator::append(std::span<const std::string> values,
                                 std::size_t threads) {
  const auto base_id = static_cast<std::uint32_t>(size_);
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min(threads, values.size()));
  std::vector<std::vector<PostingEntry>> runs(n_chunks);
  std::vector<std::vector<std::uint32_t>> chunk_long(n_chunks);
  fbf::util::parallel_chunks(
      values.size(), threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        // Key counts depend only on (length, k): size the run exactly up
        // front (a reservation, so a miscount could only cost a regrow).
        std::size_t n_keys = 0;
        for (std::size_t i = begin; i < end; ++i) {
          n_keys += enumerated_key_count(values[i].size(), k_);
        }
        std::vector<PostingEntry>& run = runs[chunk];
        run.reserve(n_keys);
        KeyScratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
          const auto id = static_cast<std::uint32_t>(base_id + i);
          // No per-string dedup: the CSR build deduplicates (hash, id)
          // pairs globally anyway.
          scratch.keys.clear();
          if (!collect_keys(values[i], k_, scratch, /*dedup=*/false)) {
            chunk_long[chunk].push_back(id);
            continue;
          }
          assert(scratch.keys.size() ==
                 enumerated_key_count(values[i].size(), k_));
          for (const std::uint64_t key : scratch.keys) {
            run.push_back({key, id});
          }
        }
      });
  size_ += values.size();
  rebuild(std::move(runs), threads);
  for (const auto& chunk : chunk_long) {
    long_ids_.insert(long_ids_.end(), chunk.begin(), chunk.end());
  }
}

void BlockIndexGenerator::rebuild(std::vector<std::vector<PostingEntry>> runs,
                                  std::size_t threads) {
  // The existing base and overflow entries enter as one more run; the
  // build depends only on the entry multiset, so any thread count (and
  // any bulk/single append interleaving) yields the same index.
  std::vector<PostingEntry> existing;
  existing.reserve(base_.entry_count() + overflow_entries_);
  for (std::size_t i = 0; i < base_.key_count(); ++i) {
    const PackedPostings::Range r = base_.range_at(i);
    for (std::size_t pos = r.begin; pos < r.end; ++pos) {
      existing.push_back({base_.key_at(i), base_.id_at(pos)});
    }
  }
  for (const auto& [key, ids] : overflow_) {
    for (const std::uint32_t id : ids) {
      existing.push_back({key, id});
    }
  }
  if (!existing.empty()) {
    runs.push_back(std::move(existing));
  }
  base_.build(std::move(runs), threads);
  overflow_.clear();
  overflow_entries_ = 0;
}

void BlockIndexGenerator::insert_keys(std::span<const std::uint64_t> keys,
                                      std::uint32_t id) {
  for (const std::uint64_t key : keys) {
    overflow_[key].push_back(id);
  }
  overflow_entries_ += keys.size();
}

void BlockIndexGenerator::maybe_compact() {
  // Fold the overflow tier in once it stops being small relative to the
  // base; the threshold keeps steady single-record ingest amortized
  // O(keys) per append.
  if (overflow_entries_ >= 4096 &&
      overflow_entries_ * 4 >= base_.entry_count()) {
    compact();
  }
}

void BlockIndexGenerator::compact() {
  if (overflow_.empty()) {
    return;
  }
  rebuild({}, 1);
  ++compactions_;
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
      enumerated[q] = collect_keys(queries[g + q], k_, scratch,
                                   /*dedup=*/false);
      key_begin.push_back(keys.size());
    }
    // 2. One staged lookup resolves every key of the group.
    scratch.ranges.resize(keys.size());
    base_.find_batch(keys, scratch.ranges);
    // 3. Each query's ids: base postings and overflow hits per key, plus
    //    the long strings, then sorted and deduplicated.
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
        const PackedPostings::Range r = scratch.ranges[e];
        for (std::size_t pos = r.begin; pos < r.end; ++pos) {
          out.push_back(base_.id_at(pos));
        }
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
  s.keys = base_.key_count();
  s.bits_per_id = base_.bits_per_id();
  s.overflow_entries = overflow_entries_;
  s.long_strings = long_ids_.size();
  s.compactions = compactions_;
  return s;
}

}  // namespace fbf::core
