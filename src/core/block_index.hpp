// BlockIndexGenerator: sub-quadratic candidate generation by pigeonhole
// block partitioning + deletion neighborhoods (DESIGN.md §14; after the
// case-decomposition index of SNIPPETS.md #1).
//
// Two key families per stored string s, both hashed to 64-bit keys in one
// inverted index:
//
//   * Piece keys (the Hamming / no-indel case): s is split into 2k+1
//     contiguous pieces, keyed by (length, piece index, piece content).
//     An OSA script with no insertions or deletions preserves length and
//     touches at most 2k positions (a substitution touches 1, an adjacent
//     transposition 2), so at least one of the 2k+1 pieces is untouched
//     and matches the other string's same piece exactly.  Emitted only
//     when every piece is long enough to be selective (short pieces are
//     shared by whole equal-length cohorts); the gate depends only on
//     (length, k), so append and probe always agree on it.
//
//   * Deletion keys (the general case, FastSS-style): every variant of s
//     with up to k characters deleted, keyed by variant content.  Any
//     OSA script of <= k ops is neutralized by <= k deletions per side —
//     delete the inserted/deleted character on its own side and, for each
//     substitution or transposition, one character on each side — after
//     which both sides' variants are equal.  This family alone is a
//     complete cover of { (s, t) : OSA(s, t) <= k }; the piece family is
//     the cheaper, more selective probe for the dominant substitution
//     case.  Candidates are the deduplicated union.
//
// Because generation can only over-approximate (hash collisions and piece
// false-sharers surface extra candidates; the families never miss a true
// pair), the downstream FBF filter + verifier produce exactly the dense
// generator's match set — the zero-false-negative property tests pin this
// across layouts, k, thread counts and incremental appends.
//
// Storage is a tag-only postings store (PackedPostings): one entry per
// (key hash, id), grouped by the hash's top bits into buckets of about
// four entries, each entry a 16-bit tag (the hash bits just below the
// bucket bits) beside the id, bit-packed at ceil(log2(n)) bits — ~20
// bits per id at a million rows, the snippet's own improvement note.
// The full hash is not stored: a probe reads the bucket's tags and keeps
// the entries whose tag matches, so a tag collision can only add a
// candidate.  The build enumerates every string's keys twice (count per
// bucket, then place) straight into the final arrays, and the index is a
// pure function of the strings; without stored hashes, compaction
// re-derives the keys from the caller's string column.
// Incremental appends land in a small overflow tier (hash map) probed
// alongside the frozen base and folded in when it grows past a
// fraction of the base, so ingest never rebuilds per record.
//
// Soundness contract: generate(q) is a superset of { j : OSA(q, t_j) <= k }
// — the verifier then makes the final decision, so the indexed route
// produces exactly the dense tile sweep's match set.  The only other
// candidate-generation route is that dense sweep (GeneratorKind::kDense),
// which consumers run directly over contiguous tiles.
//
// Thread contract (mirrors std::vector): concurrent generate() and
// generate_batch() calls are safe; append() must not race them.
// Consumers build or append single-threaded (or through the builder's own
// fan-out) and then query from the worker pool.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fbf::core {

/// Immutable tag-only postings store.  Entries are grouped by bucket (the
/// top bits of the key hash, uniform after finalization); bucket b's
/// entries sit at positions [bucket_starts[b], bucket_starts[b + 1]),
/// each with a tag (the next `tag_bits` hash bits) in one array and its
/// id bit-packed at max(1, bit_width(n_ids - 1)) bits in another.  Inside
/// a bucket, entries run in ascending id order, and one id's entries in
/// the order its key source emitted them (sorted beyond 16 keys).  A
/// lookup returns every id in the hash's bucket whose tag matches: a
/// superset of the ids stored under the hash, larger only by tag
/// collisions (about 4 / 2^16 extra ids per lookup).
class PackedPostings {
 public:
  static constexpr int kTagBits = 16;

  /// keys(id, out) appends id's key hashes to `out`; repeats are
  /// dropped, and the order places one id's entries inside a bucket.
  /// build() calls it twice per id, possibly from several threads at
  /// once, so it must be a pure function of `id`.  Returning false
  /// aborts the build.
  using KeySource =
      std::function<bool(std::uint32_t id, std::vector<std::uint64_t>& out)>;

  /// Replaces the contents with one entry per distinct (hash, id) that
  /// `keys` yields for ids [0, n_ids).  `expected_entries` sizes the
  /// bucket table at about four entries a bucket; pass a pure function of
  /// the input (the generator passes the key count before deduplication)
  /// so that equal inputs give equal layouts.  The build counts entries
  /// per bucket, then places each one, both passes fanned across
  /// `threads` chunks of ids (`threads <= 1` runs inline; with several
  /// chunks the ids are staged at 32 bits and packed afterwards); the
  /// result is byte-identical at every thread count.  `tag_bits` in
  /// [0, 16] narrows the tags (tests force collisions with it).  Returns
  /// false, leaving the store empty, when `keys` aborted; throws
  /// std::length_error past 2^32 entries.
  bool build(std::uint32_t n_ids, std::size_t expected_entries,
             const KeySource& keys, std::size_t threads = 1,
             int tag_bits = kTagBits);

  /// A run of positions: one bucket.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;  ///< one past the last position
  };

  /// Appends to `out` the ids of `hash`'s bucket whose tag matches it.
  /// The n = 1 case of find_batch + for_each_id.
  void find(std::uint64_t hash, std::vector<std::uint32_t>& out) const;

  /// buckets[i] = the bucket range of hashes[i] for every i (the spans
  /// have equal size).  The lookup runs in stages across all hashes —
  /// first every bucket bound, then each bucket's tag line and first id
  /// word — and each stage prefetches the lines the next one reads, so
  /// the cache misses of a whole probe group overlap instead of queueing.
  void find_batch(std::span<const std::uint64_t> hashes,
                  std::span<Range> buckets) const noexcept;

  /// Calls fn(id) for every entry of `bucket` (hash's bucket, from
  /// find_batch) whose tag matches `hash`, in position order.
  template <typename Fn>
  void for_each_id(std::uint64_t hash, Range bucket, Fn&& fn) const {
    const std::uint16_t tag = tag_of(hash);
    for (std::size_t pos = bucket.begin; pos < bucket.end; ++pos) {
      if (tags_[pos] == tag) {
        fn(id_at(pos));
      }
    }
  }

  /// The tag `hash` carries in this store.
  [[nodiscard]] std::uint16_t tag_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint16_t>((hash >> tag_shift_) & tag_mask_);
  }
  /// Tag and id at position `pos` (< entry_count()).
  [[nodiscard]] std::uint16_t tag_at(std::size_t pos) const noexcept {
    return tags_[pos];
  }
  [[nodiscard]] std::uint32_t id_at(std::size_t pos) const noexcept;

  /// Buckets in the table (0 before the first build).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bucket_starts_.empty() ? 0 : bucket_starts_.size() - 1;
  }
  /// Positions of bucket b (< bucket_count()).
  [[nodiscard]] Range bucket_at(std::size_t b) const noexcept {
    return {bucket_starts_[b], bucket_starts_[b + 1]};
  }
  /// The bucket `hash` falls in (bucket_count() must be > 0).
  [[nodiscard]] std::size_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> bucket_shift_);
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return tags_.size();
  }
  [[nodiscard]] int bits_per_id() const noexcept { return bits_per_id_; }
  [[nodiscard]] int tag_bits() const noexcept { return tag_bits_; }
  /// Bytes held by the three arrays (tags, packed ids, bucket table).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return tags_.size() * sizeof(std::uint16_t) +
           bits_.size() * sizeof(std::uint64_t) +
           bucket_starts_.size() * sizeof(std::uint32_t);
  }

 private:
  /// ORs `id` into the packed bits of position `pos`.
  void put_id(std::size_t pos, std::uint32_t id) noexcept;

  std::vector<std::uint16_t> tags_;    ///< one tag per entry
  std::vector<std::uint64_t> bits_;    ///< bit-packed ids, one per entry
  /// bucket b covers positions [bucket_starts_[b], bucket_starts_[b + 1]).
  std::vector<std::uint32_t> bucket_starts_;
  int bucket_shift_ = 63;  ///< bucket = hash >> bucket_shift_
  int tag_shift_ = 47;     ///< tag = (hash >> tag_shift_) & tag_mask_
  std::uint64_t tag_mask_ = 0xffff;
  int tag_bits_ = kTagBits;
  int bits_per_id_ = 1;
};

/// Diagnostics for benches and the selectivity accounting.
struct BlockIndexStats {
  std::size_t entries = 0;        ///< postings entries in the base
  std::size_t buckets = 0;        ///< bucket table size of the base
  int bits_per_id = 1;            ///< packed id width
  std::size_t bytes = 0;          ///< bytes held by the base's arrays
  std::size_t overflow_entries = 0;  ///< entries awaiting compaction
  std::size_t long_strings = 0;   ///< always-candidate escape hatch size
  std::size_t compactions = 0;    ///< overflow folds into the base
};

class BlockIndexGenerator {
 public:
  explicit BlockIndexGenerator(int k);
  /// Bulk build: both key passes of the postings build fan across
  /// `threads`; the index is identical for every thread count.
  BlockIndexGenerator(int k, std::span<const std::string> values,
                      std::size_t threads = 1);

  /// The bulk build, abandoned (nullopt) once `stop` is requested: the
  /// build checks it every few thousand strings, so a caller that owns
  /// `values` can reclaim them promptly.  `tag_bits` narrows the postings
  /// tags (PackedPostings::build; tests force collisions with it).
  [[nodiscard]] static std::optional<BlockIndexGenerator> build(
      int k, std::span<const std::string> values, std::size_t threads,
      std::stop_token stop, int tag_bits = PackedPostings::kTagBits);

  /// True when the pigeonhole construction is sound and affordable for
  /// `k` (k in [0, 2]; larger k explodes the deletion neighborhood and
  /// consumers fall back to the dense generator).
  [[nodiscard]] static bool supported(int k) noexcept {
    return k >= 0 && k <= 2;
  }

  /// Stable display name (generator_name(GeneratorKind::kBlockIndex)).
  [[nodiscard]] const char* name() const noexcept { return "block-index"; }
  /// Number of stored candidates.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] int k() const noexcept { return k_; }

  /// Indexes column[size(), column.size()).  `column` is the caller's
  /// append-only string column: its first size() strings must be the ones
  /// already indexed, since the base stores no full key hashes and a
  /// rebuild re-derives them from the column.  New strings land in the
  /// overflow tier while it stays small next to the base; otherwise the
  /// base is rebuilt from the whole column (fanned across `threads`).
  void append(std::span<const std::string> column, std::size_t threads = 1);

  /// Queries generate_batch resolves through one staged postings lookup
  /// (consumers probing many rows hand it groups of this size).  Any
  /// group size from 8 to 64 measured the same on the 200k-row join.
  static constexpr std::size_t kProbeGroup = 16;

  /// Appends to `out` the ids of stored candidates that may be within
  /// OSA distance k of `query`, sorted ascending without duplicates.  The
  /// n = 1 case of generate_batch.
  void generate(std::string_view query,
                std::vector<std::uint32_t>& out) const;

  /// For every q, appends to outs[q] exactly what generate(queries[q],
  /// outs[q]) would (the spans have equal size).  Queries are taken in
  /// groups of kProbeGroup: the keys of a whole group are collected
  /// first and resolved through one PackedPostings::find_batch, so the
  /// group's postings misses overlap.
  void generate_batch(std::span<const std::string_view> queries,
                      std::span<std::vector<std::uint32_t>> outs) const;

  /// Rebuilds the base from `column` (as for append) and empties the
  /// overflow tier; a no-op when the tier is empty.  Also runs
  /// automatically when the tier outgrows a fraction of the base.
  void compact(std::span<const std::string> column, std::size_t threads = 1);

  [[nodiscard]] BlockIndexStats stats() const noexcept;
  /// The frozen base (excludes the overflow tier and long strings).
  [[nodiscard]] const PackedPostings& postings() const noexcept {
    return base_;
  }

 private:
  /// Rebuilds the base from column[0, size()) and empties the overflow
  /// tier; false (base left empty) when `stop` was requested.
  bool rebuild(std::span<const std::string> column, std::size_t threads,
               std::stop_token stop = {});

  int k_ = 1;
  int tag_bits_ = PackedPostings::kTagBits;
  std::size_t size_ = 0;
  PackedPostings base_;
  /// Incremental tier: key hash -> ids appended since the last rebuild.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> overflow_;
  std::size_t overflow_entries_ = 0;
  /// Ids of strings too long to enumerate deletion variants for; they are
  /// unconditional candidates (sound and cheap — such strings are rare).
  std::vector<std::uint32_t> long_ids_;
  std::size_t compactions_ = 0;
};

}  // namespace fbf::core
