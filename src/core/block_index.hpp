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
// Storage is a CSR bit-packed postings list (PackedPostings): sorted
// 64-bit key hashes, an offset table, and ids packed at
// ceil(log2(max_id+1)) bits — ~20 bits per id at a million rows, the
// snippet's own improvement note — built by one partitioned parallel
// pass and rebuilt deterministically on compact.
// Incremental appends land in a small overflow tier (hash map) probed
// alongside the frozen CSR base and folded in when it grows past a
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
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fbf::core {

/// One postings entry: a key hash and the id stored under it.  Trivial
/// (no member initializers), so the build's bulk arrays skip zero-fill.
struct PostingEntry {
  std::uint64_t hash;
  std::uint32_t id;
};

/// Immutable CSR postings store with bit-packed ids.  Keys are sorted
/// unique 64-bit hashes, expected uniform (find() scans the keys that
/// share the hash's top bits); key i's ids live at packed positions
/// [offset(i), offset(i+1)), ascending.  Ids are packed at
/// max(1, bit_width(max_id)) bits, so the store widens automatically past
/// 2^20 ids (round-trip property-tested at the boundary).
class PackedPostings {
 public:
  /// Replaces the contents with the union of `runs`, sorted and
  /// deduplicated.  One partitioned pass fanned across `threads`
  /// (`threads <= 1` runs inline): each run histograms its entries by the
  /// top hash bits and scatters them into a partition-major array, then
  /// each partition (a cache-sized range of the key space) is sorted,
  /// deduplicated and packed on its own.  The result is a pure function
  /// of the entry multiset: byte-identical for any split into runs, any
  /// input order and any thread count.  Throws std::length_error past
  /// 2^32 entries.
  void build(std::vector<std::vector<PostingEntry>> runs,
             std::size_t threads = 1);

  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;  ///< one past the last packed position
  };

  /// Packed position range for `hash`; empty range when absent.  The
  /// n = 1 case of find_batch.
  [[nodiscard]] Range find(std::uint64_t hash) const noexcept;

  /// ranges[i] = find(hashes[i]) for every i (the spans have equal
  /// size).  The lookup runs in stages across all hashes — bucket bounds,
  /// then the key scan, then the offsets — and each stage prefetches the
  /// lines the next one reads, ending with each hit's first id word, so
  /// the cache misses of a whole probe group overlap instead of queueing.
  void find_batch(std::span<const std::uint64_t> hashes,
                  std::span<Range> ranges) const noexcept;

  /// Id at packed position `pos` (< entry_count()).
  [[nodiscard]] std::uint32_t id_at(std::size_t pos) const noexcept;

  [[nodiscard]] std::size_t key_count() const noexcept {
    return keys_.size();
  }
  [[nodiscard]] std::uint64_t key_at(std::size_t i) const noexcept {
    return keys_[i];
  }
  [[nodiscard]] Range range_at(std::size_t i) const noexcept {
    return {offsets_[i], offsets_[i + 1]};
  }
  [[nodiscard]] std::size_t entry_count() const noexcept { return count_; }
  [[nodiscard]] int bits_per_id() const noexcept { return bits_per_id_; }

 private:
  std::vector<std::uint64_t> keys_;     ///< sorted unique key hashes
  std::vector<std::uint64_t> offsets_;  ///< key i -> [offsets_[i], offsets_[i+1])
  std::vector<std::uint64_t> bits_;     ///< bit-packed ids
  /// Radix acceleration over the (uniform) key hashes: bucket b covers
  /// keys_[bucket_starts_[b], bucket_starts_[b + 1]), about four keys per
  /// bucket, so the table stays cache-resident (~2 MB at 200k rows) and
  /// find() is an expected O(1) scan.
  std::vector<std::uint32_t> bucket_starts_;
  int bucket_shift_ = 63;
  int bits_per_id_ = 1;
  std::size_t count_ = 0;
};

/// Diagnostics for benches and the selectivity accounting.
struct BlockIndexStats {
  std::size_t entries = 0;        ///< postings entries in the CSR base
  std::size_t keys = 0;           ///< distinct key hashes in the base
  int bits_per_id = 1;            ///< packed id width
  std::size_t overflow_entries = 0;  ///< entries awaiting compaction
  std::size_t long_strings = 0;   ///< always-candidate escape hatch size
  std::size_t compactions = 0;    ///< overflow folds into the base
};

class BlockIndexGenerator {
 public:
  explicit BlockIndexGenerator(int k);
  /// Bulk build: key generation and the CSR build both fan across
  /// `threads`; the index is identical for every thread count.
  BlockIndexGenerator(int k, std::span<const std::string> values,
                      std::size_t threads = 1);

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

  /// Appends one candidate string; ids are assigned in append order.
  void append(std::string_view value);
  /// Bulk append: parallel key generation, then one parallel CSR build
  /// over the new entries plus the existing base and overflow tiers.
  void append(std::span<const std::string> values, std::size_t threads = 1);

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

  /// Folds the overflow tier into the CSR base (also runs automatically
  /// when the overflow outgrows a fraction of the base).
  void compact();

  [[nodiscard]] BlockIndexStats stats() const noexcept;
  /// The frozen CSR base (excludes the overflow tier and long strings).
  [[nodiscard]] const PackedPostings& postings() const noexcept {
    return base_;
  }

 private:
  void insert_keys(std::span<const std::uint64_t> keys, std::uint32_t id);
  void maybe_compact();
  /// Rebuilds the base from `runs` plus the current base and overflow
  /// entries, and empties the overflow tier.
  void rebuild(std::vector<std::vector<PostingEntry>> runs,
               std::size_t threads);

  int k_ = 1;
  std::size_t size_ = 0;
  PackedPostings base_;
  /// Incremental tier: key hash -> ids appended since the last compact.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> overflow_;
  std::size_t overflow_entries_ = 0;
  /// Ids of strings too long to enumerate deletion variants for; they are
  /// unconditional candidates (sound and cheap — such strings are rare).
  std::vector<std::uint32_t> long_ids_;
  std::size_t compactions_ = 0;
};

}  // namespace fbf::core
