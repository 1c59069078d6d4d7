// CandidatePipeline: the one filter → verify cascade (DESIGN.md §9).
//
// PR 2 built the batched tile kernel, but every consumer re-implemented
// the surrounding cascade — length filter, FBF filter, survivor drain,
// verifier dispatch, counter bookkeeping — as its own per-pair loop.
// Filter-and-verify engines win by making the cascade a *stage*, not a
// pattern: this class owns the candidate-side signature state (packed SoA
// planes where the layout supports them, classic per-row signatures where
// it does not) and exposes the cascade as three composable calls:
//
//   make_query / row_query  -> one query's signature + length
//   filter(...)             -> survivor bitmap over a candidate range
//                              (batched kernel or transparent per-pair
//                              fallback; exact ladder counter semantics)
//   verify(...)             -> pluggable DL / PDL / none verifier
//
// Consumers — the string join (core/match_join), the incremental
// EntityStore, the linkage engine + cluster replicas, and the signature
// index — all drain the same bitmaps with identical counters, so "which
// filter ran" is no longer a per-call-site question.  The candidate store
// is append-only and incremental: nightly batches extend the planes
// without repacking (amortized growth in PackedSignatureStore).
//
// Counter semantics (shared by batched and fallback paths, property-
// tested): candidates_generated counts pairs the generate stage put into
// the cascade (post-eligibility, pre-length — the dense sweep charges
// every eligible lane, filter_ids charges every generated id);
// length_pass counts pairs passing the length filter; fbf_evaluated is
// charged only for pairs that reached the FBF stage (ladder order:
// length — or an external eligibility mask — first); fbf_pass counts
// pairs surviving both; verify_calls counts verifier invocations.  The
// ladder is monotone: candidates_generated >= length input >=
// fbf_evaluated >= fbf_pass >= verify-driven work.  Both paths produce
// bit-identical survivor sets.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/fbf_kernel.hpp"
#include "core/find_diff_bits.hpp"
#include "core/method.hpp"
#include "core/packed_signature_store.hpp"
#include "core/signature.hpp"

namespace fbf::core {

/// Cascade configuration.  The layout (field_class, alpha_words) alone
/// picks the filter path: packed planes where PackedSignatureStore
/// supports it, the per-pair scan otherwise.
struct PipelineConfig {
  FieldClass field_class = FieldClass::kAlpha;
  int alpha_words = kDefaultAlphaWords;
  int k = 1;                 ///< edit threshold; FBF passes at <= 2k diff bits
  bool use_length = false;   ///< run the length filter before FBF
  Verifier verifier = Verifier::kPdl;
};

/// Per-stage counters, merged additively across tiles / chunks / shards.
struct PipelineCounters {
  std::uint64_t candidates_generated = 0;
  std::uint64_t length_pass = 0;
  std::uint64_t fbf_evaluated = 0;
  std::uint64_t fbf_pass = 0;
  std::uint64_t verify_calls = 0;

  void merge(const PipelineCounters& other) noexcept {
    candidates_generated += other.candidates_generated;
    length_pass += other.length_pass;
    fbf_evaluated += other.fbf_evaluated;
    fbf_pass += other.fbf_pass;
    verify_calls += other.verify_calls;
  }
};

class CandidatePipeline {
 public:
  explicit CandidatePipeline(const PipelineConfig& config);

  /// Convenience: construct + append in one go.
  CandidatePipeline(const PipelineConfig& config,
                    std::span<const std::string> candidates,
                    std::size_t threads = 1);

  // -- candidate side (append-only, incremental) ------------------------

  /// Appends a batch of candidate strings (signature generation fans
  /// across `threads`; time accrues to build_ms()).
  void append(std::span<const std::string> candidates,
              std::size_t threads = 1);
  /// Appends one candidate whose classic signature the caller already
  /// built (no re-derivation; packed rows are packed from it).
  void append_signature(const Signature& sig, std::uint32_t length);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when filtering runs through the batched tile kernel over packed
  /// planes; false = transparent per-pair fallback (alpha l >= 3).
  [[nodiscard]] bool batched() const noexcept { return batched_; }
  /// Filter kernel variant: tile_kernel_label(kind) in batched mode
  /// ("tile-scalar64", "tile-avx2", "tile-avx512", "tile-neon"), else
  /// "pair-scalar".
  [[nodiscard]] const char* kernel_name() const noexcept;
  /// Cumulative candidate-side signature build time (the Gen row).
  [[nodiscard]] double build_ms() const noexcept;
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  // -- query side -------------------------------------------------------

  /// One query's filter state.  Packed words are populated only in
  /// batched mode; the classic signature only in fallback mode.
  struct Query {
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    Signature sig;
    std::uint32_t length = 0;
  };

  /// Builds a query from a raw string (signature derived here).
  [[nodiscard]] Query make_query(std::string_view s) const;
  /// Builds a query from an already-built classic signature.
  [[nodiscard]] Query make_query(const Signature& sig,
                                 std::uint32_t length) const;
  /// Candidate row i viewed as a query (self-joins / S x T joins where
  /// both sides are pipelines).
  [[nodiscard]] Query row_query(std::size_t i) const;

  // -- filter stage -----------------------------------------------------

  /// Bitmap words needed for `lanes` candidates.
  [[nodiscard]] static constexpr std::size_t bitmap_words(
      std::size_t lanes) noexcept {
    return (lanes + 63) / 64;
  }

  /// Filters candidates [begin, end) against `q`.  Bit (j - begin) of
  /// `bitmap` is set iff candidate j survives the cascade's filter stages;
  /// returns the survivor count.  `begin` must be a multiple of 64 (tile
  /// origins and 0 both qualify) so bitmap lanes stay word-aligned.
  ///
  /// `eligible`, when non-null, is an external eligibility mask indexed
  /// like `bitmap` (bit j - begin): ineligible lanes are skipped *before*
  /// the FBF stage and charged to no counter — the comparator uses this
  /// for its missing-field rule, mirroring "skip the rule entirely" in
  /// the per-pair semantics.
  std::size_t filter(const Query& q, std::size_t begin, std::size_t end,
                     const std::uint64_t* eligible, std::uint64_t* bitmap,
                     PipelineCounters& counters) const;

  /// Filters candidates [begin, end) against many queries in one blocked
  /// sweep: in batched mode each packed plane word is loaded once per
  /// kMaxBlockQueries queries (core/fbf_kernel.hpp filter_block) instead
  /// of once per query.  Query i's bitmap lands at
  /// `bitmaps + i * bitmap_stride` (stride must be >= bitmap_words(end -
  /// begin)); `eligible`, when non-null, is one candidate-side mask
  /// applied to every query.  Bitmaps, counters and the returned total
  /// survivor count are byte-identical to queries.size() successive
  /// filter() calls — in per-pair fallback mode that is literally what
  /// runs.  Any query count is accepted.
  std::size_t filter_block(std::span<const Query> queries, std::size_t begin,
                           std::size_t end, const std::uint64_t* eligible,
                           std::uint64_t* bitmaps, std::size_t bitmap_stride,
                           PipelineCounters& counters) const;

  /// filter_block with *per-query* counter attribution: query i's ladder
  /// lands in counters[i] (must have counters.size() == queries.size()),
  /// and each counters[i] is byte-identical to what a lone filter() call
  /// for that query would have produced.  This is what lets a serving
  /// coalescer batch Q concurrent point queries through one plane sweep
  /// and still hand every client the exact counters its query would have
  /// earned running alone — batching stays invisible to the reply.
  std::size_t filter_block(std::span<const Query> queries, std::size_t begin,
                           std::size_t end, const std::uint64_t* eligible,
                           std::uint64_t* bitmaps, std::size_t bitmap_stride,
                           std::span<PipelineCounters> counters) const;

  /// Filters an explicit candidate id list — the output of
  /// BlockIndexGenerator::generate — against `q`, appending surviving ids
  /// to `survivors` in ascending order and returning how many were
  /// appended.
  /// In batched mode the candidates' packed plane words are gathered into
  /// aligned scratch and pushed through the same filter_block kernel as
  /// the tile sweep; fallback mode runs the per-pair predicate.  Ladder
  /// semantics match filter(): every id charges candidates_generated,
  /// then the length filter (when configured) and FBF charge as usual —
  /// so dense-vs-indexed runs differ only in candidates_generated and in
  /// stages the skipped ids would have failed anyway.  `ids` must be
  /// sorted ascending, duplicate-free, and all < size().
  std::size_t filter_ids(const Query& q, std::span<const std::uint32_t> ids,
                         std::vector<std::uint32_t>& survivors,
                         PipelineCounters& counters) const;

  /// Hints the filter-stage rows of candidates `ids` into cache (packed
  /// plane words and lengths, or classic signatures), so a later
  /// filter_ids over them finds its gathers in flight or done.  Changes
  /// no result and no counter.
  void prefetch(std::span<const std::uint32_t> ids) const noexcept;

  // -- verify stage -----------------------------------------------------

  /// Runs the configured verifier on one surviving pair, charging
  /// verify_calls.  Verifier::kNone accepts without charging (filter-only
  /// methods report survivors as matches).
  [[nodiscard]] bool verify(std::string_view a, std::string_view b,
                            PipelineCounters& counters) const;

  /// Drains a survivor bitmap in ascending lane order.
  template <typename Fn>
  static void for_each_survivor(const std::uint64_t* bitmap,
                                std::size_t lanes, Fn&& fn) {
    for (std::size_t w = 0; w < bitmap_words(lanes); ++w) {
      std::uint64_t bits = bitmap[w];
      while (bits != 0) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::size_t filter_batched(const Query& q, std::size_t begin,
                             std::size_t end, const std::uint64_t* eligible,
                             std::uint64_t* bitmap,
                             PipelineCounters& counters) const;
  std::size_t apply_pre_gates(std::uint32_t query_length, std::size_t begin,
                              std::size_t width, const std::uint64_t* eligible,
                              std::uint64_t* bitmap,
                              PipelineCounters& counters) const;
  std::size_t filter_per_pair(const Query& q, std::size_t begin,
                              std::size_t end, const std::uint64_t* eligible,
                              std::uint64_t* bitmap,
                              PipelineCounters& counters) const;

  PipelineConfig config_;
  bool batched_ = false;
  KernelKind kernel_ = KernelKind::kScalar64;
  std::size_t size_ = 0;
  // Batched mode: packed SoA planes.  Fallback mode: classic signatures +
  // flat lengths (same length-filter data shape as the packed store).
  PackedSignatureStore packed_;
  std::vector<Signature> classic_;
  std::vector<std::uint32_t> classic_lengths_;
  double classic_build_ms_ = 0.0;
};

}  // namespace fbf::core
