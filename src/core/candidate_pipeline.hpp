// CandidatePipeline: the one filter → verify cascade (DESIGN.md §9).
//
// The pipeline owns the candidate-side signature state (packed SoA
// planes where the layout supports them, classic per-row signatures where
// it does not) and runs the whole cascade — length filter, FBF filter,
// survivor drain, verifier, counter bookkeeping — behind two drivers:
//
//   sweep(...)  -> Q queries against candidate rows [begin, end), tile by
//                  tile through the register-blocked kernel (the dense
//                  route)
//   check(...)  -> Q queries against caller-generated ascending id lists
//                  (the block-index route): prefetch, gathered filter,
//                  verify
//
// Both call on_match(i, j) once per verified pair, in ascending j for
// each query i.  Generation stays with the callers — the string join
// (core/match_join), the serving corpus (core/corpus) and the record
// bank (linkage/record_filter) — and every one of them filters and
// verifies through these two loops only, so a change to the filter or
// the verifier lands in one place.  The candidate store is append-only
// and incremental: nightly batches extend the planes without repacking
// (amortized growth in PackedSignatureStore).
//
// Counter semantics (shared by batched and fallback paths, property-
// tested): candidates_generated counts pairs the generate stage put into
// the cascade (post-eligibility, pre-length — the dense sweep charges
// every eligible lane, an id list charges every generated id);
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
#include <type_traits>
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

  /// Filters candidates [begin, end) against many queries in one blocked
  /// sweep: in batched mode each packed plane word is loaded once per
  /// kMaxBlockQueries queries (core/fbf_kernel.hpp filter_block).  Bit
  /// (j - begin) of query i's bitmap, at `bitmaps + i * bitmap_stride`
  /// (stride >= bitmap_words(end - begin)), is set iff candidate j
  /// survives the cascade's filter stages; query i's ladder lands in
  /// counters[i] (counters.size() == queries.size()), byte-identical to
  /// filtering that query alone.  Returns the total survivor count.
  /// `begin` must be a multiple of 64 (tile origins and 0 both qualify)
  /// so bitmap lanes stay word-aligned.
  ///
  /// `eligible`, when non-null, is one candidate-side eligibility mask
  /// indexed like the bitmaps (bit j - begin), applied to every query:
  /// ineligible lanes are skipped *before* the FBF stage and charged to
  /// no counter — the comparator uses this for its missing-field rule,
  /// mirroring "skip the rule entirely" in the per-pair semantics.
  std::size_t filter_block(std::span<const Query> queries, std::size_t begin,
                           std::size_t end, const std::uint64_t* eligible,
                           std::uint64_t* bitmaps, std::size_t bitmap_stride,
                           std::span<PipelineCounters> counters) const;

  /// filter_block for one query.
  std::size_t filter(const Query& q, std::size_t begin, std::size_t end,
                     const std::uint64_t* eligible, std::uint64_t* bitmap,
                     PipelineCounters& counters) const;

  /// Filters an explicit candidate id list — the output of
  /// BlockIndexGenerator::generate — against `q`, appending surviving ids
  /// to `survivors` in ascending order and returning how many were
  /// appended.  In batched mode the candidates' packed plane words are
  /// gathered into aligned scratch and pushed through the same kernel as
  /// the tile sweep; fallback mode runs the per-pair predicate.  Ladder
  /// semantics match filter_block: every id charges candidates_generated,
  /// then the length filter (when configured) and FBF charge as usual —
  /// so dense-vs-indexed runs differ only in candidates_generated and in
  /// stages the skipped ids would have failed anyway.  `ids` must be
  /// sorted ascending, duplicate-free, and all < size().
  std::size_t filter_ids(const Query& q, std::span<const std::uint32_t> ids,
                         std::vector<std::uint32_t>& survivors,
                         PipelineCounters& counters) const;

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

  // -- the cascade drivers ----------------------------------------------

  /// Non-owning view of a `void(std::size_t i, std::uint32_t j)` callable:
  /// the drivers' match sink (query index i, candidate id j).  Never
  /// allocates; the callable must outlive the driver call, which a
  /// lambda passed in the call's argument list does.
  class OnMatch {
   public:
    template <typename Fn>
      requires(!std::is_same_v<std::remove_cvref_t<Fn>, OnMatch>)
    OnMatch(Fn&& fn) noexcept  // NOLINT(google-explicit-constructor)
        : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
          call_([](void* ctx, std::size_t i, std::uint32_t j) {
            (*static_cast<std::remove_reference_t<Fn>*>(ctx))(i, j);
          }) {}

    void operator()(std::size_t i, std::uint32_t j) const {
      call_(ctx_, i, j);
    }

   private:
    void* ctx_;
    void (*call_)(void*, std::size_t, std::uint32_t);
  };

  /// The dense route: runs queries[i] (text texts[i], ladder into
  /// counters[i]) against candidate rows [begin, end), whose strings are
  /// candidates[begin, end).  Queries go in register blocks of
  /// kMaxBlockQueries, the range in kSweepTile-wide tiles; each tile is
  /// one kernel pass (filter_block's stages) whose bitmaps drain into the
  /// verifier query by query.  `begin` and `eligible` are as for filter_block.  Calls
  /// on_match(i, j) for every verified pair, ascending in j per query.
  void sweep(std::span<const Query> queries,
             std::span<const std::string_view> texts,
             std::span<const std::string> candidates, std::size_t begin,
             std::size_t end, const std::uint64_t* eligible,
             std::span<PipelineCounters> counters, OnMatch on_match) const;

  /// The indexed route: runs queries[i] against the ascending,
  /// duplicate-free id list ids[i] (ladder as filter_ids).  First every
  /// list's plane rows and candidate strings are prefetched, so a probe
  /// group's misses overlap; then each query filters its gathered ids
  /// and verifies the survivors.  Calls on_match(i, j) for every verified
  /// pair, ascending in j per query.
  void check(std::span<const Query> queries,
             std::span<const std::string_view> texts,
             std::span<const std::string> candidates,
             std::span<const std::vector<std::uint32_t>> ids,
             std::span<PipelineCounters> counters, OnMatch on_match) const;

 private:
  /// Candidate-range width one sweep step filters (bitmap lanes per
  /// query), the join's tile width.
  static constexpr std::size_t kSweepTile = 256;
  /// Ids one gathered filter step takes (bitmap lanes of check and
  /// filter_ids).
  static constexpr std::size_t kGather = 256;

  /// filter_block's stages without the telemetry mirror and without
  /// charging fbf_pass, which the caller charges from the final bitmaps
  /// (the drivers while draining them).  Returns the survivors the stages
  /// counted themselves: in batched mode the kernel's raw count, which
  /// equals the final count only when no gate (eligibility, length) ran.
  std::size_t filter_rows(std::span<const Query> queries, std::size_t begin,
                          std::size_t end, const std::uint64_t* eligible,
                          std::uint64_t* bitmaps, std::size_t bitmap_stride,
                          std::span<PipelineCounters> counters) const;
  /// Filters ids (at most kGather) against `q`: bit l of `bitmap` is set
  /// iff ids[l] survives.  No telemetry mirror; fbf_pass as filter_rows.
  void filter_gathered(const Query& q, std::span<const std::uint32_t> ids,
                       std::uint64_t* bitmap,
                       PipelineCounters& counters) const;
  /// Runs the batched kernel for `queries` (at most kMaxBlockQueries)
  /// over `width` lanes of the given plane rows; returns the survivors.
  std::size_t run_kernel(std::span<const Query> queries,
                         const std::uint64_t* p0, const std::uint64_t* p1,
                         std::size_t width, std::uint64_t* bitmaps,
                         std::size_t bitmap_stride) const;
  /// Pre-FBF gates (eligibility, length) over one query's raw kernel
  /// bitmap of `width` lanes; `lengths[l]` is lane l's candidate length
  /// (read only when the length filter runs).
  void apply_pre_gates(std::uint32_t query_length,
                       const std::uint32_t* lengths, std::size_t width,
                       const std::uint64_t* eligible, std::uint64_t* bitmap,
                       PipelineCounters& counters) const;
  /// The per-pair fallback ladder over `width` lanes: lane l is candidate
  /// ids[l] when `ids` is non-null, else begin + l.  Returns the
  /// survivors; fbf_pass as filter_rows.
  std::size_t filter_per_pair(const Query& q, std::size_t begin,
                              const std::uint32_t* ids, std::size_t width,
                              const std::uint64_t* eligible,
                              std::uint64_t* bitmap,
                              PipelineCounters& counters) const;
  /// Hints the filter-stage rows of candidates `ids` into cache (packed
  /// plane words and lengths, or classic signatures).
  void prefetch(std::span<const std::uint32_t> ids) const noexcept;
  /// verify() without the telemetry increment (the drivers mirror the
  /// whole ladder once per call).
  [[nodiscard]] bool verify_pair(std::string_view a, std::string_view b,
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
