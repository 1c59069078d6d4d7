// The approximate string-similarity join (paper Algorithm 7,
// MatchStrings) generalized over the full method ladder.
//
// Evaluates every pair (s, t) in S x T with the configured method, keeping
// per-stage counters so the benches can reproduce the paper's "the filter
// removed 12,369,182 unnecessary comparisons" accounting.  Signature
// generation is timed separately (the Gen row) and fans across the thread
// pool.  The pair space is walked in 2D cache tiles (kTileRows x
// kTileCols); tiles — not rows of S — are the parallel work unit, so a
// 2 x 1,000,000 probe join still spreads across every thread.  For FBF
// methods on layouts the packed SoA store supports (numeric, alpha l<=2,
// alphanumeric l<=2) the filter runs as a batched tile kernel over packed
// 64-bit signature planes (core/fbf_kernel.hpp) with survivors drained
// into verification from a bitmap; wider alpha layouts transparently fall
// back to the classic per-pair scan.  The layout alone picks the path,
// and both produce the counters and match set of the per-pair ladder
// (property-tested).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_policy.hpp"
#include "core/method.hpp"
#include "core/signature.hpp"

namespace fbf::core {

/// Join configuration.  Defaults reproduce the paper's headline setup:
/// FPDL at k = 1 on alphabetic strings with the 2-word signature.
struct JoinConfig {
  Method method = Method::kFpdl;
  int k = 1;                     ///< edit-distance threshold
  double sim_threshold = 0.8;    ///< Jaro / Jaro–Winkler acceptance
  FieldClass field_class = FieldClass::kAlpha;
  int alpha_words = kDefaultAlphaWords;
  std::size_t threads = 1;
  bool collect_matches = false;  ///< record matching (i, j) pairs
  /// Candidate generation strategy for FBF methods (DESIGN.md §14).
  /// kBlockIndex builds a pigeonhole block / deletion-neighborhood index
  /// over the right side and probes it per left row instead of sweeping
  /// tiles — sub-quadratic when matches are sparse.  It engages only
  /// where provably sound (a real verifier runs and
  /// BlockIndexGenerator::supported(k)); otherwise the join silently
  /// runs dense.  FBF_FORCE_GENERATOR overrides the request the same way
  /// FBF_FORCE_KERNEL picks the filter kernel.  Match sets are
  /// generator-independent by contract (property-tested).
  GeneratorKind generator = GeneratorKind::kDense;
};

/// Tile shape of the 2D pair-space walk (rows of S x columns of T).
inline constexpr std::size_t kTileRows = 256;
inline constexpr std::size_t kTileCols = 256;

/// Number of parallel work units (tiles) a join over n_left x n_right
/// strings schedules.  Exposed so tests can assert the scheduler never
/// degenerates below the thread count for skewed shapes (|S| << |T|).
[[nodiscard]] constexpr std::size_t join_tile_count(
    std::size_t n_left, std::size_t n_right) noexcept {
  const std::size_t row_tiles = (n_left + kTileRows - 1) / kTileRows;
  const std::size_t col_tiles = (n_right + kTileCols - 1) / kTileCols;
  return row_tiles * col_tiles;
}

/// Per-stage counters and timings for one join.
struct JoinStats {
  std::uint64_t pairs = 0;             ///< |S| * |T|
  /// Pairs the generate stage admitted into the cascade: |S| * |T| for
  /// the dense sweep, the sum of per-query candidate-list lengths for an
  /// indexed generator.  Top rung of the counter ladder; its ratio to
  /// `pairs` is the generator's selectivity.
  std::uint64_t candidates_generated = 0;
  std::uint64_t length_pass = 0;       ///< survivors of the length filter
  std::uint64_t fbf_evaluated = 0;     ///< FindDiffBits invocations
  std::uint64_t fbf_pass = 0;          ///< survivors of the FBF filter
  std::uint64_t verify_calls = 0;      ///< DL / PDL invocations
  std::uint64_t matches = 0;           ///< pairs reported as matching
  std::uint64_t diagonal_matches = 0;  ///< matches with i == j (ground truth)
  double signature_gen_ms = 0.0;       ///< Gen row (0 when method needs none)
  double join_ms = 0.0;                ///< pair-evaluation wall time
  std::uint64_t tiles = 0;             ///< parallel work units scheduled
  const char* kernel = "pair-scalar";  ///< filter kernel variant used
  const char* generator = "dense";     ///< candidate generator that ran
  /// Matching (i, j) pairs when collect_matches is set.  Ordering
  /// guarantee: sorted ascending by (i, j) after the parallel merge, so
  /// the output is byte-identical for any thread count and tile shape.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> match_pairs;

  /// Accumulates counters (not timings / tiles / kernel) from another
  /// chunk's stats.
  void merge_counts(const JoinStats& other);

  /// Type 1 errors (false positives) under index-diagonal ground truth.
  [[nodiscard]] std::uint64_t type1() const noexcept {
    return matches - diagonal_matches;
  }
  /// Type 2 errors (false negatives) under index-diagonal ground truth,
  /// given the number of true pairs (= list length for paired datasets).
  [[nodiscard]] std::uint64_t type2(std::uint64_t true_pairs) const noexcept {
    return true_pairs - diagonal_matches;
  }
};

/// Runs the join.  S and T must outlive the call.  When the method uses
/// FBF, signatures for both lists are built first and their build time is
/// reported in signature_gen_ms; Soundex pre-encodes both lists the same
/// way (also charged to signature_gen_ms, since it is the analogous
/// precomputation).
[[nodiscard]] JoinStats match_strings(std::span<const std::string> left,
                                      std::span<const std::string> right,
                                      const JoinConfig& config);

}  // namespace fbf::core
