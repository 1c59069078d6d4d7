// The record-linkage engine: scores candidate record pairs with the
// point-and-threshold comparator and evaluates against id ground truth.
//
// Reproduces the paper's Table 6 experiment (1,000 clean vs 1,000
// error-injected records, exhaustive pair space, comparator strategy DL /
// PDL / FDL / FPDL / FBF) and extends it with blocked candidate
// generation and a parallel pair loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/exec_policy.hpp"
#include "linkage/blocking.hpp"
#include "linkage/comparator.hpp"
#include "linkage/record.hpp"
#include "linkage/record_filter.hpp"

namespace fbf::linkage {

struct LinkConfig {
  ComparatorConfig comparator;
  /// How the linkage executes (threads, candidate generator).  Exhaustive
  /// linkage always scores through the per-rule filter bank;
  /// candidate-pair-list linkage is per-pair score_pair (there is no
  /// contiguous candidate range to sweep) and doubles as the reference
  /// the equivalence tests compare the bank against.
  core::ExecPolicy exec;
  bool collect_matches = false;
};

/// Precomputed right-hand-side linkage state: the per-rule filter bank
/// (the right side's field signatures live only in its packed planes).
/// Build once, link many — the cluster's shard link service builds one
/// context over the broadcast right list and links every partition
/// against it instead of re-deriving filter state per partition.  The
/// bank inherits `exec.generator`, so kBlockIndex contexts index the
/// comparator's weight cover at build time (RecordFilterBank; probed per
/// incoming record at link time).  `right` must outlive the context
/// (records are referenced, not copied).
class LinkageContext {
 public:
  LinkageContext(std::span<const PersonRecord> right,
                 const ComparatorConfig& comparator,
                 const core::ExecPolicy& exec);

  [[nodiscard]] std::span<const PersonRecord> right() const noexcept {
    return right_;
  }
  [[nodiscard]] const RecordFilterBank& bank() const noexcept {
    return bank_;
  }
  /// Signature + bank build time (charged to the Gen row once, not per
  /// linkage call).
  [[nodiscard]] double gen_ms() const noexcept { return gen_ms_; }

 private:
  std::span<const PersonRecord> right_;
  RecordFilterBank bank_;
  double gen_ms_ = 0.0;
};

/// Confusion counts + stage counters + timings for one linkage run.
struct LinkStats {
  std::uint64_t candidate_pairs = 0;
  std::uint64_t matches = 0;
  std::uint64_t true_positives = 0;   ///< matched pairs with equal ids
  std::uint64_t false_positives = 0;  ///< matched pairs with different ids
  CompareCounters counters;
  double signature_gen_ms = 0.0;
  double link_ms = 0.0;
  std::vector<CandidatePair> match_pairs;

  /// False negatives given the number of true pairs in the candidate
  /// universe (for paired clean/error lists, the list length).
  [[nodiscard]] std::uint64_t false_negatives(
      std::uint64_t true_pairs) const noexcept {
    return true_pairs - true_positives;
  }
};

/// Links over an explicit candidate-pair list (from exhaustive_pairs or a
/// blocking generator).
[[nodiscard]] LinkStats link_candidates(std::span<const PersonRecord> left,
                                        std::span<const PersonRecord> right,
                                        std::span<const CandidatePair> pairs,
                                        const LinkConfig& config);

/// Convenience: exhaustive S x T linkage without materializing the pair
/// list (the paper's Table 6 setting).
[[nodiscard]] LinkStats link_exhaustive(std::span<const PersonRecord> left,
                                        std::span<const PersonRecord> right,
                                        const LinkConfig& config);

/// Exhaustive linkage against a prebuilt right-hand context.  The
/// context's gen time is NOT added to the returned signature_gen_ms (the
/// caller amortizes it across calls); left-side generation is.
[[nodiscard]] LinkStats link_exhaustive(std::span<const PersonRecord> left,
                                        const LinkageContext& right_ctx,
                                        const LinkConfig& config);

}  // namespace fbf::linkage
