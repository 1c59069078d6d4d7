// The paper's experiment protocol (§5):
//
//  * two lists of n strings — a clean sample and an error copy with one
//    random single edit per entry, ground truth by index;
//  * every method joins the full n x n pair space;
//  * Type 1 = pairs reported matching that are not ground-truth pairs,
//    Type 2 = ground-truth pairs the method missed;
//  * each experiment runs `repeats` times; the fastest and slowest times
//    are discarded and the rest averaged ("ran each experiment 5 times,
//    discarding the fastest and slowest...").
#pragma once

#include <cstdint>
#include <vector>

#include "core/match_join.hpp"
#include "datagen/dataset.hpp"

namespace fbf::experiments {

/// Protocol knobs.  Defaults are scaled-down from the paper (n = 1,000 vs
/// 5,000) so the full bench suite completes quickly; pass --full to the
/// bench binaries for paper scale.
struct ExperimentConfig {
  std::size_t n = 1000;
  int k = 1;
  double sim_threshold = 0.8;  ///< Jaro/Wink (paper: 0.8; 0.75 for FN)
  int repeats = 5;
  bool trim_minmax = true;
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  int alpha_words = fbf::core::kDefaultAlphaWords;
  int edits = 1;  ///< injected edits per entry (paper: 1)
};

/// One method's measured row.
struct MethodResult {
  fbf::core::Method method;
  std::uint64_t type1 = 0;  ///< false positives
  std::uint64_t type2 = 0;  ///< false negatives
  double time_ms = 0.0;     ///< trimmed-mean pair-evaluation time
  double gen_ms = 0.0;      ///< trimmed-mean signature/code generation time
  fbf::core::JoinStats stats;  ///< counters from the last repeat
};

/// Builds the paired dataset for a field under `config`.
[[nodiscard]] fbf::datagen::PairedDataset build_dataset(
    fbf::datagen::FieldKind kind, const ExperimentConfig& config);

/// Runs one method over the dataset per the protocol.
[[nodiscard]] MethodResult run_method(
    const fbf::datagen::PairedDataset& dataset, fbf::core::Method method,
    const ExperimentConfig& config);

/// JoinConfig a method uses under this protocol for this field (exposed so
/// examples and tests can reuse the exact experiment wiring).
[[nodiscard]] fbf::core::JoinConfig make_join_config(
    fbf::datagen::FieldKind kind, fbf::core::Method method,
    const ExperimentConfig& config);

}  // namespace fbf::experiments
