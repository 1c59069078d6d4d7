// Per-field-rule CandidatePipelines over a stored record list (DESIGN.md
// §9, §14).
//
// The point-and-threshold comparator runs one FBF filter per FBF-strategy
// field rule.  Scored record-at-a-time (score_pair) that is seven scalar
// filter calls per pair; scored store-at-a-time it is a handful of
// batched tile sweeps.  RecordFilterBank keeps, for every rule in a
// ComparatorConfig, the filter state needed to score one incoming record
// against the stored list through core::CandidatePipeline:
//
//   * FBF rules (FDL / FPDL / FBF) get a pipeline whose candidate side is
//     the stored records' field signatures (packed planes on supported
//     layouts, classic per-pair fallback for alpha l >= 3) plus a
//     stored-side non-empty bitmap — the comparator's "missing data
//     awards no points" rule becomes the pipeline's eligibility mask, so
//     skipped fields are charged to no counter, exactly like score_pair.
//   * Non-FBF rules (exact / DL / PDL / Soundex) have no filter to batch
//     and are evaluated per pair inside score_all.
//
// score_all runs one of two routes:
//
//   * Dense: every stored record in scope is scored.
//   * Weight cover (generator kBlockIndex): the bank indexes the cheapest
//     set of verifying FBF rules whose complement cannot reach
//     match_threshold on its own (cover_rules below).  A stored record
//     outside the union of those rules' block-index candidates matches no
//     cover rule, so its score is at most the unindexed weight, below the
//     threshold, and no decision can depend on it; score_all scores only
//     the union.
//
// Every scored record gets the same score as score_pair — rule weights
// added in config order, identical doubles — so match decisions are
// route-independent; on the dense route the field_comparisons /
// fbf_evaluations / verify_calls totals also equal a score_pair loop over
// the stored list (property-tested in tests/test_candidate_pipeline.cpp).
// The bank is append-only, like the EntityStore it serves; the engine
// builds one over a fixed right-hand list and shares it across shards.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/block_index.hpp"
#include "core/candidate_pipeline.hpp"
#include "core/exec_policy.hpp"
#include "linkage/comparator.hpp"
#include "linkage/record.hpp"

namespace fbf::linkage {

struct RecordFilterOptions {
  /// Candidate generation (DESIGN.md §14).  kBlockIndex engages the
  /// weight-cover route when the config has a cover (cover_rules); without
  /// one the bank runs dense.  Scores of every record that can reach the
  /// threshold, and so every match decision, are generator-independent by
  /// contract.  FBF_FORCE_GENERATOR overrides.
  fbf::core::GeneratorKind generator = fbf::core::GeneratorKind::kDense;
};

/// Indices (into config.rules) of the weight cover: verifying FBF rules
/// (FDL / FPDL) with positive weight and a k the block index supports,
/// taken heaviest first (config order on ties) until the positive weight
/// of the rules left out, summed in config order, is below
/// match_threshold.  nullopt when no such set exists (the bank then runs
/// dense).  Returned in config order.
[[nodiscard]] std::optional<std::vector<std::size_t>> cover_rules(
    const ComparatorConfig& config);

class RecordFilterBank {
 public:
  explicit RecordFilterBank(const ComparatorConfig& config,
                            RecordFilterOptions options = {});

  /// Appends stored records in order.  `sigs` is record-parallel and must
  /// be non-empty when the config has FBF rules (build_all_signatures);
  /// the bank packs per-rule field rows from them, and its planes are the
  /// only copy the caller keeps.  Each cover rule's block index is built
  /// once from its whole column when it is empty, and extended through
  /// its overflow tier otherwise; `threads` fans the index builds.
  void append(std::span<const PersonRecord> records,
              std::span<const RecordSignatures> sigs,
              std::size_t threads = 1);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when at least one FBF rule runs through the batched tile kernel.
  [[nodiscard]] bool batched() const noexcept;
  /// Kernel of the first FBF rule ("pair-scalar" when there are none).
  [[nodiscard]] const char* kernel_name() const noexcept;
  /// The route score_all runs: kBlockIndex on the weight cover, kDense
  /// otherwise.
  [[nodiscard]] fbf::core::GeneratorKind generator() const noexcept {
    return cover_ ? fbf::core::GeneratorKind::kBlockIndex
                  : fbf::core::GeneratorKind::kDense;
  }

  /// score_all's result (`ids`, `scores`) plus reusable per-thread
  /// buffers.
  struct Scratch {
    /// Scored stored ids, ascending: [0, count) on the dense route, the
    /// union of the cover rules' candidates on the cover route.
    std::vector<std::uint32_t> ids;
    /// scores[i] is the comparator score of (incoming, stored[ids[i]]).
    std::vector<double> scores;

    std::vector<std::vector<std::uint32_t>> generated;  ///< per cover rule
    std::vector<std::uint32_t> eligible;
  };

  /// Scores `incoming` against stored records [0, count) — `count` lets
  /// the EntityStore exclude same-batch records — into scratch.ids /
  /// scratch.scores.  Every stored record whose score can reach
  /// match_threshold is among the ids, with exactly score_pair's score.
  /// Counters accumulate for the rule evaluations that ran: on the dense
  /// route exactly as a score_pair loop would, on the cover route only
  /// for the scored ids (cover rules: their own eligible candidates).
  void score_all(const PersonRecord& incoming,
                 const RecordSignatures* incoming_sigs, std::size_t count,
                 Scratch& scratch, CompareCounters& counters) const;

 private:
  /// One comparator rule's filter state, in config order.  `pipe` is
  /// engaged for FBF-strategy rules only.  `values` is a columnar copy of
  /// the rule's stored field: score_all scans one contiguous column per
  /// rule instead of striding through whole PersonRecords (the AoS layout
  /// costs a cache line per pair, and the non-FBF rules dominate the
  /// scoring loop once FBF is batched).  `codes` caches Soundex codes for
  /// kSoundex rules so the per-pair match is one string compare.
  struct RuleState {
    FieldRule rule;
    std::optional<fbf::core::CandidatePipeline> pipe;
    /// Engaged for cover rules on the cover route.
    std::optional<fbf::core::BlockIndexGenerator> gen;
    std::vector<std::uint64_t> nonempty;  ///< stored-side field non-empty
    std::vector<std::string> values;      ///< stored-side field column
    std::vector<std::string> codes;       ///< Soundex codes (kSoundex only)
  };

  ComparatorConfig config_;
  std::vector<RuleState> rules_;
  /// Engaged on the cover route: the indexed rules, in config order.
  std::optional<std::vector<std::size_t>> cover_;
  std::size_t size_ = 0;
};

}  // namespace fbf::linkage
