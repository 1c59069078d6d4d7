// Per-field-rule CandidatePipelines over a stored record list (DESIGN.md
// §9).
//
// The point-and-threshold comparator runs one FBF filter per FBF-strategy
// field rule.  Scored record-at-a-time (score_pair) that is seven scalar
// filter calls per pair; scored store-at-a-time it is a handful of
// batched tile sweeps.  RecordFilterBank keeps, for every rule in a
// ComparatorConfig, the filter state needed to score one incoming record
// against the whole stored list through core::CandidatePipeline:
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
// score_all produces, per candidate, the same score — rule weights added
// in config order — and the same field_comparisons / fbf_evaluations /
// verify_calls totals as looping score_pair over the stored list
// (property-tested in tests/test_candidate_pipeline.cpp).  The bank is
// append-only, like the EntityStore it serves; the engine builds one over
// a fixed right-hand list and shares it across shards.
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
  /// Candidate generation per FBF rule (DESIGN.md §14).  kBlockIndex
  /// gives each verifying FBF rule a pigeonhole block / deletion-
  /// neighborhood index over its stored field column, probed per incoming
  /// record instead of sweeping every stored row; rules where that is
  /// unsound (kFbfOnly scores survivors directly) or unsupported (k > 2)
  /// stay dense.  Scores and match decisions are generator-independent
  /// by contract.  FBF_FORCE_GENERATOR overrides.
  fbf::core::GeneratorKind generator = fbf::core::GeneratorKind::kDense;
};

class RecordFilterBank {
 public:
  explicit RecordFilterBank(const ComparatorConfig& config,
                            RecordFilterOptions options = {});

  /// Appends one stored record.  `sigs` must be non-null when the config
  /// has FBF rules (the caller already built them for its own bookkeeping;
  /// the bank packs per-rule field rows from them, no re-derivation).
  void append(const PersonRecord& r, const RecordSignatures* sigs);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when at least one FBF rule runs through the batched tile kernel.
  [[nodiscard]] bool batched() const noexcept;
  /// Kernel of the first FBF rule ("pair-scalar" when there are none).
  [[nodiscard]] const char* kernel_name() const noexcept;

  /// Reusable per-thread buffers for score_all (scores, survivor bitmap,
  /// and the indexed-generation id lists).
  struct Scratch {
    std::vector<double> scores;
    std::vector<std::uint64_t> bitmap;
    std::vector<std::uint32_t> ids;
    std::vector<std::uint32_t> survivors;
  };

  /// Scores `incoming` against stored records [0, count) — `stored` is the
  /// caller's record list, parallel to the appended order; `count` lets
  /// the EntityStore exclude same-batch records.  scratch.scores[j] gets
  /// the comparator score of (incoming, stored[j]); counters accumulate
  /// exactly as a score_pair loop would.
  void score_all(const PersonRecord& incoming,
                 const RecordSignatures* incoming_sigs,
                 std::span<const PersonRecord> stored, std::size_t count,
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
    /// Engaged when the bank's generator is kBlockIndex and the rule
    /// verifies (kFdl / kFpdl with supported k): score_all probes it and
    /// filters the generated ids instead of sweeping [0, count).
    std::optional<fbf::core::BlockIndexGenerator> gen;
    std::vector<std::uint64_t> nonempty;  ///< stored-side field non-empty
    std::vector<std::string> values;      ///< stored-side field column
    std::vector<std::string> codes;       ///< Soundex codes (kSoundex only)
  };

  ComparatorConfig config_;
  std::vector<RuleState> rules_;
  std::size_t size_ = 0;
};

}  // namespace fbf::linkage
