// Deterministic point-and-threshold record comparator (paper §1, §6
// Table 6).
//
// Each field rule awards `weight` points when its matcher accepts the
// field pair; a record pair whose point total reaches the threshold is
// declared a match.  The per-field matcher is the experiment variable in
// Table 6: plain DL, PDL, FBF-filtered DL/PDL, or FBF alone — this is how
// the paper drops the department's nightly 40-hour DL-based linkage run to
// about an hour.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/signature.hpp"
#include "linkage/record.hpp"

namespace fbf::linkage {

/// Per-field matching strategies.
enum class FieldStrategy {
  kExact,    ///< byte equality
  kDl,       ///< DL distance <= k
  kPdl,      ///< banded DL <= k
  kFdl,      ///< FBF filter then DL
  kFpdl,     ///< FBF filter then PDL
  kFbfOnly,  ///< FBF filter alone
  kSoundex,  ///< Soundex code equality (legacy-system behaviour)
};

[[nodiscard]] const char* field_strategy_name(FieldStrategy s) noexcept;

/// One scoring rule.
struct FieldRule {
  RecordField field = RecordField::kLastName;
  FieldStrategy strategy = FieldStrategy::kDl;
  double weight = 1.0;
  int k = 1;  ///< edit threshold for the DL-family strategies
};

/// Full comparator configuration.
struct ComparatorConfig {
  std::vector<FieldRule> rules;
  double match_threshold = 4.0;
  /// Signature word count for alphabetic fields (paper l).  l <= 2 packs
  /// into the batched kernel's planes; l >= 3 exercises the per-pair
  /// fallback in every pipeline consumer.
  int alpha_words = fbf::core::kDefaultAlphaWords;
};

/// The default rule set modeled on the department's point-and-threshold
/// system: every string field compared with `strategy` (gender stays
/// exact), SSN weighted highest.  Weights sum to 9.0; the default
/// threshold 4.0 tolerates several missing/erroneous fields, like the
/// paper's data requires.
[[nodiscard]] ComparatorConfig make_point_threshold_config(
    FieldStrategy strategy, int k = 1);

/// Per-record precomputed FBF signatures, field-indexed.  Built once per
/// record list; empty fields get empty signatures that never pass.
struct RecordSignatures {
  std::array<fbf::core::Signature, kRecordFieldCount> sigs;
};

/// Signature field class used for each record field.
[[nodiscard]] fbf::core::FieldClass record_field_class(
    RecordField field) noexcept;

/// Counters accumulated while scoring record pairs.
struct CompareCounters {
  std::uint64_t field_comparisons = 0;
  /// Field pairs the generate stage admitted into an FBF rule's cascade.
  /// Equals fbf_evaluations under dense generation (every eligible pair
  /// enters and is evaluated); under an indexed generator both drop
  /// together to the candidate-list size, and the dense-vs-indexed gap in
  /// this counter is the index's saving.
  std::uint64_t candidates_generated = 0;
  std::uint64_t fbf_evaluations = 0;
  std::uint64_t verify_calls = 0;
};

/// Scores one record pair.  `sa` / `sb` may be nullptr when no rule uses
/// an FBF strategy.  Missing (empty) fields score zero points.
[[nodiscard]] double score_pair(const PersonRecord& a, const PersonRecord& b,
                                const RecordSignatures* sa,
                                const RecordSignatures* sb,
                                const ComparatorConfig& config,
                                CompareCounters& counters);

/// True when any rule in `config` needs precomputed signatures.
[[nodiscard]] bool config_uses_fbf(const ComparatorConfig& config) noexcept;

/// Builds signatures for all fields of one record.  `alpha_words` applies
/// to the alphabetic fields (pass the comparator's value so filter state
/// and signatures agree).
[[nodiscard]] RecordSignatures build_record_signatures(
    const PersonRecord& r,
    int alpha_words = fbf::core::kDefaultAlphaWords);

/// build_record_signatures over a record list under `config`'s
/// alpha_words, fanned across `threads` pool workers; empty when `config`
/// never consults FBF.  Signatures are derived state: callers pack them
/// into a RecordFilterBank (or score with them) and drop them.
[[nodiscard]] std::vector<RecordSignatures> build_all_signatures(
    std::span<const PersonRecord> records, const ComparatorConfig& config,
    std::size_t threads = 1);

}  // namespace fbf::linkage
