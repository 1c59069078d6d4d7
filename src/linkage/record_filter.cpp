#include "linkage/record_filter.hpp"

#include <cassert>

#include "metrics/damerau.hpp"
#include "metrics/pdl.hpp"
#include "metrics/soundex.hpp"

namespace fbf::linkage {

namespace {

namespace c = fbf::core;
namespace m = fbf::metrics;

[[nodiscard]] bool is_fbf_rule(FieldStrategy s) noexcept {
  return s == FieldStrategy::kFdl || s == FieldStrategy::kFpdl ||
         s == FieldStrategy::kFbfOnly;
}

[[nodiscard]] c::Verifier rule_verifier(FieldStrategy s) noexcept {
  switch (s) {
    case FieldStrategy::kFdl:
      return c::Verifier::kDl;
    case FieldStrategy::kFpdl:
      return c::Verifier::kPdl;
    default:
      return c::Verifier::kNone;  // kFbfOnly: survivors score directly
  }
}

}  // namespace

RecordFilterBank::RecordFilterBank(const ComparatorConfig& config,
                                   RecordFilterOptions options)
    : config_(config) {
  const bool want_block = c::select_generator(options.generator) ==
                          c::GeneratorKind::kBlockIndex;
  rules_.reserve(config_.rules.size());
  for (const FieldRule& rule : config_.rules) {
    RuleState state;
    state.rule = rule;
    if (is_fbf_rule(rule.strategy)) {
      c::PipelineConfig pcfg;
      pcfg.field_class = record_field_class(rule.field);
      pcfg.alpha_words = config_.alpha_words;
      pcfg.k = rule.k;
      pcfg.use_length = false;  // score_pair has no length stage
      pcfg.verifier = rule_verifier(rule.strategy);
      state.pipe.emplace(pcfg);
      // Soundness gate per rule: the block index covers { OSA <= k },
      // not the FBF pass-set, so kFbfOnly (survivors score directly)
      // must stay dense; so must unsupported k.
      if (want_block && pcfg.verifier != c::Verifier::kNone &&
          c::BlockIndexGenerator::supported(rule.k)) {
        state.gen.emplace(rule.k);
      }
    }
    rules_.push_back(std::move(state));
  }
}

void RecordFilterBank::append(const PersonRecord& r,
                              const RecordSignatures* sigs) {
  const std::size_t bit = size_ % 64;
  for (RuleState& state : rules_) {
    const std::string& value = r.field(state.rule.field);
    state.values.push_back(value);
    if (state.rule.strategy == FieldStrategy::kSoundex) {
      state.codes.push_back(m::soundex(value));
    }
    if (!state.pipe.has_value()) {
      continue;
    }
    if (state.gen.has_value()) {
      state.gen->append(state.values);
    }
    if (bit == 0) {
      state.nonempty.push_back(0);
    }
    state.nonempty.back() |=
        static_cast<std::uint64_t>(!value.empty()) << bit;
    assert(sigs != nullptr && "FBF rules need precomputed signatures");
    state.pipe->append_signature(
        sigs->sigs[static_cast<std::size_t>(state.rule.field)],
        static_cast<std::uint32_t>(value.size()));
  }
  ++size_;
}

bool RecordFilterBank::batched() const noexcept {
  for (const RuleState& state : rules_) {
    if (state.pipe.has_value() && state.pipe->batched()) {
      return true;
    }
  }
  return false;
}

const char* RecordFilterBank::kernel_name() const noexcept {
  for (const RuleState& state : rules_) {
    if (state.pipe.has_value()) {
      return state.pipe->kernel_name();
    }
  }
  return "pair-scalar";
}

void RecordFilterBank::score_all(const PersonRecord& incoming,
                                 const RecordSignatures* incoming_sigs,
                                 std::span<const PersonRecord> /*stored*/,
                                 std::size_t count, Scratch& scratch,
                                 CompareCounters& counters) const {
  assert(count <= size_);
  scratch.scores.assign(count, 0.0);
  if (count == 0) {
    return;
  }
  scratch.bitmap.resize(c::CandidatePipeline::bitmap_words(count));
  // Rules run in config order, so per-candidate weights accumulate in the
  // same order as score_pair (identical doubles, not just close ones).
  for (const RuleState& state : rules_) {
    const FieldRule& rule = state.rule;
    const std::string& va = incoming.field(rule.field);
    if (va.empty()) {
      continue;  // missing data awards no points either way
    }
    if (state.pipe.has_value()) {
      const c::CandidatePipeline& pipe = *state.pipe;
      const c::CandidatePipeline::Query q = pipe.make_query(
          incoming_sigs->sigs[static_cast<std::size_t>(rule.field)],
          static_cast<std::uint32_t>(va.size()));
      c::PipelineCounters pc;
      if (state.gen.has_value()) {
        // Indexed generation: probe the rule's block index, then apply
        // the same pre-cascade eligibility the dense sweep applies —
        // candidates past `count` (same-batch exclusion) or with the
        // stored field missing are dropped before any counter charges.
        scratch.ids.clear();
        state.gen->generate(va, scratch.ids);
        std::size_t kept = 0;
        for (const std::uint32_t j : scratch.ids) {
          if (j < count &&
              (state.nonempty[j / 64] >> (j % 64) & 1) != 0) {
            scratch.ids[kept++] = j;
          }
        }
        scratch.ids.resize(kept);
        scratch.survivors.clear();
        pipe.filter_ids(q, scratch.ids, scratch.survivors, pc);
        counters.candidates_generated += pc.candidates_generated;
        counters.field_comparisons += pc.fbf_evaluated;
        counters.fbf_evaluations += pc.fbf_evaluated;
        for (const std::uint32_t j : scratch.survivors) {
          if (pipe.verify(va, state.values[j], pc)) {
            scratch.scores[j] += rule.weight;
          }
        }
        counters.verify_calls += pc.verify_calls;
        continue;
      }
      pipe.filter(q, 0, count, state.nonempty.data(), scratch.bitmap.data(),
                  pc);
      // Every eligible (both-fields-present) lane is one field comparison
      // and one FBF evaluation, exactly like the scalar rule body.
      counters.candidates_generated += pc.candidates_generated;
      counters.field_comparisons += pc.fbf_evaluated;
      counters.fbf_evaluations += pc.fbf_evaluated;
      c::CandidatePipeline::for_each_survivor(
          scratch.bitmap.data(), count, [&](std::size_t j) {
            if (pipe.verify(va, state.values[j], pc)) {
              scratch.scores[j] += rule.weight;
            }
          });
      counters.verify_calls += pc.verify_calls;
      continue;
    }
    // Non-FBF rules: nothing to batch, per-pair evaluation over the
    // rule's contiguous value column.  soundex(va) is hoisted out of the
    // pair loop; the stored side's code is precomputed at append time —
    // soundex_match(a, b) is exactly "code(a) nonempty and equal".
    const std::string incoming_code =
        rule.strategy == FieldStrategy::kSoundex ? m::soundex(va)
                                                 : std::string{};
    for (std::size_t j = 0; j < count; ++j) {
      const std::string& vb = state.values[j];
      if (vb.empty()) {
        continue;
      }
      ++counters.field_comparisons;
      bool matched = false;
      switch (rule.strategy) {
        case FieldStrategy::kExact:
          matched = va == vb;
          break;
        case FieldStrategy::kDl:
          ++counters.verify_calls;
          matched = m::dl_within(va, vb, rule.k);
          break;
        case FieldStrategy::kPdl:
          ++counters.verify_calls;
          matched = m::pdl_within(va, vb, rule.k);
          break;
        case FieldStrategy::kSoundex:
          matched = !incoming_code.empty() && incoming_code == state.codes[j];
          break;
        default:
          break;  // FBF strategies handled above
      }
      if (matched) {
        scratch.scores[j] += rule.weight;
      }
    }
  }
}

}  // namespace fbf::linkage
