#include "linkage/record_filter.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

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

std::optional<std::vector<std::size_t>> cover_rules(
    const ComparatorConfig& config) {
  // Soundness gate per rule: the block index covers { OSA <= k }, not the
  // FBF pass-set, so kFbfOnly (survivors score directly) cannot be
  // indexed; neither can an unsupported k.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < config.rules.size(); ++i) {
    const FieldRule& rule = config.rules[i];
    if (rule_verifier(rule.strategy) != c::Verifier::kNone &&
        rule.weight > 0.0 && c::BlockIndexGenerator::supported(rule.k)) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return config.rules[a].weight > config.rules[b].weight;
                   });
  std::vector<bool> indexed(config.rules.size(), false);
  // Summed in config order, the order score_all adds weights in, so the
  // bound holds for the rounded doubles too: adding positive weights in a
  // fixed order is monotone, and negative weights only lower a score.
  const auto unindexed_weight = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < config.rules.size(); ++i) {
      if (!indexed[i] && config.rules[i].weight > 0.0) {
        sum += config.rules[i].weight;
      }
    }
    return sum;
  };
  std::size_t next = 0;
  while (!(unindexed_weight() < config.match_threshold)) {
    if (next == order.size()) {
      return std::nullopt;
    }
    indexed[order[next++]] = true;
  }
  std::vector<std::size_t> cover;
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    if (indexed[i]) {
      cover.push_back(i);
    }
  }
  return cover;
}

RecordFilterBank::RecordFilterBank(const ComparatorConfig& config,
                                   RecordFilterOptions options)
    : config_(config) {
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
    }
    rules_.push_back(std::move(state));
  }
  if (c::select_generator(options.generator) ==
      c::GeneratorKind::kBlockIndex) {
    cover_ = cover_rules(config_);
    if (cover_.has_value()) {
      for (const std::size_t r : *cover_) {
        rules_[r].gen.emplace(rules_[r].rule.k);
      }
    }
  }
}

void RecordFilterBank::append(std::span<const PersonRecord> records,
                              std::span<const RecordSignatures> sigs,
                              std::size_t threads) {
  if (records.empty()) {
    return;
  }
  const std::size_t first = size_;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PersonRecord& r = records[i];
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
      if (bit == 0) {
        state.nonempty.push_back(0);
      }
      state.nonempty.back() |=
          static_cast<std::uint64_t>(!value.empty()) << bit;
      assert(i < sigs.size() && "FBF rules need precomputed signatures");
      state.pipe->append_signature(
          sigs[i].sigs[static_cast<std::size_t>(state.rule.field)],
          static_cast<std::uint32_t>(value.size()));
    }
    ++size_;
  }
  for (RuleState& state : rules_) {
    if (!state.gen.has_value()) {
      continue;
    }
    if (first == 0) {
      state.gen.emplace(state.rule.k, state.values, threads);
    } else {
      state.gen->append(state.values, threads);
    }
  }
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
                                 std::size_t count, Scratch& scratch,
                                 CompareCounters& counters) const {
  assert(count <= size_);
  std::vector<std::uint32_t>& ids = scratch.ids;
  ids.clear();
  if (cover_.has_value()) {
    // Each cover rule's candidates, cut to the records the dense sweep
    // would evaluate — in scope (same-batch exclusion) and with the
    // stored field present — then their union is what gets scored.
    scratch.generated.resize(rules_.size());
    for (const std::size_t r : *cover_) {
      const RuleState& state = rules_[r];
      std::vector<std::uint32_t>& gen_ids = scratch.generated[r];
      gen_ids.clear();
      const std::string& va = incoming.field(state.rule.field);
      if (va.empty()) {
        continue;
      }
      state.gen->generate(va, gen_ids);
      std::erase_if(gen_ids, [&](std::uint32_t j) {
        return j >= count || (state.nonempty[j / 64] >> (j % 64) & 1) == 0;
      });
      ids.insert(ids.end(), gen_ids.begin(), gen_ids.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  } else {
    ids.resize(count);
    std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  }
  scratch.scores.assign(ids.size(), 0.0);
  if (ids.empty()) {
    return;
  }
  // Rules run in config order, so per-candidate weights accumulate in the
  // same order as score_pair (identical doubles, not just close ones).
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const RuleState& state = rules_[r];
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
      const std::string_view text = va;
      c::PipelineCounters pc;
      if (cover_.has_value()) {
        // A cover rule checks its own candidates; any other FBF rule
        // checks the scored ids whose stored field is present.
        const std::vector<std::uint32_t>* list = &scratch.generated[r];
        if (!state.gen.has_value()) {
          scratch.eligible.clear();
          for (const std::uint32_t j : ids) {
            if ((state.nonempty[j / 64] >> (j % 64) & 1) != 0) {
              scratch.eligible.push_back(j);
            }
          }
          list = &scratch.eligible;
        }
        // Matches ascend, as ids do: one forward walk finds each match's
        // position.
        std::size_t pos = 0;
        pipe.check({&q, 1}, {&text, 1}, state.values, {list, 1}, {&pc, 1},
                   [&](std::size_t, std::uint32_t j) {
                     while (ids[pos] < j) {
                       ++pos;
                     }
                     scratch.scores[pos] += rule.weight;
                   });
      } else {
        pipe.sweep({&q, 1}, {&text, 1}, state.values, 0, count,
                   state.nonempty.data(), {&pc, 1},
                   [&](std::size_t, std::uint32_t j) {
                     scratch.scores[j] += rule.weight;
                   });
      }
      // Every evaluated (both-fields-present) pair is one field
      // comparison and one FBF evaluation, exactly like the scalar rule
      // body.
      counters.candidates_generated += pc.candidates_generated;
      counters.field_comparisons += pc.fbf_evaluated;
      counters.fbf_evaluations += pc.fbf_evaluated;
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
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      const std::uint32_t j = ids[pos];
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
        scratch.scores[pos] += rule.weight;
      }
    }
  }
}

}  // namespace fbf::linkage
