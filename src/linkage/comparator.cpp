#include "linkage/comparator.hpp"

#include "core/find_diff_bits.hpp"
#include "metrics/damerau.hpp"
#include "metrics/pdl.hpp"
#include "metrics/soundex.hpp"
#include "util/thread_pool.hpp"

namespace fbf::linkage {

namespace {
namespace m = fbf::metrics;
namespace c = fbf::core;
}  // namespace

const char* field_strategy_name(FieldStrategy s) noexcept {
  switch (s) {
    case FieldStrategy::kExact: return "exact";
    case FieldStrategy::kDl: return "DL";
    case FieldStrategy::kPdl: return "PDL";
    case FieldStrategy::kFdl: return "FDL";
    case FieldStrategy::kFpdl: return "FPDL";
    case FieldStrategy::kFbfOnly: return "FBF";
    case FieldStrategy::kSoundex: return "SDX";
  }
  return "?";
}

ComparatorConfig make_point_threshold_config(FieldStrategy strategy, int k) {
  ComparatorConfig config;
  config.rules = {
      {RecordField::kFirstName, strategy, 1.0, k},
      {RecordField::kLastName, strategy, 1.5, k},
      {RecordField::kAddress, strategy, 1.0, k},
      {RecordField::kPhone, strategy, 1.0, k},
      {RecordField::kGender, FieldStrategy::kExact, 0.5, 0},
      {RecordField::kSsn, strategy, 2.5, k},
      {RecordField::kBirthDate, strategy, 1.5, k},
  };
  config.match_threshold = 4.0;
  return config;
}

fbf::core::FieldClass record_field_class(RecordField field) noexcept {
  switch (field) {
    case RecordField::kFirstName:
    case RecordField::kLastName:
    case RecordField::kGender:
      return c::FieldClass::kAlpha;
    case RecordField::kAddress:
      return c::FieldClass::kAlphanumeric;
    case RecordField::kPhone:
    case RecordField::kSsn:
    case RecordField::kBirthDate:
      return c::FieldClass::kNumeric;
  }
  return c::FieldClass::kAlpha;
}

bool config_uses_fbf(const ComparatorConfig& config) noexcept {
  for (const FieldRule& rule : config.rules) {
    switch (rule.strategy) {
      case FieldStrategy::kFdl:
      case FieldStrategy::kFpdl:
      case FieldStrategy::kFbfOnly:
        return true;
      default:
        break;
    }
  }
  return false;
}

RecordSignatures build_record_signatures(const PersonRecord& r,
                                         int alpha_words) {
  RecordSignatures out;
  for (const RecordField field : all_record_fields()) {
    out.sigs[static_cast<std::size_t>(field)] = c::make_signature(
        r.field(field), record_field_class(field), alpha_words);
  }
  return out;
}

std::vector<RecordSignatures> build_all_signatures(
    std::span<const PersonRecord> records, const ComparatorConfig& config,
    std::size_t threads) {
  std::vector<RecordSignatures> out;
  if (!config_uses_fbf(config)) {
    return out;
  }
  out.resize(records.size());
  fbf::util::parallel_chunks(
      records.size(), threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = build_record_signatures(records[i], config.alpha_words);
        }
      });
  return out;
}

double score_pair(const PersonRecord& a, const PersonRecord& b,
                  const RecordSignatures* sa, const RecordSignatures* sb,
                  const ComparatorConfig& config, CompareCounters& counters) {
  double score = 0.0;
  for (const FieldRule& rule : config.rules) {
    const std::string& va = a.field(rule.field);
    const std::string& vb = b.field(rule.field);
    if (va.empty() || vb.empty()) {
      continue;  // missing data awards no points either way
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
      case FieldStrategy::kFdl:
      case FieldStrategy::kFpdl:
      case FieldStrategy::kFbfOnly: {
        const auto idx = static_cast<std::size_t>(rule.field);
        ++counters.candidates_generated;
        ++counters.fbf_evaluations;
        if (!c::fbf_pass(sa->sigs[idx], sb->sigs[idx], rule.k)) {
          matched = false;
          break;
        }
        if (rule.strategy == FieldStrategy::kFbfOnly) {
          matched = true;
          break;
        }
        ++counters.verify_calls;
        matched = rule.strategy == FieldStrategy::kFdl
                      ? m::dl_within(va, vb, rule.k)
                      : m::pdl_within(va, vb, rule.k);
        break;
      }
      case FieldStrategy::kSoundex:
        matched = m::soundex_match(va, vb);
        break;
    }
    if (matched) {
      score += rule.weight;
    }
  }
  return score;
}

}  // namespace fbf::linkage
