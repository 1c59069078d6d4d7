#include "linkage/fellegi_sunter.hpp"

#include <algorithm>
#include <cmath>

#include "core/find_diff_bits.hpp"
#include "metrics/damerau.hpp"
#include "metrics/pdl.hpp"
#include "metrics/soundex.hpp"
#include "util/timer.hpp"

namespace fbf::linkage {

namespace {

constexpr double kProbFloor = 1e-4;  // keep m/u away from 0 and 1

double clamp_prob(double p) noexcept {
  return std::clamp(p, kProbFloor, 1.0 - kProbFloor);
}

/// Per-field agreement under the configured strategy.
bool fields_agree(const std::string& va, const std::string& vb,
                  const fbf::core::Signature* sig_a,
                  const fbf::core::Signature* sig_b,
                  const FsAgreementConfig& config) {
  switch (config.strategy) {
    case FieldStrategy::kExact:
      return va == vb;
    case FieldStrategy::kDl:
      return fbf::metrics::dl_within(va, vb, config.k);
    case FieldStrategy::kPdl:
      return fbf::metrics::pdl_within(va, vb, config.k);
    case FieldStrategy::kFdl:
    case FieldStrategy::kFpdl:
      if (sig_a != nullptr && sig_b != nullptr &&
          !fbf::core::fbf_pass(*sig_a, *sig_b, config.k)) {
        return false;
      }
      return config.strategy == FieldStrategy::kFdl
                 ? fbf::metrics::dl_within(va, vb, config.k)
                 : fbf::metrics::pdl_within(va, vb, config.k);
    case FieldStrategy::kFbfOnly:
      return sig_a == nullptr || sig_b == nullptr ||
             fbf::core::fbf_pass(*sig_a, *sig_b, config.k);
    case FieldStrategy::kSoundex:
      return fbf::metrics::soundex_match(va, vb);
  }
  return false;
}

bool strategy_uses_signatures(FieldStrategy strategy) noexcept {
  switch (strategy) {
    case FieldStrategy::kFdl:
    case FieldStrategy::kFpdl:
    case FieldStrategy::kFbfOnly:
      return true;
    default:
      return false;
  }
}

}  // namespace

double FsModel::weight(RecordField field, bool agree) const noexcept {
  const FsFieldParams& p = fields[static_cast<std::size_t>(field)];
  const double m = clamp_prob(p.m);
  const double u = clamp_prob(p.u);
  return agree ? std::log2(m / u) : std::log2((1.0 - m) / (1.0 - u));
}

const char* fs_decision_name(FsDecision decision) noexcept {
  switch (decision) {
    case FsDecision::kMatch: return "match";
    case FsDecision::kPossible: return "possible";
    case FsDecision::kNonMatch: return "non-match";
  }
  return "?";
}

FsAgreement fs_agreement(const PersonRecord& a, const PersonRecord& b,
                         const RecordSignatures* sa,
                         const RecordSignatures* sb,
                         const FsAgreementConfig& config) {
  FsAgreement out;
  for (const RecordField field : all_record_fields()) {
    const auto idx = static_cast<std::size_t>(field);
    const std::string& va = a.field(field);
    const std::string& vb = b.field(field);
    if (va.empty() || vb.empty()) {
      out.valid[idx] = false;
      out.agree[idx] = false;
      continue;
    }
    out.valid[idx] = true;
    if (field == RecordField::kGender) {
      // Single-character code: any edit-distance tolerance k >= 1 would
      // make every gender pair "agree" vacuously, so gender always
      // compares exactly (as in the deterministic comparator).
      out.agree[idx] = va == vb;
      continue;
    }
    const fbf::core::Signature* sig_a =
        sa != nullptr ? &sa->sigs[idx] : nullptr;
    const fbf::core::Signature* sig_b =
        sb != nullptr ? &sb->sigs[idx] : nullptr;
    out.agree[idx] = fields_agree(va, vb, sig_a, sig_b, config);
  }
  return out;
}

double fs_score(const FsAgreement& agreement, const FsModel& model) noexcept {
  double score = 0.0;
  for (const RecordField field : all_record_fields()) {
    const auto idx = static_cast<std::size_t>(field);
    if (!agreement.valid[idx]) {
      continue;
    }
    score += model.weight(field, agreement.agree[idx]);
  }
  return score;
}

FsDecision fs_classify(double score, const FsModel& model) noexcept {
  if (score >= model.upper_threshold) {
    return FsDecision::kMatch;
  }
  if (score < model.lower_threshold) {
    return FsDecision::kNonMatch;
  }
  return FsDecision::kPossible;
}

FsModel fs_estimate_em(std::span<const PersonRecord> left,
                       std::span<const PersonRecord> right,
                       std::span<const CandidatePair> pair_sample,
                       const FsEmOptions& options) {
  const bool use_sigs = strategy_uses_signatures(options.agreement.strategy);
  std::vector<RecordSignatures> sig_left;
  std::vector<RecordSignatures> sig_right;
  if (use_sigs) {
    sig_left.reserve(left.size());
    for (const auto& r : left) {
      sig_left.push_back(build_record_signatures(r));
    }
    sig_right.reserve(right.size());
    for (const auto& r : right) {
      sig_right.push_back(build_record_signatures(r));
    }
  }
  // Precompute agreement vectors once; EM iterates over them cheaply.
  std::vector<FsAgreement> gammas;
  gammas.reserve(pair_sample.size());
  for (const auto& [i, j] : pair_sample) {
    gammas.push_back(fs_agreement(left[i], right[j],
                                  use_sigs ? &sig_left[i] : nullptr,
                                  use_sigs ? &sig_right[j] : nullptr,
                                  options.agreement));
  }

  FsModel model;
  // Asymmetric init breaks the m/u symmetry so EM converges to the
  // intended labeling (m-component = matches).
  for (auto& field : model.fields) {
    field.m = 0.9;
    field.u = 0.1;
  }
  double prevalence = clamp_prob(options.initial_prevalence);

  std::vector<double> responsibility(gammas.size(), 0.0);
  for (int iter = 0; iter < options.iterations; ++iter) {
    // E step: P(match | gamma) for each sampled pair.
    for (std::size_t p = 0; p < gammas.size(); ++p) {
      double log_m = std::log(prevalence);
      double log_u = std::log(1.0 - prevalence);
      for (const RecordField field : all_record_fields()) {
        const auto idx = static_cast<std::size_t>(field);
        if (!gammas[p].valid[idx]) {
          continue;
        }
        const FsFieldParams& params = model.fields[idx];
        if (gammas[p].agree[idx]) {
          log_m += std::log(clamp_prob(params.m));
          log_u += std::log(clamp_prob(params.u));
        } else {
          log_m += std::log(1.0 - clamp_prob(params.m));
          log_u += std::log(1.0 - clamp_prob(params.u));
        }
      }
      const double max_log = std::max(log_m, log_u);
      const double pm = std::exp(log_m - max_log);
      const double pu = std::exp(log_u - max_log);
      responsibility[p] = pm / (pm + pu);
    }
    // M step: re-estimate prevalence and per-field m/u.
    double resp_total = 0.0;
    for (const double r : responsibility) {
      resp_total += r;
    }
    prevalence = clamp_prob(resp_total / static_cast<double>(gammas.size()));
    for (const RecordField field : all_record_fields()) {
      const auto idx = static_cast<std::size_t>(field);
      double m_num = 0.0;
      double m_den = 0.0;
      double u_num = 0.0;
      double u_den = 0.0;
      for (std::size_t p = 0; p < gammas.size(); ++p) {
        if (!gammas[p].valid[idx]) {
          continue;
        }
        const double r = responsibility[p];
        m_den += r;
        u_den += 1.0 - r;
        if (gammas[p].agree[idx]) {
          m_num += r;
          u_num += 1.0 - r;
        }
      }
      if (m_den > 0.0) {
        model.fields[idx].m = clamp_prob(m_num / m_den);
      }
      if (u_den > 0.0) {
        model.fields[idx].u = clamp_prob(u_num / u_den);
      }
    }
  }
  // Thresholds: expected all-agree score vs zero; midpoint heuristic.
  double full_agree = 0.0;
  for (const RecordField field : all_record_fields()) {
    full_agree += model.weight(field, true);
  }
  model.upper_threshold = full_agree / 2.0;
  model.lower_threshold = 0.0;
  return model;
}

FsLinkStats fs_link_exhaustive(std::span<const PersonRecord> left,
                               std::span<const PersonRecord> right,
                               const FsModel& model,
                               const FsAgreementConfig& config) {
  const bool use_sigs = strategy_uses_signatures(config.strategy);
  std::vector<RecordSignatures> sig_left;
  std::vector<RecordSignatures> sig_right;
  if (use_sigs) {
    sig_left.reserve(left.size());
    for (const auto& r : left) {
      sig_left.push_back(build_record_signatures(r));
    }
    sig_right.reserve(right.size());
    for (const auto& r : right) {
      sig_right.push_back(build_record_signatures(r));
    }
  }
  FsLinkStats stats;
  stats.pairs = static_cast<std::uint64_t>(left.size()) * right.size();
  const fbf::util::Stopwatch timer;
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (std::size_t j = 0; j < right.size(); ++j) {
      const FsAgreement gamma =
          fs_agreement(left[i], right[j], use_sigs ? &sig_left[i] : nullptr,
                       use_sigs ? &sig_right[j] : nullptr, config);
      const FsDecision decision = fs_classify(fs_score(gamma, model), model);
      switch (decision) {
        case FsDecision::kMatch:
          ++stats.matches;
          if (left[i].id == right[j].id) {
            ++stats.true_positives;
          } else {
            ++stats.false_positives;
          }
          break;
        case FsDecision::kPossible:
          ++stats.possibles;
          break;
        case FsDecision::kNonMatch:
          ++stats.non_matches;
          break;
      }
    }
  }
  stats.link_ms = timer.elapsed_ms();
  return stats;
}

}  // namespace fbf::linkage
