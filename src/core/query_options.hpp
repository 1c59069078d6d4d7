// QueryOptions: the one request-level knob bundle (DESIGN.md §15).
//
// QueryOptions folds the per-call knobs (method, k, field layout)
// together with the execution policy (`core::ExecPolicy`: threads,
// generator) into one value that the daemon's wire protocol, the
// in-process client and the batch entry points all speak, so a knob is
// added in one place and call sites cannot disagree about defaults.  The
// method implies the cascade shape (length filter / FBF / verifier) via
// the method.hpp helpers, so a QueryOptions fully determines a
// PipelineConfig.
#pragma once

#include "core/candidate_pipeline.hpp"
#include "core/exec_policy.hpp"
#include "core/method.hpp"
#include "core/signature.hpp"

namespace fbf::core {

struct QueryOptions {
  /// Filter/verify composition (paper ladder).  kFpdl — FBF filter, PDL
  /// verify — is the serving default: the strongest exact method the
  /// packed tile kernel accelerates.
  Method method = Method::kFpdl;
  /// Edit threshold; the FBF stage passes at <= 2k differing bits.
  int k = 1;
  FieldClass field_class = FieldClass::kAlpha;
  int alpha_words = kDefaultAlphaWords;
  /// How the operation runs (threads, generator).
  ExecPolicy exec;
};

/// The cascade configuration a QueryOptions implies.  Single source of
/// truth: every consumer that used to hand-assemble a PipelineConfig from
/// loose knobs routes through here, so method→verifier/length mapping can
/// never diverge between the daemon and the batch tools.
[[nodiscard]] inline PipelineConfig make_pipeline_config(
    const QueryOptions& options) noexcept {
  PipelineConfig cfg;
  cfg.field_class = options.field_class;
  cfg.alpha_words = options.alpha_words;
  cfg.k = options.k;
  cfg.use_length = method_uses_length(options.method);
  cfg.verifier = method_verifier(options.method);
  return cfg;
}

}  // namespace fbf::core
