// Execution policy: the knobs that decide *how* a linkage-layer operation
// runs, not *what* it computes.
//
// ExecPolicy is embedded in every config that runs a scoring loop
// (LinkConfig, EntityStoreOptions, QueryOptions), so `config.exec.<knob>`
// is the only spelling.  Results are policy-independent by contract: any
// (threads, generator) combination produces identical decisions — the
// equivalence property tests pin that against the per-pair score_pair
// reference.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace fbf::core {

/// Candidate-generation strategy for the generate→filter→verify cascade
/// (DESIGN.md §14).  kDense is the reference: every stored row is a
/// candidate and the filter stage sweeps contiguous tiles.  kBlockIndex
/// probes a pigeonhole block / deletion-neighborhood inverted index
/// (core/block_index.hpp) so candidate generation is sub-quadratic; it
/// only engages where it is provably sound (a real verifier runs and
/// BlockIndexGenerator::supported(k) holds) and falls back to kDense
/// otherwise — decisions are generator-independent by contract.
enum class GeneratorKind {
  kDense,
  kBlockIndex,
};

struct ExecPolicy {
  /// Worker threads for the parallel portions; 1 = sequential.
  std::size_t threads = 1;
  /// Candidate generation strategy (overridable via FBF_FORCE_GENERATOR;
  /// see select_generator below).
  GeneratorKind generator = GeneratorKind::kDense;
};

/// Stable name for a generator kind ("dense", "block-index").
[[nodiscard]] const char* generator_name(GeneratorKind kind) noexcept;

/// Parses a generator name ("dense" / "block" / "block-index").
[[nodiscard]] std::optional<GeneratorKind> generator_from_name(
    std::string_view name) noexcept;

/// Resolves the generator a consumer should use: `requested` unless the
/// FBF_FORCE_GENERATOR environment variable names a valid kind, which
/// then wins (mirroring FBF_FORCE_KERNEL; unknown values warn once on
/// stderr and fall back to `requested`).  Consumers still apply their own
/// soundness gates after this — forcing "block" where block generation
/// would change decisions (no verifier runs, unsupported k) degrades to
/// dense, never to wrong answers.
[[nodiscard]] GeneratorKind select_generator(GeneratorKind requested) noexcept;

}  // namespace fbf::core
