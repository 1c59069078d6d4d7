// Batched FindDiffBits: Q query signatures vs a tile of candidates
// (DESIGN.md §8 and §13).
//
// The per-pair filter (core/find_diff_bits.hpp) pays a call, a strategy
// dispatch and a word-count loop per candidate.  Over the packed SoA
// planes (core/packed_signature_store.hpp) the same predicate is one XOR
// + popcount per 64-bit plane word with sequential loads, so a whole tile
// of candidates is filtered in one sweep that the compiler — or the
// vector paths below — can keep entirely in registers.  The kernels emit
// survivor *bitmaps* (bit j set iff candidate j passes) so the caller
// drains survivors into verification in batches instead of branching per
// pair.
//
// One entry point, filter_block: Q queries register-blocked against the
// same tile.  Each packed plane word is loaded ONCE per Q queries instead
// of once per query, so at Q = 8 the kernel does 1/8th of the plane
// traffic of eight one-query sweeps.  Queries are processed in
// register-resident chunks of kMaxBlockQueries; arbitrary Q is accepted.
//
// Plane pruning (two-plane layouts): the kernels evaluate plane 0 first
// and skip the plane-1 load for candidate groups in which every lane is
// already decided.  A lane is decided when its plane-0 partial diff d0
// either exceeds `threshold` (plane diffs are non-negative, so the total
// can only grow — early reject needs no bound) or satisfies
// d0 + tail_bound <= threshold, where `tail_bound` is the layout's
// maximum possible plane-1 contribution
// (PackedSignatureStore::max_tail_popcount) — early accept.  Pruning
// never changes the emitted bitmaps (property-tested against a
// brute-force reference); it only skips loads, so it is always on.
//
// Implementations, selected by runtime CPU dispatch (best_kernel) or
// forced via the FBF_FORCE_KERNEL environment variable ("scalar64",
// "avx2", "avx512", "neon"; unsupported values fall back with a warning):
//   kScalar64 — portable u64 baseline (std::popcount per lane);
//   kAvx2     — 4 candidates per vector; per-lane popcount via the
//               VPSHUFB nibble-LUT + VPSADBW horizontal sum;
//   kAvx512   — 8 candidates per vector; native VPOPCNTQ when the CPU has
//               AVX-512 VPOPCNTDQ, otherwise the VPSHUFB LUT widened to
//               512 bits; survivor masks come straight from
//               VPCMPGTQ's __mmask8;
//   kNeon     — 2 candidates per vector via CNT + pairwise adds
//               (aarch64 builds only).
// Vector bodies are compiled with function-level target attributes, so
// default builds stay portable and each path is taken only when the
// running CPU supports it (see FBF_NATIVE in CMake for whole-tree
// -march=native instead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace fbf::core {

/// Batched-kernel implementation selector.
enum class KernelKind {
  kScalar64,  ///< portable u64 loop
  kAvx2,      ///< 4-lane AVX2 VPSHUFB popcount
  kAvx512,    ///< 8-lane AVX-512 (VPOPCNTQ or VPSHUFB)
  kNeon,      ///< 2-lane NEON CNT (aarch64)
};

/// Queries per register-resident chunk inside filter_block.  Callers may
/// pass any Q; this is the natural block size to feed it (and the block
/// width match_join uses for its row sweeps).
inline constexpr std::size_t kMaxBlockQueries = 8;

/// Short kernel name ("scalar64", "avx2", "avx512", "neon").  The single
/// kind→name table: benches, tests and the FBF_FORCE_KERNEL parser all
/// go through this pair of functions so a new kind cannot go stale in
/// one consumer.
[[nodiscard]] const char* kernel_name(KernelKind kind) noexcept;

/// Pipeline-facing label for a batched kernel ("tile-scalar64",
/// "tile-avx2", "tile-avx512", "tile-neon") — the strings
/// CandidatePipeline::kernel_name() and the join benches report.
[[nodiscard]] const char* tile_kernel_label(KernelKind kind) noexcept;

/// Inverse of kernel_name (exact match); nullopt for unknown names.
[[nodiscard]] std::optional<KernelKind> kernel_from_name(
    std::string_view name) noexcept;

/// Every KernelKind, in dispatch-preference order (widest first).
[[nodiscard]] std::span<const KernelKind> all_kernel_kinds() noexcept;

/// True when the running CPU (and build target) can execute `kind`.
[[nodiscard]] bool kernel_supported(KernelKind kind) noexcept;

/// Best kernel the running CPU supports.  CPU feature detection is cached;
/// the FBF_FORCE_KERNEL environment variable is consulted on every call
/// (it is read at pipeline construction, not in the hot loop), so tests
/// can force a kind per-process.  Forcing an unsupported kind warns once
/// on stderr and falls back to the detected best.
[[nodiscard]] KernelKind best_kernel() noexcept;

/// Filters `count` candidates against `n_queries` queries in one sweep.
///
/// Candidate j's signature is p0[j] (and p1[j] when p1 != nullptr, the
/// two-plane alphanumeric layout); q0[i] (and q1[i]) hold query i's
/// packed plane words.  Bit j of query i's survivor bitmap, at
/// `bitmaps + i * bitmap_stride`, is set iff popcount(q0[i]^p0[j])
/// (+ popcount(q1[i]^p1[j])) <= `threshold` (the FBF pass predicate with
/// threshold = 2k).  Each bitmap is (count+63)/64 words, fully
/// overwritten; `bitmap_stride` must be at least that many words.  The
/// bitmaps are bit-identical for every kernel kind and any query order.
///
/// The planes must be readable up to `count` rounded up to a multiple of
/// 8 words (AlignedPlane zero-pads to a cache line, so tiles that end at
/// the store's tail satisfy this automatically).
///
/// `tail_bound` is the maximum popcount the plane-1 diff can contribute
/// for the candidate layout (PackedSignatureStore::max_tail_popcount());
/// pass 64 when unknown — it only gates the early-accept prune, never
/// correctness.
///
/// Returns the total number of survivors across all queries.
std::size_t filter_block(const std::uint64_t* q0, const std::uint64_t* q1,
                         std::size_t n_queries, const std::uint64_t* p0,
                         const std::uint64_t* p1, std::size_t count,
                         int threshold, int tail_bound,
                         std::uint64_t* bitmaps, std::size_t bitmap_stride,
                         KernelKind kind) noexcept;

}  // namespace fbf::core
