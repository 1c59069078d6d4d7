// Bit-counting primitives used by the Fast Bitwise Filter.
//
// The paper (Alg. 6, FindDiffBits) counts the ones in the XOR of two
// signature words with Wegner's 1960 sparse-ones loop ("the loop only
// executes as many times as there are ones").  Modern hardware provides a
// single-instruction population count; we expose both, plus a byte-lookup
// variant, so the micro-benchmarks can quantify the difference (the
// library's hot path defaults to the hardware count).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

namespace fbf::util {

/// Population count via Wegner's technique: clear the lowest set bit until
/// the word is zero.  O(popcount(x)) iterations — fast on the sparse XOR
/// vectors produced by short demographic strings (the paper's argument).
[[nodiscard]] constexpr int popcount_wegner(std::uint32_t x) noexcept {
  int count = 0;
  while (x != 0) {
    ++count;
    x &= x - 1;  // clears the lowest set bit
  }
  return count;
}

/// Population count delegated to std::popcount (POPCNT instruction where
/// available).  This is the default strategy for the filter hot path.
[[nodiscard]] constexpr int popcount_hw(std::uint32_t x) noexcept {
  return std::popcount(x);
}

namespace detail {
consteval std::array<std::uint8_t, 256> make_popcount_table() {
  std::array<std::uint8_t, 256> table{};
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint8_t>(std::popcount(static_cast<unsigned>(i)));
  }
  return table;
}
inline constexpr std::array<std::uint8_t, 256> kPopcountTable = make_popcount_table();
}  // namespace detail

/// Population count via a 256-entry byte lookup table (the other classic
/// pre-POPCNT technique; included as an ablation subject).
[[nodiscard]] constexpr int popcount_lut(std::uint32_t x) noexcept {
  return detail::kPopcountTable[x & 0xFFu] +
         detail::kPopcountTable[(x >> 8) & 0xFFu] +
         detail::kPopcountTable[(x >> 16) & 0xFFu] +
         detail::kPopcountTable[(x >> 24) & 0xFFu];
}

/// 64-bit variants of the same three techniques, used by the packed
/// signature planes (one u64 carries a whole alpha l<=2 signature).
[[nodiscard]] constexpr int popcount_wegner64(std::uint64_t x) noexcept {
  int count = 0;
  while (x != 0) {
    ++count;
    x &= x - 1;
  }
  return count;
}

[[nodiscard]] constexpr int popcount_hw64(std::uint64_t x) noexcept {
  return std::popcount(x);
}

[[nodiscard]] constexpr int popcount_lut64(std::uint64_t x) noexcept {
  int total = 0;
  for (int byte = 0; byte < 8; ++byte) {
    total += detail::kPopcountTable[(x >> (8 * byte)) & 0xFFu];
  }
  return total;
}

/// True when the CPU has the POPCNT instruction (always false off x86).
/// The library is built for baseline x86-64, where std::popcount lowers
/// to a libgcc call; hot loops keep a target("popcnt") twin and pick it
/// at run time with this.
[[nodiscard]] bool cpu_has_popcnt() noexcept;

/// Strategy selector for the population count used inside FindDiffBits.
enum class PopcountKind {
  kWegner,    ///< Alg. 6 as published (clear-lowest-bit loop)
  kHardware,  ///< std::popcount / POPCNT
  kLut,       ///< byte lookup table
};

/// Human-readable strategy name (bench/JSON output).
[[nodiscard]] const char* popcount_kind_name(PopcountKind kind) noexcept;

/// Dispatches one 32-bit population count according to `kind`.
[[nodiscard]] constexpr int popcount(std::uint32_t x, PopcountKind kind) noexcept {
  switch (kind) {
    case PopcountKind::kWegner: return popcount_wegner(x);
    case PopcountKind::kLut: return popcount_lut(x);
    case PopcountKind::kHardware:
      break;
  }
  return popcount_hw(x);
}

/// Number of differing bits between two equal-length word vectors,
/// i.e. sum_i popcount(m[i] ^ n[i]).  This is the paper's FindDiffBits
/// generalized over the popcount strategy.  Behaviour is undefined if the
/// spans differ in length (checked by assert in debug builds).
[[nodiscard]] int xor_diff_bits(std::span<const std::uint32_t> m,
                                std::span<const std::uint32_t> n,
                                PopcountKind kind = PopcountKind::kHardware) noexcept;

}  // namespace fbf::util
