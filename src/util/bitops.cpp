#include "util/bitops.hpp"

#include <cassert>

namespace fbf::util {

namespace {

/// The kHardware sum.  Baseline x86-64 has no POPCNT, so std::popcount
/// lowers to a libgcc call there; the target("popcnt") twin below
/// re-lowers this same body to the instruction, picked at run time.
[[gnu::always_inline]] inline int hw_diff_bits(
    std::span<const std::uint32_t> m,
    std::span<const std::uint32_t> n) noexcept {
  int total = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    total += popcount_hw(m[i] ^ n[i]);
  }
  return total;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("popcnt"))) int hw_diff_bits_popcnt(
    std::span<const std::uint32_t> m,
    std::span<const std::uint32_t> n) noexcept {
  return hw_diff_bits(m, n);
}

/// Kept out of line so xor_diff_bits itself holds no libgcc call.
[[gnu::noinline]] int hw_diff_bits_generic(
    std::span<const std::uint32_t> m,
    std::span<const std::uint32_t> n) noexcept {
  return hw_diff_bits(m, n);
}
#endif

}  // namespace

bool cpu_has_popcnt() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("popcnt") != 0;
  return has;
#else
  return false;
#endif
}

int xor_diff_bits(std::span<const std::uint32_t> m,
                  std::span<const std::uint32_t> n,
                  PopcountKind kind) noexcept {
  assert(m.size() == n.size());
  int total = 0;
  switch (kind) {
    case PopcountKind::kWegner:
      for (std::size_t i = 0; i < m.size(); ++i) {
        total += popcount_wegner(m[i] ^ n[i]);
      }
      break;
    case PopcountKind::kLut:
      for (std::size_t i = 0; i < m.size(); ++i) {
        total += popcount_lut(m[i] ^ n[i]);
      }
      break;
    case PopcountKind::kHardware:
#if defined(__x86_64__) || defined(__i386__)
      total = cpu_has_popcnt() ? hw_diff_bits_popcnt(m, n)
                               : hw_diff_bits_generic(m, n);
#else
      total = hw_diff_bits(m, n);
#endif
      break;
  }
  return total;
}

const char* popcount_kind_name(PopcountKind kind) noexcept {
  switch (kind) {
    case PopcountKind::kWegner: return "wegner";
    case PopcountKind::kHardware: return "hardware";
    case PopcountKind::kLut: return "lut";
  }
  return "?";
}

}  // namespace fbf::util
