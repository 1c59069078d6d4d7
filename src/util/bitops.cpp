#include "util/bitops.hpp"

#include <cassert>

namespace fbf::util {

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
      for (std::size_t i = 0; i < m.size(); ++i) {
        total += popcount_hw(m[i] ^ n[i]);
      }
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
