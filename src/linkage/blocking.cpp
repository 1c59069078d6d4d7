#include "linkage/blocking.hpp"

#include <unordered_map>

#include "metrics/soundex.hpp"

namespace fbf::linkage {

std::string block_key_soundex_lastname(const PersonRecord& r) {
  return fbf::metrics::soundex(r.last_name);
}

std::vector<CandidatePair> exhaustive_pairs(std::size_t n_left,
                                            std::size_t n_right) {
  std::vector<CandidatePair> pairs;
  pairs.reserve(n_left * n_right);
  for (std::uint32_t i = 0; i < n_left; ++i) {
    for (std::uint32_t j = 0; j < n_right; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

std::vector<CandidatePair> standard_block_pairs(
    std::span<const PersonRecord> left, std::span<const PersonRecord> right,
    const BlockKeyFn& key) {
  std::unordered_map<std::string, std::vector<std::uint32_t>> right_blocks;
  for (std::uint32_t j = 0; j < right.size(); ++j) {
    std::string k = key(right[j]);
    if (!k.empty()) {
      right_blocks[std::move(k)].push_back(j);
    }
  }
  std::vector<CandidatePair> pairs;
  for (std::uint32_t i = 0; i < left.size(); ++i) {
    const std::string k = key(left[i]);
    if (k.empty()) {
      continue;
    }
    const auto it = right_blocks.find(k);
    if (it == right_blocks.end()) {
      continue;
    }
    for (const std::uint32_t j : it->second) {
      pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

}  // namespace fbf::linkage
