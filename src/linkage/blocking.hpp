// Candidate-pair generation: exhaustive and standard blocking.
//
// The paper's intro argues traditional blocking trades recall for speed
// (errors in the blocking key hide true matches) and positions FBF as a
// complement — "it may increase performance in systems that both block and
// use our filter".  These generators let the ablation bench measure that
// interaction: pairs lost by blocking vs pairs pruned (safely) by FBF.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "linkage/record.hpp"

namespace fbf::linkage {

using CandidatePair = std::pair<std::uint32_t, std::uint32_t>;
using BlockKeyFn = std::function<std::string(const PersonRecord&)>;

/// Blocking key: Soundex of the last name (the classic RL choice).
[[nodiscard]] std::string block_key_soundex_lastname(const PersonRecord& r);

/// Every (i, j) pair — the exhaustive baseline the paper's joins use.
[[nodiscard]] std::vector<CandidatePair> exhaustive_pairs(std::size_t n_left,
                                                          std::size_t n_right);

/// Standard blocking: candidates are pairs whose key values are equal.
/// Records with an empty key (missing field) form no candidates — exactly
/// the recall failure mode the paper warns about.
[[nodiscard]] std::vector<CandidatePair> standard_block_pairs(
    std::span<const PersonRecord> left, std::span<const PersonRecord> right,
    const BlockKeyFn& key);

}  // namespace fbf::linkage
