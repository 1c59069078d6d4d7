#include "core/exec_policy.hpp"

#include <cstdio>
#include <cstdlib>

namespace fbf::core {

const char* generator_name(GeneratorKind kind) noexcept {
  switch (kind) {
    case GeneratorKind::kDense:
      return "dense";
    case GeneratorKind::kBlockIndex:
      return "block-index";
  }
  return "dense";
}

std::optional<GeneratorKind> generator_from_name(
    std::string_view name) noexcept {
  if (name == "dense") {
    return GeneratorKind::kDense;
  }
  if (name == "block" || name == "block-index") {
    return GeneratorKind::kBlockIndex;
  }
  return std::nullopt;
}

GeneratorKind select_generator(GeneratorKind requested) noexcept {
  if (const char* force = std::getenv("FBF_FORCE_GENERATOR");
      force != nullptr && *force != '\0') {
    if (const auto kind = generator_from_name(force)) {
      return *kind;
    }
    static const bool warned = [&force] {
      std::fprintf(stderr,
                   "fbf: FBF_FORCE_GENERATOR=%s is unknown (expected "
                   "\"dense\" or \"block\"); using the configured "
                   "generator\n",
                   force);
      return true;
    }();
    (void)warned;
  }
  return requested;
}

}  // namespace fbf::core
