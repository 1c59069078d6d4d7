// Umbrella header for the Fast Bitwise Filter core library.
//
//   #include "core/fbf.hpp"
//
// pulls in signatures, the filter, the method ladder and the join engine.
// See DESIGN.md §3 for the module map and README.md for a quickstart.
#pragma once

#include "core/find_diff_bits.hpp"  // IWYU pragma: export
#include "core/match_join.hpp"      // IWYU pragma: export
#include "core/method.hpp"          // IWYU pragma: export
#include "core/signature.hpp"       // IWYU pragma: export
