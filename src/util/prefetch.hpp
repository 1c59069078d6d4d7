// Software prefetch: a read hint for a cache line the caller loads soon.
//
// The block-index probe is a chain of dependent loads (bucket -> key ->
// offset -> id word -> plane row -> string).  Issued one after another,
// each miss waits for the previous one; a group of probes that first
// hints every line of one stage, then reads them, keeps many misses in
// flight at once instead.
#pragma once

namespace fbf::util {

/// Hints that the cache line holding `p` will be read soon.  Only a hint:
/// it never faults and never changes results.  `p` must still be a valid
/// pointer value (into, or one past the end of, a live object).
inline void prefetch(const void* p) noexcept { __builtin_prefetch(p, 0, 3); }

}  // namespace fbf::util
