// Software prefetch: a hint for a cache line the caller reads or writes
// soon.
//
// The block-index probe is a chain of dependent loads (bucket -> tag
// line and id word -> plane row -> string), and the index build writes
// to scattered positions.  Issued one after another, each miss waits for
// the previous one; a group that first hints every line of one stage,
// then touches them, keeps many misses in flight at once instead.
#pragma once

namespace fbf::util {

/// Hints that the cache line holding `p` will be read soon.  Only a hint:
/// it never faults and never changes results.  `p` must still be a valid
/// pointer value (into, or one past the end of, a live object).
inline void prefetch(const void* p) noexcept { __builtin_prefetch(p, 0, 3); }

/// As prefetch, for a line the caller writes soon (fetched for
/// ownership, so the store does not wait for it).
inline void prefetch_write(const void* p) noexcept {
  __builtin_prefetch(p, 1, 3);
}

}  // namespace fbf::util
