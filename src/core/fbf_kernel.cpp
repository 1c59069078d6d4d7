#include "core/fbf_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/bitops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FBF_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define FBF_NEON 1
#endif

namespace fbf::core {

namespace {

// Every block body shares this shape: Q query words register-blocked
// against the candidate planes, one survivor bitmap per query.
// `accept_thr` = threshold - tail_bound: a lane whose plane-0 partial
// diff is <= accept_thr passes no matter what plane 1 adds (the diff can
// add at most tail_bound), and a lane whose partial diff is > threshold
// fails no matter what (plane diffs are non-negative) — so a candidate
// group in which every lane of every query is decided can skip the
// plane-1 load entirely.  Pruning never changes the bitmaps, only the
// loads, so every body always prunes.
using BlockFn = std::size_t (*)(const std::uint64_t*, const std::uint64_t*,
                                const std::uint64_t*, const std::uint64_t*,
                                std::size_t, int, int, std::uint64_t*,
                                std::size_t);

// Register-blocked single-plane sweep over one 64-lane word block for QH
// queries, lanes walked high to low so the survivor bit lands in place
// via acc = 2*acc + pass — no per-pair shift/or pair, GCC folds the
// doubling into an LEA.  Kept at QH <= 2 by the caller: each extra live
// accumulator chain costs registers, and two chains already saturate the
// ALUs between the popcounts.  The word block (<= 512 B) stays L1-warm
// across the Q/2 passes, so re-walking it per query pair is free.
template <std::size_t QH>
[[gnu::always_inline]] inline void scalar_one_plane_pass(
    const std::uint64_t* a0, const std::uint64_t* p0, std::size_t base,
    std::size_t lanes, int threshold, std::uint64_t* bits) {
  std::uint64_t acc[QH] = {};
  const auto uthr = static_cast<unsigned>(threshold);
  for (std::size_t g = lanes; g-- > 0;) {
    const std::uint64_t c0 = p0[base + g];
    for (std::size_t qi = 0; qi < QH; ++qi) {
      acc[qi] = acc[qi] + acc[qi] +
                static_cast<std::uint64_t>(
                    static_cast<unsigned>(std::popcount(a0[qi] ^ c0)) <= uthr);
    }
  }
  for (std::size_t qi = 0; qi < QH; ++qi) {
    bits[qi] = acc[qi];
  }
}

// The scalar body is shared between the portable entry points and (on
// x86) twins stamped with __attribute__((target("popcnt"))): without the
// target attribute GCC lowers std::popcount to a libgcc __popcountdi2
// CALL on baseline x86-64, which costs ~4x the whole filter predicate.
// always_inline lets the builtin re-lower per caller ISA.
template <std::size_t Q>
[[gnu::always_inline]] inline std::size_t scalar_block_body(
    const std::uint64_t* q0, const std::uint64_t* q1, const std::uint64_t* p0,
    const std::uint64_t* p1, std::size_t count, int threshold, int accept_thr,
    std::uint64_t* bitmaps, std::size_t stride) {
  std::uint64_t a0[Q];
  std::uint64_t a1[Q];
  for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
    a0[qi] = q0[qi];
    a1[qi] = q1 != nullptr ? q1[qi] : 0;
  }
  std::size_t survivors = 0;
  const std::size_t n_words = (count + 63) / 64;
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    std::uint64_t bits[Q] = {};
    if (p1 == nullptr) {
      if constexpr (Q == 1) {
        // The Q=1 body stays the plain per-lane loop — that IS the tile
        // kernel the block kernel is measured against.
        for (std::size_t g = 0; g < lanes; ++g) {
          bits[0] |= static_cast<std::uint64_t>(
                         std::popcount(a0[0] ^ p0[base + g]) <= threshold)
                     << g;
        }
      } else {
        std::size_t q = 0;
        for (; q + 2 <= static_cast<std::size_t>(Q); q += 2) {
          scalar_one_plane_pass<2>(a0 + q, p0, base, lanes, threshold,
                                   bits + q);
        }
        if constexpr (Q % 2 != 0) {
          scalar_one_plane_pass<1>(a0 + Q - 1, p0, base, lanes, threshold,
                                   bits + Q - 1);
        }
      }
    } else {
      for (std::size_t g = 0; g < lanes; ++g) {
        const std::uint64_t c0 = p0[base + g];
        std::uint64_t c1 = 0;
        bool loaded = false;
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
          const int d0 = std::popcount(a0[qi] ^ c0);
          if (d0 > threshold) {
            continue;  // plane 1 can only grow the diff
          }
          if (d0 <= accept_thr) {
            bits[qi] |= std::uint64_t{1} << g;  // plane 1 cannot fail it
            continue;
          }
          if (!loaded) {
            c1 = p1[base + g];
            loaded = true;
          }
          bits[qi] |= static_cast<std::uint64_t>(
                          d0 + std::popcount(a1[qi] ^ c1) <= threshold)
                      << g;
        }
      }
    }
    for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
      bitmaps[qi * stride + w] = bits[qi];
      survivors += static_cast<std::size_t>(std::popcount(bits[qi]));
    }
  }
  return survivors;
}

template <std::size_t Q>
std::size_t block_scalar(const std::uint64_t* q0, const std::uint64_t* q1,
                         const std::uint64_t* p0, const std::uint64_t* p1,
                         std::size_t count, int threshold, int accept_thr,
                         std::uint64_t* bitmaps, std::size_t stride) {
  return scalar_block_body<Q>(q0, q1, p0, p1, count, threshold, accept_thr,
                              bitmaps, stride);
}

#ifdef FBF_X86

/// scalar64 with the POPCNT instruction: same body, re-lowered under the
/// target attribute.  Selected at dispatch when the CPU has POPCNT
/// (every x86-64 since ~2008); the plain block_scalar stays the
/// anything-goes fallback.
template <std::size_t Q>
__attribute__((target("popcnt"))) std::size_t block_scalar_popcnt(
    const std::uint64_t* q0, const std::uint64_t* q1, const std::uint64_t* p0,
    const std::uint64_t* p1, std::size_t count, int threshold, int accept_thr,
    std::uint64_t* bitmaps, std::size_t stride) {
  return scalar_block_body<Q>(q0, q1, p0, p1, count, threshold, accept_thr,
                              bitmaps, stride);
}

/// Per-64-bit-lane popcount of four candidates: VPSHUFB nibble lookup,
/// byte sums gathered per lane with VPSADBW.
__attribute__((target("avx2"))) inline __m256i popcnt64x4(__m256i v) noexcept {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// 4-bit lane mask of diff <= limit (inverted VPCMPGTQ + MOVMSKPD).
__attribute__((target("avx2"))) inline unsigned le_mask4(
    __m256i diff, __m256i limit) noexcept {
  return ~static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_castsi256_pd(_mm256_cmpgt_epi64(diff, limit)))) &
         0xFu;
}

template <std::size_t Q>
__attribute__((target("avx2"))) std::size_t block_avx2(
    const std::uint64_t* q0, const std::uint64_t* q1, const std::uint64_t* p0,
    const std::uint64_t* p1, std::size_t count, int threshold, int accept_thr,
    std::uint64_t* bitmaps, std::size_t stride) {
  __m256i vq0[Q];
  __m256i vq1[Q];
  for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
    vq0[qi] = _mm256_set1_epi64x(static_cast<long long>(q0[qi]));
    vq1[qi] = _mm256_set1_epi64x(
        static_cast<long long>(q1 != nullptr ? q1[qi] : 0));
  }
  const __m256i vthresh = _mm256_set1_epi64x(threshold);
  const __m256i vaccept = _mm256_set1_epi64x(accept_thr);
  std::size_t survivors = 0;
  const std::size_t n_words = (count + 63) / 64;
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    std::uint64_t bits[Q] = {};
    // Groups of 4 candidates; the last group may read into the planes'
    // zero padding (see the header contract) and is masked below.
    for (std::size_t g = 0; g < lanes; g += 4) {
      const __m256i c0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p0 + base + g));
      if (p1 == nullptr) {
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
          const __m256i d = popcnt64x4(_mm256_xor_si256(c0, vq0[qi]));
          bits[qi] |= static_cast<std::uint64_t>(le_mask4(d, vthresh)) << g;
        }
        continue;
      }
      __m256i d0[Q];
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
        d0[qi] = popcnt64x4(_mm256_xor_si256(c0, vq0[qi]));
      }
      unsigned accept[Q];
      unsigned undecided = 0;
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
        accept[qi] = le_mask4(d0[qi], vaccept);
        undecided |= le_mask4(d0[qi], vthresh) & ~accept[qi];
      }
      if (undecided == 0) {
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
          bits[qi] |= static_cast<std::uint64_t>(accept[qi]) << g;
        }
        continue;  // plane-1 load skipped: every lane decided on plane 0
      }
      const __m256i c1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p1 + base + g));
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
        const __m256i d = _mm256_add_epi64(
            d0[qi], popcnt64x4(_mm256_xor_si256(c1, vq1[qi])));
        bits[qi] |= static_cast<std::uint64_t>(le_mask4(d, vthresh)) << g;
      }
    }
    for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
      std::uint64_t word = bits[qi];
      if (lanes < 64) {
        word &= (std::uint64_t{1} << lanes) - 1;
      }
      bitmaps[qi * stride + w] = word;
      survivors += static_cast<std::size_t>(std::popcount(word));
    }
  }
  return survivors;
}

/// Per-64-bit-lane popcount of eight candidates without AVX-512
/// VPOPCNTDQ: the AVX2 nibble LUT widened to 512 bits.
__attribute__((target("avx512f,avx512bw"))) inline __m512i popcnt64x8_shuf(
    __m512i v) noexcept {
  // Nibble-popcount LUT (bytes 0,1,1,2,... repeated), spelled as u64
  // lane constants: _mm512_broadcast_i32x4 goes through
  // _mm512_undefined_epi32 in libgcc's header, which trips
  // -Wmaybe-uninitialized under -Werror builds.
  const __m512i lookup =
      _mm512_set4_epi64(0x0403030203020201LL, 0x0302020102010100LL,
                        0x0403030203020201LL, 0x0302020102010100LL);
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
  const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lookup, lo),
                                         _mm512_shuffle_epi8(lookup, hi));
  return _mm512_sad_epu8(counts, _mm512_setzero_si512());
}

__attribute__((target("avx512f,avx512bw,avx512vpopcntdq"))) inline __m512i
popcnt64x8_native(__m512i v) noexcept {
  return _mm512_popcnt_epi64(v);
}

// The AVX-512 block body exists in two flavors that differ only in the
// popcount primitive (native VPOPCNTQ vs the VPSHUFB LUT).  Target
// attributes are per-function string literals, so the body cannot be a
// template over the popcount — it is stamped out via this macro instead
// of being duplicated by hand.  Survivor masks come straight from
// VPCMPGTQ's __mmask8; groups of 8 candidates per iteration.
#define FBF_AVX512_BLOCK_BODY(POPCNT64X8)                                     \
  __m512i vq0[Q];                                                             \
  __m512i vq1[Q];                                                             \
  for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {                                            \
    vq0[qi] = _mm512_set1_epi64(static_cast<long long>(q0[qi]));              \
    vq1[qi] = _mm512_set1_epi64(                                              \
        static_cast<long long>(q1 != nullptr ? q1[qi] : 0));                  \
  }                                                                           \
  const __m512i vthresh = _mm512_set1_epi64(threshold);                       \
  const __m512i vaccept = _mm512_set1_epi64(accept_thr);                      \
  std::size_t survivors = 0;                                                  \
  const std::size_t n_words = (count + 63) / 64;                              \
  for (std::size_t w = 0; w < n_words; ++w) {                                 \
    const std::size_t base = w * 64;                                          \
    const std::size_t lanes = std::min<std::size_t>(64, count - base);        \
    std::uint64_t bits[Q] = {};                                               \
    for (std::size_t g = 0; g < lanes; g += 8) {                              \
      const __m512i c0 = _mm512_loadu_si512(p0 + base + g);                   \
      if (p1 == nullptr) {                                                    \
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {                                      \
          const __m512i d = POPCNT64X8(_mm512_xor_si512(c0, vq0[qi]));        \
          const std::uint64_t pass =                                          \
              static_cast<std::uint8_t>(                                      \
                  ~_mm512_cmpgt_epi64_mask(d, vthresh));                      \
          bits[qi] |= pass << g;                                              \
        }                                                                     \
        continue;                                                             \
      }                                                                       \
      __m512i d0[Q];                                                          \
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {                                        \
        d0[qi] = POPCNT64X8(_mm512_xor_si512(c0, vq0[qi]));                   \
      }                                                                       \
      std::uint8_t accept[Q];                                                 \
      std::uint8_t undecided = 0;                                             \
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {      \
        accept[qi] = static_cast<std::uint8_t>(                               \
            ~_mm512_cmpgt_epi64_mask(d0[qi], vaccept));                       \
        undecided = static_cast<std::uint8_t>(                                \
            undecided |                                                       \
            (static_cast<std::uint8_t>(                                       \
                 ~_mm512_cmpgt_epi64_mask(d0[qi], vthresh)) &                 \
             static_cast<std::uint8_t>(~accept[qi])));                        \
      }                                                                       \
      if (undecided == 0) {                                                   \
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {    \
          bits[qi] |= static_cast<std::uint64_t>(accept[qi]) << g;            \
        }                                                                     \
        continue; /* plane-1 load skipped: all lanes decided */               \
      }                                                                       \
      const __m512i c1 = _mm512_loadu_si512(p1 + base + g);                   \
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {                                        \
        const __m512i d = _mm512_add_epi64(                                   \
            d0[qi], POPCNT64X8(_mm512_xor_si512(c1, vq1[qi])));               \
        const std::uint64_t pass = static_cast<std::uint8_t>(                 \
            ~_mm512_cmpgt_epi64_mask(d, vthresh));                            \
        bits[qi] |= pass << g;                                                \
      }                                                                       \
    }                                                                         \
    for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {                                          \
      std::uint64_t word = bits[qi];                                          \
      if (lanes < 64) {                                                       \
        word &= (std::uint64_t{1} << lanes) - 1;                              \
      }                                                                       \
      bitmaps[qi * stride + w] = word;              \
      survivors += static_cast<std::size_t>(std::popcount(word));             \
    }                                                                         \
  }                                                                           \
  return survivors;

template <std::size_t Q>
__attribute__((target("avx512f,avx512bw,avx512vpopcntdq"))) std::size_t
block_avx512_native(const std::uint64_t* q0, const std::uint64_t* q1,
                    const std::uint64_t* p0, const std::uint64_t* p1,
                    std::size_t count, int threshold, int accept_thr,
                    std::uint64_t* bitmaps, std::size_t stride) {
  FBF_AVX512_BLOCK_BODY(popcnt64x8_native)
}

template <std::size_t Q>
__attribute__((target("avx512f,avx512bw"))) std::size_t block_avx512_shuf(
    const std::uint64_t* q0, const std::uint64_t* q1, const std::uint64_t* p0,
    const std::uint64_t* p1, std::size_t count, int threshold, int accept_thr,
    std::uint64_t* bitmaps, std::size_t stride) {
  FBF_AVX512_BLOCK_BODY(popcnt64x8_shuf)
}

#undef FBF_AVX512_BLOCK_BODY

bool cpu_has_vpopcntdq() noexcept {
  static const bool has = __builtin_cpu_supports("avx512vpopcntdq") != 0;
  return has;
}

#endif  // FBF_X86

#ifdef FBF_NEON

/// Per-64-bit-lane popcount of two candidates: CNT bytes, pairwise
/// widening adds up to u64 lane sums.
inline uint64x2_t popcnt64x2(uint64x2_t v) noexcept {
  return vpaddlq_u32(
      vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

/// 2-bit lane mask of diff <= limit (lane counts are <= 128, so the
/// unsigned compare is exact; `limit` must be non-negative).
inline std::uint64_t le_mask2(uint64x2_t diff, uint64x2_t limit) noexcept {
  const uint64x2_t le = vcleq_u64(diff, limit);
  return (vgetq_lane_u64(le, 0) & 1u) | ((vgetq_lane_u64(le, 1) & 1u) << 1);
}

template <std::size_t Q>
std::size_t block_neon(const std::uint64_t* q0, const std::uint64_t* q1,
                       const std::uint64_t* p0, const std::uint64_t* p1,
                       std::size_t count, int threshold, int accept_thr,
                       std::uint64_t* bitmaps, std::size_t stride) {
  uint64x2_t vq0[Q];
  uint64x2_t vq1[Q];
  for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
    vq0[qi] = vdupq_n_u64(q0[qi]);
    vq1[qi] = vdupq_n_u64(q1 != nullptr ? q1[qi] : 0);
  }
  const uint64x2_t vthresh =
      vdupq_n_u64(static_cast<std::uint64_t>(std::max(threshold, 0)));
  // A negative accept threshold means "no early accepts"; the unsigned
  // compare path cannot express it, so gate the accept mask on the sign.
  const bool accepts_possible = accept_thr >= 0;
  const uint64x2_t vaccept =
      vdupq_n_u64(static_cast<std::uint64_t>(std::max(accept_thr, 0)));
  std::size_t survivors = 0;
  const std::size_t n_words = (count + 63) / 64;
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    std::uint64_t bits[Q] = {};
    for (std::size_t g = 0; g < lanes; g += 2) {
      const uint64x2_t c0 = vld1q_u64(p0 + base + g);
      if (p1 == nullptr) {
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
          const uint64x2_t d = popcnt64x2(veorq_u64(c0, vq0[qi]));
          bits[qi] |= le_mask2(d, vthresh) << g;
        }
        continue;
      }
      uint64x2_t d0[Q];
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
        d0[qi] = popcnt64x2(veorq_u64(c0, vq0[qi]));
      }
      std::uint64_t accept[Q];
      std::uint64_t undecided = 0;
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
        accept[qi] = accepts_possible ? le_mask2(d0[qi], vaccept) : 0;
        undecided |= le_mask2(d0[qi], vthresh) & ~accept[qi];
      }
      if (undecided == 0) {
        for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
          bits[qi] |= accept[qi] << g;
        }
        continue;  // plane-1 load skipped: every lane decided on plane 0
      }
      const uint64x2_t c1 = vld1q_u64(p1 + base + g);
      for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
        const uint64x2_t d =
            vaddq_u64(d0[qi], popcnt64x2(veorq_u64(c1, vq1[qi])));
        bits[qi] |= le_mask2(d, vthresh) << g;
      }
    }
    for (std::size_t qi = 0; qi < static_cast<std::size_t>(Q); ++qi) {
      bitmaps[qi * stride + w] = bits[qi];
      survivors += static_cast<std::size_t>(std::popcount(bits[qi]));
    }
  }
  return survivors;
}

#endif  // FBF_NEON

// Per-Q dispatch tables (index [m-1] serves a chunk of m queries) keep
// the query count a compile-time constant inside every body, so the
// query words stay in registers across the candidate sweep.
constexpr BlockFn kScalarTable[kMaxBlockQueries] = {
    &block_scalar<1>, &block_scalar<2>, &block_scalar<3>, &block_scalar<4>,
    &block_scalar<5>, &block_scalar<6>, &block_scalar<7>, &block_scalar<8>};

#ifdef FBF_X86
constexpr BlockFn kScalarPopcntTable[kMaxBlockQueries] = {
    &block_scalar_popcnt<1>, &block_scalar_popcnt<2>, &block_scalar_popcnt<3>,
    &block_scalar_popcnt<4>, &block_scalar_popcnt<5>, &block_scalar_popcnt<6>,
    &block_scalar_popcnt<7>, &block_scalar_popcnt<8>};
constexpr BlockFn kAvx2Table[kMaxBlockQueries] = {
    &block_avx2<1>, &block_avx2<2>, &block_avx2<3>, &block_avx2<4>,
    &block_avx2<5>, &block_avx2<6>, &block_avx2<7>, &block_avx2<8>};
constexpr BlockFn kAvx512NativeTable[kMaxBlockQueries] = {
    &block_avx512_native<1>, &block_avx512_native<2>, &block_avx512_native<3>,
    &block_avx512_native<4>, &block_avx512_native<5>, &block_avx512_native<6>,
    &block_avx512_native<7>, &block_avx512_native<8>};
constexpr BlockFn kAvx512ShufTable[kMaxBlockQueries] = {
    &block_avx512_shuf<1>, &block_avx512_shuf<2>, &block_avx512_shuf<3>,
    &block_avx512_shuf<4>, &block_avx512_shuf<5>, &block_avx512_shuf<6>,
    &block_avx512_shuf<7>, &block_avx512_shuf<8>};
#endif
#ifdef FBF_NEON
constexpr BlockFn kNeonTable[kMaxBlockQueries] = {
    &block_neon<1>, &block_neon<2>, &block_neon<3>, &block_neon<4>,
    &block_neon<5>, &block_neon<6>, &block_neon<7>, &block_neon<8>};
#endif

const BlockFn* pick_table(KernelKind kind) noexcept {
#ifdef FBF_X86
  if (kind == KernelKind::kAvx512) {
    return cpu_has_vpopcntdq() ? kAvx512NativeTable : kAvx512ShufTable;
  }
  if (kind == KernelKind::kAvx2) {
    return kAvx2Table;
  }
#endif
#ifdef FBF_NEON
  if (kind == KernelKind::kNeon) {
    return kNeonTable;
  }
#endif
  (void)kind;
#ifdef FBF_X86
  if (fbf::util::cpu_has_popcnt()) {
    return kScalarPopcntTable;
  }
#endif
  return kScalarTable;
}

KernelKind detect_best() noexcept {
  for (const KernelKind kind : all_kernel_kinds()) {
    if (kernel_supported(kind)) {
      return kind;
    }
  }
  return KernelKind::kScalar64;
}

}  // namespace

const char* kernel_name(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::kScalar64: return "scalar64";
    case KernelKind::kAvx2: return "avx2";
    case KernelKind::kAvx512: return "avx512";
    case KernelKind::kNeon: return "neon";
  }
  return "?";
}

const char* tile_kernel_label(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::kScalar64: return "tile-scalar64";
    case KernelKind::kAvx2: return "tile-avx2";
    case KernelKind::kAvx512: return "tile-avx512";
    case KernelKind::kNeon: return "tile-neon";
  }
  return "tile-?";
}

std::optional<KernelKind> kernel_from_name(std::string_view name) noexcept {
  for (const KernelKind kind : all_kernel_kinds()) {
    if (name == kernel_name(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::span<const KernelKind> all_kernel_kinds() noexcept {
  static constexpr KernelKind kinds[] = {
      KernelKind::kAvx512, KernelKind::kAvx2, KernelKind::kNeon,
      KernelKind::kScalar64};
  return kinds;
}

bool kernel_supported(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::kScalar64:
      return true;
    case KernelKind::kAvx2:
#ifdef FBF_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelKind::kAvx512:
#ifdef FBF_X86
      // avx512f (foundation) + avx512bw (VPSHUFB/VPSADBW fallback
      // popcount).  VPOPCNTDQ is probed separately at dispatch time and
      // only upgrades the popcount primitive.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
    case KernelKind::kNeon:
#ifdef FBF_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

KernelKind best_kernel() noexcept {
  static const KernelKind detected = detect_best();
  if (const char* force = std::getenv("FBF_FORCE_KERNEL");
      force != nullptr && *force != '\0') {
    if (const auto kind = kernel_from_name(force);
        kind && kernel_supported(*kind)) {
      return *kind;
    }
    static const bool warned = [&force] {
      std::fprintf(stderr,
                   "fbf: FBF_FORCE_KERNEL=%s is unknown or unsupported on "
                   "this CPU; using %s\n",
                   force, kernel_name(detect_best()));
      return true;
    }();
    (void)warned;
  }
  return detected;
}

std::size_t filter_block(const std::uint64_t* q0, const std::uint64_t* q1,
                         std::size_t n_queries, const std::uint64_t* p0,
                         const std::uint64_t* p1, std::size_t count,
                         int threshold, int tail_bound,
                         std::uint64_t* bitmaps, std::size_t bitmap_stride,
                         KernelKind kind) noexcept {
  if (count == 0 || n_queries == 0) {
    return 0;
  }
  const int accept_thr = threshold - tail_bound;
  const BlockFn* table = pick_table(kind);
  std::size_t total = 0;
  for (std::size_t q = 0; q < n_queries; q += kMaxBlockQueries) {
    const std::size_t m = std::min(kMaxBlockQueries, n_queries - q);
    total += table[m - 1](q0 + q, q1 != nullptr ? q1 + q : nullptr, p0, p1,
                          count, threshold, accept_thr,
                          bitmaps + q * bitmap_stride, bitmap_stride);
  }
  return total;
}

}  // namespace fbf::core
