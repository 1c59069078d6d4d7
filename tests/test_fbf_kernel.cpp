// Equivalence fuzz for the batched filter kernels: every kernel variant
// must reproduce the u32 per-pair FindDiffBits path bit for bit — same
// survivor bitmaps, same survivor counts — across layouts, thresholds,
// tile widths, bitmap word boundaries and query block sizes.
#include "core/fbf_kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/find_diff_bits.hpp"
#include "core/packed_signature_store.hpp"
#include "core/signature.hpp"
#include "datagen/dataset.hpp"
#include "util/rng.hpp"

namespace {

using fbf::core::all_kernel_kinds;
using fbf::core::best_kernel;
using fbf::core::FieldClass;
using fbf::core::filter_block;
using fbf::core::kernel_from_name;
using fbf::core::kernel_name;
using fbf::core::kernel_supported;
using fbf::core::KernelKind;
using fbf::core::kMaxBlockQueries;
using fbf::core::make_signature;
using fbf::core::max_tail_popcount;
using fbf::core::PackedSignatureStore;
using fbf::core::Signature;
using fbf::core::tile_kernel_label;

namespace dg = fbf::datagen;

/// Every kind the running CPU can execute (scalar64 always qualifies).
std::vector<KernelKind> kernels_under_test() {
  std::vector<KernelKind> kinds;
  for (const KernelKind kind : all_kernel_kinds()) {
    if (kernel_supported(kind)) {
      kinds.push_back(kind);
    }
  }
  return kinds;
}

/// Reference: per-candidate u32 FindDiffBits over classic signatures.
std::vector<bool> reference_pass(const std::vector<std::string>& query,
                                 std::size_t qi,
                                 const std::vector<std::string>& cands,
                                 FieldClass cls, int alpha_words,
                                 int threshold) {
  const Signature q = make_signature(query[qi], cls, alpha_words);
  std::vector<bool> pass(cands.size());
  for (std::size_t j = 0; j < cands.size(); ++j) {
    const Signature c = make_signature(cands[j], cls, alpha_words);
    pass[j] = fbf::core::find_diff_bits(q, c) <= threshold;
  }
  return pass;
}

void check_layout(dg::FieldKind kind, FieldClass cls, int alpha_words,
                  std::size_t count, int threshold) {
  const auto dataset =
      dg::build_paired_dataset(kind, std::max<std::size_t>(count, 2), 911).value();
  std::vector<std::string> cands(dataset.error.begin(),
                                 dataset.error.begin() +
                                     static_cast<std::ptrdiff_t>(count));
  const PackedSignatureStore queries(dataset.clean, cls, alpha_words);
  const PackedSignatureStore packed(cands, cls, alpha_words);
  const bool two = packed.words() == 2;
  std::vector<std::uint64_t> bitmap((count + 63) / 64 + 1);
  for (const KernelKind kernel : kernels_under_test()) {
    for (const std::size_t qi : {std::size_t{0}, count / 2, count - 1}) {
      const auto expected =
          reference_pass(dataset.clean, qi, cands, cls, alpha_words,
                         threshold);
      bitmap.assign(bitmap.size(), ~0ull);  // detect missing overwrites
      const std::uint64_t q0 = queries.word(0, qi);
      const std::uint64_t q1 = two ? queries.word(1, qi) : 0;
      const std::size_t survivors = filter_block(
          &q0, two ? &q1 : nullptr, 1, packed.plane(0),
          two ? packed.plane(1) : nullptr, count, threshold,
          max_tail_popcount(cls, alpha_words), bitmap.data(), bitmap.size(),
          kernel);
      std::size_t expected_survivors = 0;
      for (std::size_t j = 0; j < count; ++j) {
        const bool bit = (bitmap[j / 64] >> (j % 64)) & 1u;
        ASSERT_EQ(bit, expected[j])
            << kernel_name(kernel) << " "
            << fbf::core::field_class_name(cls) << " l=" << alpha_words
            << " count=" << count << " thr=" << threshold << " j=" << j;
        expected_survivors += expected[j] ? 1u : 0u;
      }
      EXPECT_EQ(survivors, expected_survivors);
      // Tail bits beyond count in the last bitmap word must be cleared.
      if (count % 64 != 0) {
        const std::uint64_t tail = bitmap[(count - 1) / 64];
        EXPECT_EQ(tail >> (count % 64), 0u);
      }
    }
  }
}

/// filter_block fuzz: every query's bitmap must equal the per-pair
/// reference for any Q (including the > kMaxBlockQueries chunked case),
/// ragged tail tiles and every supported kind.
void check_block(dg::FieldKind kind, FieldClass cls, int alpha_words,
                 std::size_t count, int k) {
  const int threshold = 2 * k;
  const std::size_t pool =
      std::max<std::size_t>(count, 16);  // enough rows for 13 queries
  const auto dataset = dg::build_paired_dataset(kind, pool, 1337).value();
  std::vector<std::string> cands(dataset.error.begin(),
                                 dataset.error.begin() +
                                     static_cast<std::ptrdiff_t>(count));
  const PackedSignatureStore queries(dataset.clean, cls, alpha_words);
  const PackedSignatureStore packed(cands, cls, alpha_words);
  const bool two = packed.words() == 2;
  const int tail_bound = max_tail_popcount(cls, alpha_words);
  const std::size_t words = (count + 63) / 64;
  const std::size_t stride = words + 1;  // probe stride handling too
  for (const std::size_t n_queries :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{8},
        std::size_t{13}}) {
    std::vector<std::uint64_t> q0(n_queries);
    std::vector<std::uint64_t> q1(n_queries);
    for (std::size_t i = 0; i < n_queries; ++i) {
      q0[i] = queries.word(0, i);
      q1[i] = two ? queries.word(1, i) : 0;
    }
    std::vector<std::uint64_t> bitmaps(n_queries * stride);
    for (const KernelKind kernel : kernels_under_test()) {
      bitmaps.assign(bitmaps.size(), ~0ull);
      const std::size_t survivors = filter_block(
          q0.data(), two ? q1.data() : nullptr, n_queries, packed.plane(0),
          two ? packed.plane(1) : nullptr, count, threshold, tail_bound,
          bitmaps.data(), stride, kernel);
      std::size_t expected_total = 0;
      for (std::size_t i = 0; i < n_queries; ++i) {
        const auto expected = reference_pass(dataset.clean, i, cands, cls,
                                             alpha_words, threshold);
        const std::uint64_t* bitmap = bitmaps.data() + i * stride;
        for (std::size_t j = 0; j < count; ++j) {
          const bool bit = (bitmap[j / 64] >> (j % 64)) & 1u;
          ASSERT_EQ(bit, expected[j])
              << kernel_name(kernel) << " "
              << fbf::core::field_class_name(cls) << " l=" << alpha_words
              << " count=" << count << " k=" << k << " Q=" << n_queries
              << " query=" << i << " j=" << j;
          expected_total += expected[j] ? 1u : 0u;
        }
        if (count % 64 != 0) {
          EXPECT_EQ(bitmap[(count - 1) / 64] >> (count % 64), 0u);
        }
      }
      EXPECT_EQ(survivors, expected_total);
    }
  }
}

TEST(FbfKernel, MatchesPerPairScanAlphaL2) {
  for (const std::size_t count : {1u, 3u, 63u, 64u, 65u, 127u, 200u, 256u}) {
    check_layout(dg::FieldKind::kLastName, FieldClass::kAlpha, 2, count, 2);
  }
}

TEST(FbfKernel, MatchesPerPairScanAlphaL1) {
  check_layout(dg::FieldKind::kLastName, FieldClass::kAlpha, 1, 150, 2);
}

TEST(FbfKernel, MatchesPerPairScanNumeric) {
  for (const int threshold : {0, 2, 4, 6}) {
    check_layout(dg::FieldKind::kSsn, FieldClass::kNumeric, 2, 200,
                 threshold);
  }
}

TEST(FbfKernel, MatchesPerPairScanAlphanumericTwoPlanes) {
  for (const std::size_t count : {5u, 64u, 130u, 256u}) {
    check_layout(dg::FieldKind::kAddress, FieldClass::kAlphanumeric, 2,
                 count, 2);
  }
}

TEST(FbfKernel, FilterBlockMatchesPerPairAlphaL2) {
  for (const std::size_t count : {1u, 5u, 64u, 65u, 200u, 256u}) {
    for (const int k : {1, 2}) {
      check_block(dg::FieldKind::kLastName, FieldClass::kAlpha, 2, count, k);
    }
  }
}

TEST(FbfKernel, FilterBlockMatchesPerPairAlphaL1) {
  for (const int k : {1, 2}) {
    check_block(dg::FieldKind::kLastName, FieldClass::kAlpha, 1, 131, k);
  }
}

TEST(FbfKernel, FilterBlockMatchesPerPairNumeric) {
  for (const std::size_t count : {3u, 64u, 193u, 256u}) {
    for (const int k : {1, 2}) {
      check_block(dg::FieldKind::kSsn, FieldClass::kNumeric, 2, count, k);
    }
  }
}

TEST(FbfKernel, FilterBlockMatchesPerPairAlphanumericTwoPlanes) {
  for (const std::size_t count : {7u, 64u, 150u, 256u}) {
    for (const int k : {1, 2}) {
      check_block(dg::FieldKind::kAddress, FieldClass::kAlphanumeric, 2,
                  count, k);
    }
  }
}

/// Random u64 planes (not derived from strings): every kind must match a
/// brute-force popcount reference on arbitrary bit patterns, for
/// single-plane and two-plane inputs.
TEST(FbfKernel, AllKindsAgreeOnRandomPlanes) {
  fbf::util::Rng rng(4242);
  constexpr std::size_t kCount = 333;
  constexpr std::size_t kWords = (kCount + 63) / 64;
  fbf::core::AlignedPlane p0(kCount);
  fbf::core::AlignedPlane p1(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    p0.data()[i] = rng.next();
    p1.data()[i] = rng.next();
  }
  const auto kinds = kernels_under_test();
  fbf::core::AlignedPlane p1_masked(kCount);
  std::vector<std::uint64_t> queries0(kMaxBlockQueries);
  std::vector<std::uint64_t> queries1(kMaxBlockQueries);
  std::vector<std::uint64_t> reference(kMaxBlockQueries * kWords);
  std::vector<std::uint64_t> other(kMaxBlockQueries * kWords);
  for (int trial = 0; trial < 40; ++trial) {
    const int threshold = static_cast<int>(rng.next() % 70);
    // A tail bound is only sound when it dominates every plane-1 diff;
    // confine plane-1 bits to the low tail_bound positions so the random
    // bound genuinely does (mirrors max_tail_popcount <= used bits).
    const int tail_bound = static_cast<int>(rng.next() % 65);
    const std::uint64_t tail_mask =
        tail_bound == 64 ? ~0ull : (1ull << tail_bound) - 1;
    for (std::size_t i = 0; i < kMaxBlockQueries; ++i) {
      queries0[i] = rng.next();
      queries1[i] = rng.next() & tail_mask;
    }
    for (std::size_t i = 0; i < p1.size(); ++i) {
      p1_masked.data()[i] = p1.data()[i] & tail_mask;
    }
    const bool two = (trial % 2) == 0;
    const std::size_t n_queries =
        1 + static_cast<std::size_t>(trial) % kMaxBlockQueries;
    std::size_t expected = 0;
    reference.assign(reference.size(), 0);
    for (std::size_t i = 0; i < n_queries; ++i) {
      for (std::size_t j = 0; j < kCount; ++j) {
        int diff = std::popcount(queries0[i] ^ p0.data()[j]);
        if (two) {
          diff += std::popcount(queries1[i] ^ p1_masked.data()[j]);
        }
        if (diff <= threshold) {
          reference[i * kWords + j / 64] |= 1ull << (j % 64);
          ++expected;
        }
      }
    }
    for (const KernelKind kernel : kinds) {
      const std::size_t o = filter_block(
          queries0.data(), two ? queries1.data() : nullptr, n_queries,
          p0.data(), two ? p1_masked.data() : nullptr, kCount, threshold,
          tail_bound, other.data(), kWords, kernel);
      EXPECT_EQ(o, expected) << "trial " << trial << " "
                             << kernel_name(kernel);
      for (std::size_t w = 0; w < n_queries * kWords; ++w) {
        ASSERT_EQ(reference[w], other[w])
            << "trial " << trial << " " << kernel_name(kernel) << " word "
            << w;
      }
    }
  }
}

TEST(FbfKernel, ZeroCountIsEmpty) {
  std::uint64_t bitmap[1] = {~0ull};
  const std::uint64_t q0 = 0;
  EXPECT_EQ(filter_block(&q0, nullptr, 1, nullptr, nullptr, 0, 2, 0, bitmap,
                         1, KernelKind::kScalar64),
            0u);
  EXPECT_EQ(filter_block(&q0, nullptr, 0, nullptr, nullptr, 64, 2, 0, bitmap,
                         1, KernelKind::kScalar64),
            0u);
}

TEST(FbfKernel, KernelNameTableRoundTrips) {
  for (const KernelKind kind : all_kernel_kinds()) {
    const auto parsed = kernel_from_name(kernel_name(kind));
    ASSERT_TRUE(parsed.has_value()) << kernel_name(kind);
    EXPECT_EQ(*parsed, kind);
    // The pipeline-facing label is the short name with a "tile-" prefix.
    EXPECT_EQ(std::string(tile_kernel_label(kind)),
              std::string("tile-") + kernel_name(kind));
  }
  EXPECT_FALSE(kernel_from_name("no-such-kernel").has_value());
  EXPECT_FALSE(kernel_from_name("").has_value());
  EXPECT_STREQ(kernel_name(KernelKind::kScalar64), "scalar64");
  EXPECT_STREQ(kernel_name(KernelKind::kAvx2), "avx2");
  EXPECT_STREQ(kernel_name(KernelKind::kAvx512), "avx512");
  EXPECT_STREQ(kernel_name(KernelKind::kNeon), "neon");
  EXPECT_TRUE(kernel_supported(KernelKind::kScalar64));
}

/// FBF_FORCE_KERNEL overrides dispatch per call; unsupported or unknown
/// values fall back to the detected best.  The original environment is
/// restored so this test composes with a CI leg that exports the
/// variable for the whole suite.
TEST(FbfKernel, ForceKernelEnvOverride) {
  const char* original = std::getenv("FBF_FORCE_KERNEL");
  const std::string saved = original != nullptr ? original : "";
  ::unsetenv("FBF_FORCE_KERNEL");
  const KernelKind detected = best_kernel();
  EXPECT_EQ(detected, best_kernel());  // cached detection is stable

  for (const KernelKind kind : kernels_under_test()) {
    ::setenv("FBF_FORCE_KERNEL", kernel_name(kind), 1);
    EXPECT_EQ(best_kernel(), kind) << kernel_name(kind);
  }
  // Unknown and unsupported names fall back to the detected best.
  ::setenv("FBF_FORCE_KERNEL", "no-such-kernel", 1);
  EXPECT_EQ(best_kernel(), detected);
  for (const KernelKind kind : all_kernel_kinds()) {
    if (!kernel_supported(kind)) {
      ::setenv("FBF_FORCE_KERNEL", kernel_name(kind), 1);
      EXPECT_EQ(best_kernel(), detected) << kernel_name(kind);
    }
  }

  if (original != nullptr) {
    ::setenv("FBF_FORCE_KERNEL", saved.c_str(), 1);
  } else {
    ::unsetenv("FBF_FORCE_KERNEL");
  }
}

}  // namespace
