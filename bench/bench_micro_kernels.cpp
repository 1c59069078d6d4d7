// Micro-benchmarks for the kernels the paper's argument rests on:
//  * FindDiffBits with Wegner's loop vs hardware POPCNT vs a byte LUT
//    (the paper's Alg. 6 predates ubiquitous POPCNT);
//  * signature generation (the Gen rows: ~60 ns per numeric signature);
//  * DL vs banded PDL vs Myers on representative demographic strings;
//  * Jaro / Jaro-Winkler / Hamming / Soundex for context.
//  * the block kernel over packed SoA planes (its q1 rows are the
//    one-query sweep) vs the per-pair scan — the PackedSignatureStore
//    speedup, per layout and kernel.
// google-benchmark binary: supports --benchmark_filter etc., plus --json
// as shorthand for --benchmark_format=json (BENCH_*.json recording) and
// --telemetry-gate, the Release CI check that telemetry-on does not
// regress the filter_block hot path or the dense and block-index joins
// (DESIGN.md §16).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_pipeline.hpp"
#include "core/fbf.hpp"
#include "core/fbf_kernel.hpp"
#include "core/match_join.hpp"
#include "telemetry/telemetry.hpp"
#include "core/packed_signature_store.hpp"
#include "datagen/dataset.hpp"
#include "metrics/damerau.hpp"
#include "metrics/hamming.hpp"
#include "metrics/jaro.hpp"
#include "metrics/levenshtein.hpp"
#include "metrics/myers.hpp"
#include "metrics/pdl.hpp"
#include "metrics/soundex.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace {

namespace c = fbf::core;
namespace dg = fbf::datagen;
namespace m = fbf::metrics;
namespace u = fbf::util;

/// A fixed workload of signature pairs with realistic sparsity (built
/// from paired clean/error SSNs, so XOR vectors are mostly 0-4 bits).
struct SignatureWorkload {
  std::vector<c::Signature> left;
  std::vector<c::Signature> right;

  static const SignatureWorkload& instance() {
    static const SignatureWorkload workload = [] {
      SignatureWorkload w;
      const auto dataset =
          dg::build_paired_dataset(dg::FieldKind::kSsn, 4096, 7).value();
      for (std::size_t i = 0; i < dataset.size(); ++i) {
        w.left.push_back(
            c::make_signature(dataset.clean[i], c::FieldClass::kNumeric));
        w.right.push_back(
            c::make_signature(dataset.error[i], c::FieldClass::kNumeric));
      }
      return w;
    }();
    return workload;
  }
};

void BM_FindDiffBits(benchmark::State& state) {
  const auto kind = static_cast<u::PopcountKind>(state.range(0));
  const auto& w = SignatureWorkload::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c::find_diff_bits(w.left[i], w.right[i], kind));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_FindDiffBits)
    ->Arg(static_cast<int>(u::PopcountKind::kWegner))
    ->Arg(static_cast<int>(u::PopcountKind::kHardware))
    ->Arg(static_cast<int>(u::PopcountKind::kLut))
    ->ArgName("popcount");

/// Strings per field for the metric kernels.
struct StringWorkload {
  std::vector<std::string> clean;
  std::vector<std::string> error;

  static const StringWorkload& get(dg::FieldKind kind) {
    static const StringWorkload ssn = make(dg::FieldKind::kSsn);
    static const StringWorkload ln = make(dg::FieldKind::kLastName);
    static const StringWorkload ad = make(dg::FieldKind::kAddress);
    switch (kind) {
      case dg::FieldKind::kSsn: return ssn;
      case dg::FieldKind::kAddress: return ad;
      default: return ln;
    }
  }

 private:
  static StringWorkload make(dg::FieldKind kind) {
    const auto dataset = dg::build_paired_dataset(kind, 1024, 11).value();
    return StringWorkload{dataset.clean, dataset.error};
  }
};

template <typename Fn>
void run_pairs(benchmark::State& state, dg::FieldKind kind, const Fn& fn) {
  const auto& w = StringWorkload::get(kind);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(w.clean[i], w.error[(i + 1) & 1023]));
    i = (i + 1) & 1023;
  }
}

void BM_Dl_Ssn(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kSsn,
            [](const auto& s, const auto& t) { return m::dl_distance(s, t); });
}
BENCHMARK(BM_Dl_Ssn);

void BM_Dl_Address(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kAddress,
            [](const auto& s, const auto& t) { return m::dl_distance(s, t); });
}
BENCHMARK(BM_Dl_Address);

void BM_Pdl_Ssn(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kSsn, [](const auto& s, const auto& t) {
    return m::pdl_within(s, t, 1);
  });
}
BENCHMARK(BM_Pdl_Ssn);

void BM_Pdl_Address(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kAddress, [](const auto& s, const auto& t) {
    return m::pdl_within(s, t, 1);
  });
}
BENCHMARK(BM_Pdl_Address);

void BM_Myers_LastName(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kLastName,
            [](const auto& s, const auto& t) {
              return m::myers_distance(s, t);
            });
}
BENCHMARK(BM_Myers_LastName);

void BM_Levenshtein_LastName(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kLastName,
            [](const auto& s, const auto& t) {
              return m::levenshtein_distance(s, t);
            });
}
BENCHMARK(BM_Levenshtein_LastName);

void BM_Jaro_LastName(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kLastName,
            [](const auto& s, const auto& t) { return m::jaro(s, t); });
}
BENCHMARK(BM_Jaro_LastName);

void BM_JaroWinkler_LastName(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kLastName,
            [](const auto& s, const auto& t) {
              return m::jaro_winkler(s, t);
            });
}
BENCHMARK(BM_JaroWinkler_LastName);

void BM_Hamming_Ssn(benchmark::State& state) {
  run_pairs(state, dg::FieldKind::kSsn, [](const auto& s, const auto& t) {
    return m::hamming_distance(s, t);
  });
}
BENCHMARK(BM_Hamming_Ssn);

void BM_Soundex_LastName(benchmark::State& state) {
  const auto& w = StringWorkload::get(dg::FieldKind::kLastName);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m::soundex(w.clean[i]));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_Soundex_LastName);

void BM_GenNumSignature(benchmark::State& state) {
  // The paper's Gen row: ~60 ns per SSN signature on 2010 hardware.
  const auto& w = StringWorkload::get(dg::FieldKind::kSsn);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c::set_num_bits(w.clean[i]));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_GenNumSignature);

void BM_GenAlphaSignature(benchmark::State& state) {
  const auto& w = StringWorkload::get(dg::FieldKind::kLastName);
  const int words = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c::set_alpha_bits(w.clean[i], words));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_GenAlphaSignature)->Arg(1)->Arg(2)->Arg(4)->ArgName("words");

/// Paper-scale (n = 5000) candidate list in both layouts: an array of
/// classic signatures (per-pair scan baseline) and the packed SoA planes
/// (batched kernel).  One "iteration" filters one query signature
/// against the whole list, so items-per-second is pairs/s.
struct ScanWorkload {
  std::vector<std::string> queries;
  std::vector<c::Signature> aos;
  std::vector<c::Signature> aos_queries;
  c::PackedSignatureStore packed;
  c::PackedSignatureStore packed_queries;

  static const ScanWorkload& get(dg::FieldKind kind, c::FieldClass cls) {
    static const ScanWorkload ln =
        make(dg::FieldKind::kLastName, c::FieldClass::kAlpha);
    static const ScanWorkload ssn =
        make(dg::FieldKind::kSsn, c::FieldClass::kNumeric);
    static const ScanWorkload ad =
        make(dg::FieldKind::kAddress, c::FieldClass::kAlphanumeric);
    switch (cls) {
      case c::FieldClass::kNumeric: return ssn;
      case c::FieldClass::kAlphanumeric: return ad;
      default: break;
    }
    (void)kind;
    return ln;
  }

  static constexpr std::size_t kN = 5000;

 private:
  static ScanWorkload make(dg::FieldKind kind, c::FieldClass cls) {
    const auto dataset = dg::build_paired_dataset(kind, kN, 13).value();
    ScanWorkload w;
    w.queries = dataset.clean;
    for (std::size_t i = 0; i < kN; ++i) {
      w.aos.push_back(c::make_signature(dataset.error[i], cls));
      w.aos_queries.push_back(c::make_signature(dataset.clean[i], cls));
    }
    w.packed = c::PackedSignatureStore(dataset.error, cls);
    w.packed_queries = c::PackedSignatureStore(dataset.clean, cls);
    return w;
  }
};

/// Baseline: one query against all 5000 candidates through the per-pair
/// FindDiffBits (AoS signatures, per-call PopcountKind dispatch) — the shape
/// of the old match_strings hot loop.
void BM_ScanPerPair(benchmark::State& state, c::FieldClass cls) {
  const auto& w = ScanWorkload::get(dg::FieldKind::kLastName, cls);
  std::size_t i = 0;
  for (auto _ : state) {
    int survivors = 0;
    const c::Signature& q = w.aos_queries[i];
    for (std::size_t j = 0; j < ScanWorkload::kN; ++j) {
      survivors += static_cast<int>(
          c::find_diff_bits(q, w.aos[j], u::PopcountKind::kHardware) <= 2);
    }
    benchmark::DoNotOptimize(survivors);
    i = (i + 1) % ScanWorkload::kN;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ScanWorkload::kN));
}

/// The many-query×tile block kernel: Q query signatures filtered against
/// all 5000 candidates in one sweep, so each packed plane word is loaded
/// once per Q queries instead of once per query.  Items/s is pairs/s;
/// bytes/s is plane traffic (the quantity register blocking divides by
/// Q), so the GB/s column reads directly against memory bandwidth — see
/// EXPERIMENTS.md "ceiling vs memory bandwidth".
void BM_FilterBlock(benchmark::State& state, c::FieldClass cls,
                    c::KernelKind kind, std::size_t q) {
  if (!c::kernel_supported(kind)) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const auto& w = ScanWorkload::get(dg::FieldKind::kLastName, cls);
  const bool two = w.packed.words() == 2;
  const int tail = w.packed.max_tail_popcount();
  constexpr std::size_t kWords = (ScanWorkload::kN + 63) / 64;
  std::vector<std::uint64_t> bitmaps(q * kWords);
  std::uint64_t q0[c::kMaxBlockQueries];
  std::uint64_t q1[c::kMaxBlockQueries];
  std::size_t i = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < q; ++b) {
      const std::size_t qi = (i + b) % ScanWorkload::kN;
      q0[b] = w.packed_queries.word(0, qi);
      if (two) {
        q1[b] = w.packed_queries.word(1, qi);
      }
    }
    const std::size_t survivors = c::filter_block(
        q0, two ? q1 : nullptr, q, w.packed.plane(0),
        two ? w.packed.plane(1) : nullptr, ScanWorkload::kN, 2, tail,
        bitmaps.data(), kWords, kind);
    benchmark::DoNotOptimize(survivors);
    benchmark::DoNotOptimize(bitmaps.data());
    i = (i + q) % ScanWorkload::kN;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ScanWorkload::kN * q));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(ScanWorkload::kN * w.packed.words() *
                                sizeof(std::uint64_t)));
}

#define FBF_FILTER_BLOCK_ROWS(layout, cls)                                   \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_scalar64_q1, cls,               \
                    c::KernelKind::kScalar64, 1);                      \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_scalar64_q4, cls,               \
                    c::KernelKind::kScalar64, 4);                      \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_scalar64_q8, cls,               \
                    c::KernelKind::kScalar64, 8);                      \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_avx2_q1, cls,                   \
                    c::KernelKind::kAvx2, 1);                          \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_avx2_q4, cls,                   \
                    c::KernelKind::kAvx2, 4);                          \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_avx2_q8, cls,                   \
                    c::KernelKind::kAvx2, 8);                          \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_avx512_q1, cls,                 \
                    c::KernelKind::kAvx512, 1);                        \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_avx512_q4, cls,                 \
                    c::KernelKind::kAvx512, 4);                        \
  BENCHMARK_CAPTURE(BM_FilterBlock, layout##_avx512_q8, cls,                 \
                    c::KernelKind::kAvx512, 8)

FBF_FILTER_BLOCK_ROWS(numeric, c::FieldClass::kNumeric);
FBF_FILTER_BLOCK_ROWS(alpha_l2, c::FieldClass::kAlpha);
FBF_FILTER_BLOCK_ROWS(alnum, c::FieldClass::kAlphanumeric);
#undef FBF_FILTER_BLOCK_ROWS

/// Streaming-regime workload: one synthetic 256 MB plane (32 M packed
/// words, alpha-layout 52-bit density), far past every cache level, so
/// the kernel reads candidates from DRAM.  This is the regime register
/// blocking was built for: the plane is streamed once per Q queries
/// instead of once per query, so pairs/s should scale with Q until the
/// popcount ALUs saturate.  The L1-resident rows above measure compute
/// ceilings; these rows measure the bandwidth ceiling.
struct StreamWorkload {
  static constexpr std::size_t kN = 32'000'000;
  c::AlignedPlane p0;

  static const StreamWorkload& instance() {
    static const StreamWorkload w = [] {
      StreamWorkload s;
      s.p0.ensure(kN);
      s.p0.set_size(kN);
      std::uint64_t x = 0x9e3779b97f4a7c15ull;
      for (std::size_t i = 0; i < kN; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.p0.data()[i] = x & ((1ull << 52) - 1);
      }
      return s;
    }();
    return w;
  }
};

void BM_FilterBlockStream(benchmark::State& state, c::KernelKind kind,
                          std::size_t q) {
  if (!c::kernel_supported(kind)) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const auto& w = StreamWorkload::instance();
  constexpr std::size_t kWords = (StreamWorkload::kN + 63) / 64;
  std::vector<std::uint64_t> bitmaps(q * kWords);
  std::uint64_t q0[c::kMaxBlockQueries];
  for (std::size_t b = 0; b < c::kMaxBlockQueries; ++b) {
    q0[b] = 0x5a5a5a5aull * (b + 1);
  }
  for (auto _ : state) {
    const std::size_t survivors =
        c::filter_block(q0, nullptr, q, w.p0.data(), nullptr,
                        StreamWorkload::kN, 2, 0, bitmaps.data(), kWords,
                        kind);
    benchmark::DoNotOptimize(survivors);
    benchmark::DoNotOptimize(bitmaps.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(StreamWorkload::kN * q));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(StreamWorkload::kN * sizeof(std::uint64_t)));
}

BENCHMARK_CAPTURE(BM_FilterBlockStream, scalar64_q1, c::KernelKind::kScalar64,
                  1);
BENCHMARK_CAPTURE(BM_FilterBlockStream, scalar64_q8, c::KernelKind::kScalar64,
                  8);
BENCHMARK_CAPTURE(BM_FilterBlockStream, avx2_q1, c::KernelKind::kAvx2, 1);
BENCHMARK_CAPTURE(BM_FilterBlockStream, avx2_q8, c::KernelKind::kAvx2, 8);
BENCHMARK_CAPTURE(BM_FilterBlockStream, avx512_q1, c::KernelKind::kAvx512, 1);
BENCHMARK_CAPTURE(BM_FilterBlockStream, avx512_q8, c::KernelKind::kAvx512, 8);

BENCHMARK_CAPTURE(BM_ScanPerPair, alpha_l2, c::FieldClass::kAlpha);
BENCHMARK_CAPTURE(BM_ScanPerPair, numeric, c::FieldClass::kNumeric);
BENCHMARK_CAPTURE(BM_ScanPerPair, alnum, c::FieldClass::kAlphanumeric);

void BM_FullPipeline_FpdlPair(benchmark::State& state) {
  // One FPDL pair evaluation end to end (filter + verify when passed),
  // amortized over a realistic mix of near and far pairs.
  const auto& w = StringWorkload::get(dg::FieldKind::kSsn);
  const auto& sig = SignatureWorkload::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t j = (i * 7 + 1) & 1023;
    bool match = false;
    if (c::fbf_pass(sig.left[i & 4095], sig.right[j & 4095], 1)) {
      match = m::pdl_within(w.clean[i], w.error[j], 1);
    }
    benchmark::DoNotOptimize(match);
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_FullPipeline_FpdlPair);

// --- telemetry overhead gate (--telemetry-gate) -------------------------

/// Seconds for one filter_block sweep bundle: every query in blocks of
/// 8 against all 5000 candidates, `passes` times over.
double time_filter_block_pass(const ScanWorkload& w, c::KernelKind kind,
                              int passes) {
  constexpr std::size_t kQ = 8;
  const bool two = w.packed.words() == 2;
  const int tail = w.packed.max_tail_popcount();
  constexpr std::size_t kWords = (ScanWorkload::kN + 63) / 64;
  std::vector<std::uint64_t> bitmaps(kQ * kWords);
  std::uint64_t q0[c::kMaxBlockQueries];
  std::uint64_t q1[c::kMaxBlockQueries];
  std::size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i + kQ <= ScanWorkload::kN; i += kQ) {
      for (std::size_t b = 0; b < kQ; ++b) {
        q0[b] = w.packed_queries.word(0, i + b);
        if (two) {
          q1[b] = w.packed_queries.word(1, i + b);
        }
      }
      sink += c::filter_block(q0, two ? q1 : nullptr, kQ, w.packed.plane(0),
                              two ? w.packed.plane(1) : nullptr,
                              ScanWorkload::kN, 2, tail, bitmaps.data(),
                              kWords, kind);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  return std::chrono::duration<double>(stop - start).count();
}

/// Median of `v` (sorted in place; mean of the middle two when even).
double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The overhead gate CI's Release leg runs: the filter_block hot path, a
/// dense match_strings join, a block-index one (whose probe loop
/// mirrors the ladder per probe group and times itself into
/// join.probe_ms) and the block route's filter alone (check() over id
/// lists built before timing, so per-id cost in the gathered filter is
/// most of the row — index build, probe and verify dominate the join
/// row), timed with telemetry::set_enabled(true) vs false in ONE
/// binary.  Each row runs kPairs on/off pairs back to back (the
/// first sample of the pair alternating between on and off) and gates
/// on the median of the per-pair on/off ratios: a pair's two samples
/// share the machine's state of the moment, so drift and a noisy
/// neighbour cancel inside each ratio, and the median ignores the pairs
/// a burst still split.  The kernel itself carries no instrumentation
/// (the enabled() guards live at driver-call boundaries), so this line
/// holds exactly that: if per-candidate instrumentation ever creeps into
/// the kernel or the filter loops, the ratio trips and CI fails.
/// Unused in non-NDEBUG builds, which refuse to run the gate.
[[maybe_unused]] int run_telemetry_gate() {
  constexpr double kMaxRatio = 1.15;
  constexpr int kPairs = 21;
  const c::KernelKind kind = c::best_kernel();
  const auto& w =
      ScanWorkload::get(dg::FieldKind::kLastName, c::FieldClass::kAlpha);
  const auto join_dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 2000, 13).value();
  const auto block_dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 20000, 17).value();
  c::JoinConfig block_config;  // FPDL, k = 1
  block_config.generator = c::GeneratorKind::kBlockIndex;

  const auto time_join = [](const dg::PairedDataset& dataset,
                            const c::JoinConfig& config) {
    const auto start = std::chrono::steady_clock::now();
    const c::JoinStats stats =
        c::match_strings(dataset.clean, dataset.error, config);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(stats.matches);
    return std::chrono::duration<double>(stop - start).count();
  };

  // check() inputs: query i gets every kCheckStride-th candidate from
  // i % kCheckStride, ~2,500 ids per list, most of them rejected by FBF.
  constexpr std::size_t kCheckQueries = 512;
  constexpr std::size_t kCheckStride = 8;
  const c::CandidatePipeline pipeline(c::PipelineConfig{},
                                      block_dataset.clean);
  std::vector<c::CandidatePipeline::Query> check_queries;
  std::vector<std::string_view> check_texts;
  std::vector<std::vector<std::uint32_t>> check_ids(kCheckQueries);
  for (std::size_t i = 0; i < kCheckQueries; ++i) {
    check_queries.push_back(pipeline.make_query(block_dataset.error[i]));
    check_texts.emplace_back(block_dataset.error[i]);
    for (std::size_t j = i % kCheckStride; j < pipeline.size();
         j += kCheckStride) {
      check_ids[i].push_back(static_cast<std::uint32_t>(j));
    }
  }
  // One untimed pass first: the row before it leaves the caches cold, and
  // a cold first sample in each pair would skew the ratio by pair order.
  const auto time_check = [&] {
    std::vector<c::PipelineCounters> counters(kCheckQueries);
    std::size_t matches = 0;
    const auto run = [&] {
      pipeline.check(check_queries, check_texts, block_dataset.clean,
                     check_ids, counters,
                     [&](std::size_t, std::uint32_t) { ++matches; });
    };
    run();
    const auto start = std::chrono::steady_clock::now();
    run();
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(matches);
    return std::chrono::duration<double>(stop - start).count();
  };

  struct Row {
    const char* name;
    std::function<double()> run;
    std::vector<double> ratios;
    double on_s = 0.0;  ///< summed over pairs
    double off_s = 0.0;
  };
  Row rows[] = {
      {"filter_block q8", [&] { return time_filter_block_pass(w, kind, 50); },
       {}},
      {"match_strings n=2000",
       [&] { return time_join(join_dataset, c::JoinConfig{}); }, {}},
      {"block join n=20000",
       [&] { return time_join(block_dataset, block_config); }, {}},
      {"check ids q512", time_check, {}},
  };

  // Warmup primes the lazy workloads and the CPU clocks on both settings.
  for (const bool on : {true, false}) {
    fbf::telemetry::set_enabled(on);
    for (Row& row : rows) {
      (void)row.run();
    }
  }
  for (int pair = 0; pair < kPairs; ++pair) {
    for (Row& row : rows) {
      double on_s = 0.0;
      double off_s = 0.0;
      for (const bool on : {pair % 2 == 0, pair % 2 != 0}) {
        fbf::telemetry::set_enabled(on);
        (on ? on_s : off_s) = row.run();
      }
      row.ratios.push_back(on_s / off_s);
      row.on_s += on_s;
      row.off_s += off_s;
    }
  }
  fbf::telemetry::set_enabled(true);

  std::printf(
      "telemetry gate (%s, median of %d paired on/off ratios, threshold "
      "%.2fx)\n",
      c::kernel_name(kind), kPairs, kMaxRatio);
  bool failed = false;
  for (Row& row : rows) {
    const double ratio = median(row.ratios);
    failed = failed || ratio > kMaxRatio;
    std::printf("  %-22s on %9.3f ms   off %9.3f ms   ratio %.3fx\n",
                row.name, row.on_s / kPairs * 1e3, row.off_s / kPairs * 1e3,
                ratio);
  }
  if (failed) {
    std::fprintf(stderr,
                 "telemetry gate FAILED: telemetry-on regresses the hot "
                 "path beyond %.2fx\n",
                 kMaxRatio);
    return 1;
  }
  std::printf("telemetry gate: ok\n");
  return 0;
}

}  // namespace

// Custom main: accept --json as shorthand for --benchmark_format=json so
// this binary matches the table benches' flag convention (and the
// BENCH_*.json recording workflow).
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  bool shorthand = false;
  [[maybe_unused]] bool recording = false;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--telemetry-gate") {
#ifndef NDEBUG
      std::fprintf(stderr,
                   "refusing to run the telemetry overhead gate from a "
                   "non-optimized build (NDEBUG unset): rebuild with "
                   "-DCMAKE_BUILD_TYPE=Release\n");
      return 2;
#else
      return run_telemetry_gate();
#endif
    }
    if (arg == "--json") {
      shorthand = true;
      recording = true;
      continue;
    }
    if (arg.starts_with("--benchmark_format=json") ||
        arg.starts_with("--benchmark_out")) {
      recording = true;
    }
    args.push_back(argv[i]);
  }
#ifndef NDEBUG
  // Same recording guard as bench_common.hpp parse_options: BENCH_*.json
  // numbers from a non-optimized build poison the perf trajectory (a past
  // recording shipped with "library_build_type": "debug").
  if (recording) {
    std::fprintf(stderr,
                 "refusing to emit machine-readable benchmark output from a "
                 "non-optimized build (NDEBUG unset): rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release before recording\n");
    return 2;
  }
#endif
  static char json_flag[] = "--benchmark_format=json";
  if (shorthand) {
    args.push_back(json_flag);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
