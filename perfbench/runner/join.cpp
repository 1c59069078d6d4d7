// join-ln-200k: the paper's batch join, core::match_strings(clean, error)
// on 200,000 LN pairs, FPDL k=1, block-index generation, 3 threads.
//
// Untraced run: block-index joins back to back (main_*) each followed by
// dense joins of four seeded 1,000-row left slices (side_*), whose match
// sets must equal the block join's rows of those slices.  Traced run: untraced
// base joins with registry deltas, then the same join decomposed into
// its public layer calls — CandidatePipeline builds, BlockIndexGenerator
// build, and per row generate -> filter_ids -> verify — timed apart.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/block_index.hpp"
#include "core/candidate_pipeline.hpp"
#include "core/match_join.hpp"
#include "core/query_options.hpp"
#include "datagen/dataset.hpp"
#include "runner/harness.hpp"
#include "telemetry/snapshot.hpp"

namespace perfbench {
namespace {

namespace c = fbf::core;

constexpr std::size_t kN = 200000;
constexpr std::size_t kThreads = 3;
constexpr std::size_t kSlice = 1000;
/// Dense slices per iteration: with at least kMinIterations iterations a
/// run times at least 40 slices, ten of them beyond the p75 side tail.
constexpr std::size_t kSlicesPerIteration = 4;
constexpr std::size_t kMinIterations = 10;
constexpr int kK = 1;

using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

c::JoinConfig join_config(c::GeneratorKind generator) {
  c::JoinConfig config;
  config.method = c::Method::kFpdl;
  config.k = kK;
  config.threads = kThreads;
  config.collect_matches = true;
  config.generator = generator;
  return config;
}

/// The block join's pairs whose left row lies in [off, off + kSlice),
/// re-based to the slice.
Pairs slice_of(const Pairs& pairs, std::size_t off) {
  const auto lo = std::lower_bound(
      pairs.begin(), pairs.end(),
      std::make_pair(static_cast<std::uint32_t>(off), std::uint32_t{0}));
  Pairs out;
  for (auto it = lo; it != pairs.end() && it->first < off + kSlice; ++it) {
    out.emplace_back(static_cast<std::uint32_t>(it->first - off), it->second);
  }
  return out;
}

struct Decomposed {
  double pipeline_build_ms = 0.0;
  double index_build_ms = 0.0;
  double generate_ms = 0.0;  ///< summed over threads
  double filter_ms = 0.0;
  double verify_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t matches = 0;
};

/// The indexed join rebuilt from its layer calls, with the left rows split
/// into contiguous chunks over kThreads threads like the library does.
Decomposed decomposed_join(const std::vector<std::string>& left,
                           const std::vector<std::string>& right) {
  Decomposed d;
  const c::PipelineConfig config = c::make_pipeline_config(c::QueryOptions{});
  const double t0 = now_ms();
  const c::CandidatePipeline pipe_left(config, left, kThreads);
  const c::CandidatePipeline pipe_right(config, right, kThreads);
  const double t1 = now_ms();
  const c::BlockIndexGenerator index(kK, right, kThreads);
  const double t2 = now_ms();
  std::vector<Decomposed> parts(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Decomposed& part = parts[t];
      c::PipelineCounters counters;
      std::vector<std::uint32_t> ids;
      std::vector<std::uint32_t> survivors;
      const std::size_t begin = left.size() * t / kThreads;
      const std::size_t end = left.size() * (t + 1) / kThreads;
      for (std::size_t i = begin; i < end; ++i) {
        const double a = now_ms();
        ids.clear();
        index.generate(left[i], ids);
        const double b = now_ms();
        survivors.clear();
        pipe_right.filter_ids(pipe_left.row_query(i), ids, survivors, counters);
        const double c_ms = now_ms();
        for (const std::uint32_t j : survivors) {
          part.matches += pipe_right.verify(left[i], right[j], counters) ? 1u : 0u;
        }
        const double e = now_ms();
        part.generate_ms += b - a;
        part.filter_ms += c_ms - b;
        part.verify_ms += e - c_ms;
      }
      part.candidates = counters.candidates_generated;
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  d.wall_ms = now_ms() - t0;
  d.pipeline_build_ms = t1 - t0;
  d.index_build_ms = t2 - t1;
  for (const Decomposed& part : parts) {
    d.generate_ms += part.generate_ms;
    d.filter_ms += part.filter_ms;
    d.verify_ms += part.verify_ms;
    d.candidates += part.candidates;
    d.matches += part.matches;
  }
  return d;
}

}  // namespace

Result run_join(const Args& args) {
  Result result;
  auto built = fbf::datagen::build_paired_dataset(
      fbf::datagen::FieldKind::kLastName, kN, args.seed);
  if (!built.ok()) {
    result.fail("dataset: " + built.status().to_string());
    return result;
  }
  const std::vector<std::string>& left = built->clean;
  const std::vector<std::string>& right = built->error;
  const c::JoinConfig block = join_config(c::GeneratorKind::kBlockIndex);
  const c::JoinConfig dense = join_config(c::GeneratorKind::kDense);

  // Set-up: the right side's corpus structures a join builds — packed
  // planes and the block index.
  std::optional<c::CandidatePipeline> planes;
  std::optional<c::BlockIndexGenerator> index;
  result.metrics["setup_s"] = median_seconds(
      2.0,
      [&] {
        planes.emplace(c::make_pipeline_config(c::QueryOptions{}), right,
                       kThreads);
        index.emplace(kK, right, kThreads);
      },
      [&] {
        planes.reset();
        index.reset();
      });
  planes.reset();
  index.reset();

  const c::JoinStats warm = fbf::core::match_strings(left, right, block);
  result.stamp.emplace_back("kernel", warm.kernel);
  result.stamp.emplace_back("generator", warm.generator);
  result.stamp.emplace_back("n", std::to_string(kN));
  result.stamp.emplace_back("threads", std::to_string(kThreads));

  // One iteration: a timed block join, then timed dense joins of seeded
  // left slices that must each reproduce the block join's pairs there.
  std::vector<double> block_ms;
  std::vector<double> dense_ms;
  std::uint64_t matches = warm.matches;
  const auto iterate = [&](std::size_t r) {
    const double t0 = now_ms();
    const c::JoinStats stats = fbf::core::match_strings(left, right, block);
    block_ms.push_back(now_ms() - t0);
    result.attempted += 1;
    if (stats.matches != matches) {
      result.failed += 1;
      result.fail("block-index join found " + std::to_string(stats.matches) +
                  " matches, the first one " + std::to_string(matches));
    }
    for (std::size_t s = 0; s < kSlicesPerIteration; ++s) {
      const std::size_t off =
          draw(args.seed, r * kSlicesPerIteration + s) % (kN - kSlice);
      const std::span<const std::string> slice(left.data() + off, kSlice);
      const double t1 = now_ms();
      const c::JoinStats reference = fbf::core::match_strings(slice, right, dense);
      dense_ms.push_back(now_ms() - t1);
      result.attempted += 1;
      if (slice_of(stats.match_pairs, off) != reference.match_pairs) {
        result.failed += 1;
        result.fail("block-index join disagrees with the dense join on rows " +
                    std::to_string(off) + ".." + std::to_string(off + kSlice));
      }
    }
  };

  // Iterations back to back for `seconds` (at least kMinIterations).
  const auto iterate_for = [&](double seconds) {
    const double stop = now_ms() + seconds * 1000.0;
    for (std::size_t r = 0; r < kMinIterations || now_ms() < stop; ++r) {
      iterate(r);
    }
  };

  if (!args.trace) {
    iterate_for(args.seconds);
    result.metrics["main_p50_ms"] = percentile(block_ms, 50.0);
    result.metrics["side_p50_ms"] = percentile(dense_ms, 50.0);
    // p75, fixed: the slice count varies with the host's speed, and tail()
    // would switch to p90 on runs that reach 100 slices.
    result.metrics["side_tail_ms"] = percentile(dense_ms, 75.0);
    result.metrics["rss_mb"] = peak_rss_mb();
    result.note("block join (main): " + describe_latency(block_ms));
    result.note("dense slice joins (side): " + describe_latency(dense_ms));
  } else {
    // Untraced base joins, then registry rows around one more.
    iterate_for(args.seconds * 0.4);
    const double base_ms = percentile(block_ms, 50.0);
    const auto& registry = fbf::telemetry::Registry::global();
    const fbf::telemetry::MetricsSnapshot before = fbf::telemetry::capture(registry);
    const double t0 = now_ms();
    const c::JoinStats own = fbf::core::match_strings(left, right, block);
    block_ms.push_back(now_ms() - t0);
    char split[160];
    std::snprintf(split, sizeof split,
                  "match_strings own split: signatures + index %.1f ms, "
                  "join %.1f ms, wall %.1f ms",
                  own.signature_gen_ms, own.join_ms, block_ms.back());
    result.note(split);
    const fbf::telemetry::MetricsSnapshot after = fbf::telemetry::capture(registry);
    const auto delta = [&](const char* name) {
      return counter_delta(before, after, name);
    };
    const double candidates = delta("pipeline.candidates_generated");
    const double evaluated = delta("pipeline.fbf_evaluated");
    const double passed = delta("pipeline.fbf_pass");
    const double verified = delta("pipeline.verify_calls");

    std::vector<Decomposed> runs;
    const double stop = now_ms() + args.seconds * 400.0;
    while (runs.size() < 2 || now_ms() < stop) {
      runs.push_back(decomposed_join(left, right));
      if (runs.back().matches != matches) {
        result.fail("decomposed join found " + std::to_string(runs.back().matches) +
                    " matches, match_strings " + std::to_string(matches));
      }
    }
    const auto median_of = [&](double Decomposed::*field) {
      std::vector<double> values;
      for (const Decomposed& d : runs) {
        values.push_back(d.*field);
      }
      return percentile(values, 50.0);
    };
    const double threads = static_cast<double>(kThreads);
    const double generate_ms = median_of(&Decomposed::generate_ms) / threads;
    const double filter_ms = median_of(&Decomposed::filter_ms) / threads;
    const double verify_ms = median_of(&Decomposed::verify_ms) / threads;
    const double build_ms = median_of(&Decomposed::index_build_ms);
    auto& m = result.metrics;
    m["generate.build_ms"] = build_ms;
    m["generate.ms"] = generate_ms;
    m["generate.selectivity"] =
        ratio(candidates, static_cast<double>(kN) * static_cast<double>(kN));
    m["filter.ms"] = filter_ms;
    m["filter.lanes_per_s"] =
        ratio(static_cast<double>(runs.front().candidates),
              median_of(&Decomposed::filter_ms) / 1000.0);
    m["filter.pass_ratio"] = ratio(passed, evaluated);
    m["verify.ms"] = verify_ms;
    m["verify.calls"] = ratio(verified, static_cast<double>(kN));  // per left row
    m["verify.match_ratio"] = ratio(static_cast<double>(matches), verified);
    m["join.tile_ratio"] = ratio(median_of(&Decomposed::pipeline_build_ms) +
                                     build_ms + generate_ms + filter_ms + verify_ms,
                                 base_ms);
    m["trace.base_ms"] = base_ms;
    m["trace.overhead_ratio"] = ratio(median_of(&Decomposed::wall_ms), base_ms);
    result.note("base block join: " + describe_latency(block_ms));
    char line[200];
    std::snprintf(line, sizeof line,
                  "decomposed join (ms, per thread): planes %.1f, index build "
                  "%.1f, generate %.1f, filter %.1f, verify %.1f, wall %.1f",
                  median_of(&Decomposed::pipeline_build_ms), build_ms,
                  generate_ms, filter_ms, verify_ms,
                  median_of(&Decomposed::wall_ms));
    result.note(line);
  }
  return result;
}

}  // namespace perfbench
