#include "core/match_join.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <utility>

#include "core/block_index.hpp"
#include "core/candidate_pipeline.hpp"
#include "metrics/damerau.hpp"
#include "metrics/hamming.hpp"
#include "metrics/jaro.hpp"
#include "metrics/length_filter.hpp"
#include "metrics/myers.hpp"
#include "metrics/pdl.hpp"
#include "metrics/soundex.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fbf::core {

namespace {

namespace m = fbf::metrics;

/// Evaluates one pair through the non-FBF ladder (length filter +
/// verifier only; FBF methods run through CandidatePipeline instead).
template <bool kUseLength, typename VerifyFn>
inline bool evaluate_pair(std::string_view s, std::string_view t, int k,
                          Verifier verifier, const VerifyFn& verify,
                          JoinStats& stats) {
  if constexpr (kUseLength) {
    if (!m::length_filter_pass(s, t, k)) {
      return false;
    }
    ++stats.length_pass;
  }
  if (verifier == Verifier::kNone) {
    return true;  // filter-only methods report survivors as matches
  }
  ++stats.verify_calls;
  return verify(s, t, k);
}

/// Counts one matching pair (i, j) into `local`.
inline void record_match(JoinStats& local, std::size_t i, std::size_t j,
                         bool collect) {
  ++local.matches;
  if (i == j) {
    ++local.diagonal_matches;
  }
  if (collect) {
    local.match_pairs.emplace_back(static_cast<std::uint32_t>(i),
                                   static_cast<std::uint32_t>(j));
  }
}

/// Adds per-query ladders into `local`.
void add_ladders(JoinStats& local, std::span<const PipelineCounters> ladders) {
  PipelineCounters sum;
  for (const PipelineCounters& c : ladders) {
    sum.merge(c);
  }
  local.candidates_generated += sum.candidates_generated;
  local.length_pass += sum.length_pass;
  local.fbf_evaluated += sum.fbf_evaluated;
  local.fbf_pass += sum.fbf_pass;
  local.verify_calls += sum.verify_calls;
}

/// Runs `tile_fn(i0, i1, j0, j1, local)` over every 2D tile of the S x T
/// pair space.  Tiles are the thread-pool work unit (contiguous tile-id
/// ranges per chunk), so skewed shapes (|S| << |T|) still spread across
/// every thread.  Chunk stats are merged in chunk order and counters are
/// integer sums, so totals are deterministic for any thread count.
template <typename MakeTileFn>
void run_tile_space(std::size_t n_left, std::size_t n_right,
                    std::size_t threads, JoinStats& stats,
                    const MakeTileFn& make_tile_fn) {
  const std::size_t col_tiles = (n_right + kTileCols - 1) / kTileCols;
  const std::size_t n_tiles = join_tile_count(n_left, n_right);
  stats.tiles = n_tiles;
  if (n_tiles == 0) {
    return;
  }
  std::vector<JoinStats> chunk_stats(
      std::max<std::size_t>(1, std::min(threads, n_tiles)));
  fbf::util::parallel_chunks(
      n_tiles, threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        JoinStats& local = chunk_stats[chunk];
        auto tile_fn = make_tile_fn();
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t i0 = (t / col_tiles) * kTileRows;
          const std::size_t j0 = (t % col_tiles) * kTileCols;
          tile_fn(i0, std::min(i0 + kTileRows, n_left), j0,
                  std::min(j0 + kTileCols, n_right), local);
        }
      });
  for (const JoinStats& local : chunk_stats) {
    stats.merge_counts(local);
  }
}

/// Generic path: per-pair kernel looped over a tile.
template <typename MakeKernel>
void run_pair_tiles(std::size_t n_left, std::size_t n_right,
                    std::size_t threads, bool collect, JoinStats& stats,
                    const MakeKernel& make_kernel) {
  run_tile_space(n_left, n_right, threads, stats, [&] {
    return [kernel = make_kernel(), collect](
               std::size_t i0, std::size_t i1, std::size_t j0,
               std::size_t j1, JoinStats& local) {
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          if (kernel(i, j, local)) {
            record_match(local, i, j, collect);
          }
        }
      }
    };
  });
}

/// FBF tile body: the tile's left rows, as row-queries, through one
/// sweep of the right pipeline over the tile's columns.  The sweep runs
/// them in register blocks of kMaxBlockQueries, so each packed plane word
/// of the tile is loaded once per block (the per-pair fallback just
/// loops — the pipeline decides).  A worker takes its tiles row band by
/// row band (run_tile_space walks them row-major), so a band's queries
/// are built once, not once per tile.  Counter semantics are the scalar
/// ladder's, bit for bit (see core/candidate_pipeline.hpp).
auto make_pipeline_tile(const CandidatePipeline& pipe_left,
                        const CandidatePipeline& pipe_right,
                        std::span<const std::string> left,
                        std::span<const std::string> right, bool collect) {
  return [&pipe_left, &pipe_right, left, right, collect,
          band = left.size(),  // no band built yet
          queries = std::vector<CandidatePipeline::Query>(kTileRows),
          texts = std::vector<std::string_view>(kTileRows),
          counters = std::vector<PipelineCounters>(kTileRows)](
             std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
             JoinStats& local) mutable {
    const std::size_t n = i1 - i0;
    if (i0 != band) {
      band = i0;
      for (std::size_t b = 0; b < n; ++b) {
        queries[b] = pipe_left.row_query(i0 + b);
        texts[b] = left[i0 + b];
      }
    }
    std::fill_n(counters.begin(), n, PipelineCounters{});
    pipe_right.sweep({queries.data(), n}, {texts.data(), n}, right, j0, j1,
                     nullptr, {counters.data(), n},
                     [&](std::size_t b, std::uint32_t j) {
                       record_match(local, i0 + b, j, collect);
                     });
    add_ladders(local, {counters.data(), n});
  };
}

/// Indexed FBF join body: probe the block index, then check the
/// candidate ids through the right pipeline.  The work unit is a block
/// of kBlock left rows: each worker claims the next unclaimed block until
/// none is left, so a worker that a busy core slows down takes fewer
/// blocks instead of holding up the join.  Per-block stats merge in block
/// order, so counters and the (already ascending) match pairs are
/// identical for any thread count and claim order — and, by the generator
/// soundness contract, identical to the dense tile sweep's.
///
/// The probe is a chain of dependent cache misses, so a block's rows go
/// through it in groups of BlockIndexGenerator::kProbeGroup: one batched
/// generate for the group, then one check, which prefetches every
/// candidate's plane row and string before it filters and verifies row
/// by row in ascending order.  Grouping changes when lines are loaded,
/// never which pairs are evaluated or in what order.
void run_indexed_join(const BlockIndexGenerator& gen,
                      const CandidatePipeline& pipe_left,
                      const CandidatePipeline& pipe_right,
                      std::span<const std::string> left,
                      std::span<const std::string> right,
                      std::size_t threads, bool collect, JoinStats& stats) {
  constexpr std::size_t kGroup = BlockIndexGenerator::kProbeGroup;
  // 256 rows: ~800 blocks at 200k rows keep the last claims short, and
  // each block's merge is one append.
  constexpr std::size_t kBlock = 16 * kGroup;
  const std::size_t n_blocks = (left.size() + kBlock - 1) / kBlock;
  const std::size_t n_workers =
      std::max<std::size_t>(1, std::min(threads, n_blocks));
  stats.tiles = n_blocks;
  std::vector<JoinStats> block_stats(n_blocks);
  std::atomic<std::size_t> next_block{0};
  fbf::util::parallel_chunks(
      n_workers, n_workers, [&](std::size_t, std::size_t, std::size_t) {
        CandidatePipeline::Query queries[kGroup];
        std::string_view texts[kGroup];
        std::vector<std::uint32_t> ids[kGroup];
        for (std::size_t blk = next_block++; blk < n_blocks;
             blk = next_block++) {
          const std::size_t begin = blk * kBlock;
          const std::size_t end = std::min(begin + kBlock, left.size());
          JoinStats local;
          PipelineCounters counters[kGroup];
          for (std::size_t g = begin; g < end; g += kGroup) {
            const std::size_t n = std::min(kGroup, end - g);
            for (std::size_t b = 0; b < n; ++b) {
              queries[b] = pipe_left.row_query(g + b);
              texts[b] = left[g + b];
              ids[b].clear();
            }
            gen.generate_batch({texts, n}, {ids, n});
            pipe_right.check({queries, n}, {texts, n}, right, {ids, n},
                             {counters, n},
                             [&](std::size_t b, std::uint32_t j) {
                               record_match(local, g + b, j, collect);
                             });
          }
          add_ladders(local, counters);
          block_stats[blk] = std::move(local);
        }
      });
  for (const JoinStats& local : block_stats) {
    stats.merge_counts(local);
  }
}

bool verify_dl(std::string_view s, std::string_view t, int k) {
  return m::dl_within(s, t, k);
}
bool verify_pdl(std::string_view s, std::string_view t, int k) {
  return m::pdl_within(s, t, k);
}

}  // namespace

void JoinStats::merge_counts(const JoinStats& other) {
  candidates_generated += other.candidates_generated;
  length_pass += other.length_pass;
  fbf_evaluated += other.fbf_evaluated;
  fbf_pass += other.fbf_pass;
  verify_calls += other.verify_calls;
  matches += other.matches;
  diagonal_matches += other.diagonal_matches;
  match_pairs.insert(match_pairs.end(), other.match_pairs.begin(),
                     other.match_pairs.end());
}

JoinStats match_strings(std::span<const std::string> left,
                        std::span<const std::string> right,
                        const JoinConfig& config) {
  JoinStats stats;
  stats.pairs =
      static_cast<std::uint64_t>(left.size()) * right.size();

  const bool uses_fbf = method_uses_fbf(config.method);
  const bool uses_length = method_uses_length(config.method);
  const Verifier verifier = method_verifier(config.method);
  const int k = config.k;

  // Precomputation phase (the Gen row): FBF methods build both sides'
  // pipelines (packed planes or classic signatures — the pipeline picks
  // per layout); Soundex pre-encodes both lists.
  std::optional<CandidatePipeline> pipe_left;
  std::optional<CandidatePipeline> pipe_right;
  std::optional<BlockIndexGenerator> block_gen;
  std::vector<std::string> sdx_left;
  std::vector<std::string> sdx_right;
  if (uses_fbf) {
    PipelineConfig pcfg;
    pcfg.field_class = config.field_class;
    pcfg.alpha_words = config.alpha_words;
    pcfg.k = k;
    pcfg.use_length = uses_length;
    pcfg.verifier = verifier;
    pipe_left.emplace(pcfg, left, config.threads);
    pipe_right.emplace(pcfg, right, config.threads);
    stats.signature_gen_ms = pipe_left->build_ms() + pipe_right->build_ms();
    stats.kernel = pipe_right->kernel_name();
    // Soundness gate for indexed generation: the block index covers
    // { OSA <= k }, not the FBF pass-set, so filter-only methods
    // (Verifier::kNone reports survivors as matches) must stay dense —
    // as must k outside the supported pigeonhole range.  The gate runs
    // after the FBF_FORCE_GENERATOR override so forcing "block" can
    // never change answers, only engage the index where it is sound.
    if (select_generator(config.generator) == GeneratorKind::kBlockIndex &&
        verifier != Verifier::kNone && BlockIndexGenerator::supported(k)) {
      const fbf::util::Stopwatch index_timer;
      block_gen.emplace(k, right, config.threads);
      const double index_ms = index_timer.elapsed_ms();
      stats.signature_gen_ms += index_ms;
      stats.generator = block_gen->name();
      if (fbf::telemetry::enabled()) {
        static fbf::telemetry::Histogram& index_build =
            fbf::telemetry::Registry::global().histogram(
                "join.index_build_ms");
        index_build.record(index_ms);
      }
    }
  } else if (config.method == Method::kSoundex) {
    const fbf::util::Stopwatch gen_timer;
    sdx_left.reserve(left.size());
    for (const std::string& s : left) {
      sdx_left.push_back(m::soundex(s));
    }
    sdx_right.reserve(right.size());
    for (const std::string& t : right) {
      sdx_right.push_back(m::soundex(t));
    }
    stats.signature_gen_ms = gen_timer.elapsed_ms();
  }

  const fbf::util::Stopwatch join_timer;
  const auto run = [&](const auto& make_kernel) {
    run_pair_tiles(left.size(), right.size(), config.threads,
                   config.collect_matches, stats, make_kernel);
  };

  switch (config.method) {
    case Method::kJaro:
      run([&] {
        return [&](std::size_t i, std::size_t j, JoinStats&) {
          return m::jaro(left[i], right[j]) >= config.sim_threshold;
        };
      });
      break;
    case Method::kWink:
      run([&] {
        return [&](std::size_t i, std::size_t j, JoinStats&) {
          return m::jaro_winkler(left[i], right[j]) >= config.sim_threshold;
        };
      });
      break;
    case Method::kHamming:
      run([&] {
        return [&](std::size_t i, std::size_t j, JoinStats&) {
          return m::hamming_within(left[i], right[j], k);
        };
      });
      break;
    case Method::kSoundex:
      run([&] {
        return [&](std::size_t i, std::size_t j, JoinStats&) {
          return !sdx_left[i].empty() && sdx_left[i] == sdx_right[j];
        };
      });
      break;
    case Method::kMyers:
      run([&] {
        return [&](std::size_t i, std::size_t j, JoinStats&) {
          return m::myers_within(left[i], right[j], k);
        };
      });
      break;
    default: {
      if (uses_fbf) {
        const bool collect = config.collect_matches;
        if (block_gen) {
          const fbf::util::Stopwatch probe_timer;
          run_indexed_join(*block_gen, *pipe_left, *pipe_right, left, right,
                           config.threads, collect, stats);
          if (fbf::telemetry::enabled()) {
            static fbf::telemetry::Histogram& probe =
                fbf::telemetry::Registry::global().histogram(
                    "join.probe_ms");
            probe.record(probe_timer.elapsed_ms());
          }
          break;
        }
        run_tile_space(left.size(), right.size(), config.threads, stats,
                       [&] {
                         return make_pipeline_tile(*pipe_left, *pipe_right,
                                                   left, right, collect);
                       });
        break;
      }
      // Length-filter / verifier-only ladder (kL* methods without FBF,
      // bare DL / PDL).  The verifier callable is chosen once.
      const auto dispatch = [&](auto use_length, const auto& verify) {
        run([&] {
          return [&, verify](std::size_t i, std::size_t j, JoinStats& local) {
            return evaluate_pair<decltype(use_length)::value>(
                left[i], right[j], k, verifier, verify, local);
          };
        });
      };
      using std::bool_constant;
      const auto pick_verifier = [&](auto use_length) {
        if (verifier == Verifier::kDl) {
          dispatch(use_length, verify_dl);
        } else {
          dispatch(use_length, verify_pdl);
        }
      };
      if (uses_length) {
        pick_verifier(bool_constant<true>{});
      } else {
        pick_verifier(bool_constant<false>{});
      }
      break;
    }
  }
  // Tiles visit the pair space out of row-major order; restore the
  // documented ascending (i, j) ordering so collect_matches output is
  // byte-identical across thread counts and tile shapes.  The indexed
  // route's blocks merge in row order, so its pairs already arrive
  // sorted, and sorting them again would cost far more than the check.
  if (!std::is_sorted(stats.match_pairs.begin(), stats.match_pairs.end())) {
    std::sort(stats.match_pairs.begin(), stats.match_pairs.end());
  }
  stats.join_ms = join_timer.elapsed_ms();
  if (fbf::telemetry::enabled()) {
    // Join-level mirror (the ladder rungs were already mirrored by the
    // pipeline entry points): one run, its match yield.
    auto& registry = fbf::telemetry::Registry::global();
    static fbf::telemetry::Counter& runs = registry.counter("join.runs");
    static fbf::telemetry::Counter& matches =
        registry.counter("join.matches");
    runs.increment();
    matches.add(stats.matches);
  }
  return stats;
}

}  // namespace fbf::core
