#include "linkage/engine.hpp"

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fbf::linkage {

namespace {

struct Precomputed {
  std::vector<RecordSignatures> left;
  std::vector<RecordSignatures> right;
  double gen_ms = 0.0;
  bool built = false;
};

Precomputed precompute_signatures(std::span<const PersonRecord> left,
                                  std::span<const PersonRecord> right,
                                  const ComparatorConfig& config,
                                  std::size_t threads) {
  Precomputed pre;
  if (!config_uses_fbf(config)) {
    return pre;
  }
  // The Gen phase is timed separately from the pair loop (the paper's Gen
  // row), so it gets its own fan-out across the pool.
  const fbf::util::Stopwatch timer;
  pre.left = build_all_signatures(left, config, threads);
  pre.right = build_all_signatures(right, config, threads);
  pre.gen_ms = timer.elapsed_ms();
  pre.built = true;
  return pre;
}

struct ChunkResult {
  std::uint64_t matches = 0;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  CompareCounters counters;
  std::vector<CandidatePair> match_pairs;
};

void score_one(const PersonRecord& a, const PersonRecord& b,
               const RecordSignatures* sa, const RecordSignatures* sb,
               std::uint32_t i, std::uint32_t j, const LinkConfig& config,
               ChunkResult& out) {
  const double score =
      score_pair(a, b, sa, sb, config.comparator, out.counters);
  if (score >= config.comparator.match_threshold) {
    ++out.matches;
    if (a.id == b.id) {
      ++out.true_positives;
    } else {
      ++out.false_positives;
    }
    if (config.collect_matches) {
      out.match_pairs.emplace_back(i, j);
    }
  }
}

LinkStats finish(std::vector<ChunkResult>& chunks, std::uint64_t pairs,
                 double gen_ms, const fbf::util::Stopwatch& timer) {
  LinkStats stats;
  stats.candidate_pairs = pairs;
  stats.signature_gen_ms = gen_ms;
  for (ChunkResult& chunk : chunks) {
    stats.matches += chunk.matches;
    stats.true_positives += chunk.true_positives;
    stats.false_positives += chunk.false_positives;
    stats.counters.field_comparisons += chunk.counters.field_comparisons;
    stats.counters.candidates_generated +=
        chunk.counters.candidates_generated;
    stats.counters.fbf_evaluations += chunk.counters.fbf_evaluations;
    stats.counters.verify_calls += chunk.counters.verify_calls;
    stats.match_pairs.insert(stats.match_pairs.end(),
                             chunk.match_pairs.begin(),
                             chunk.match_pairs.end());
  }
  stats.link_ms = timer.elapsed_ms();
  return stats;
}

}  // namespace

LinkageContext::LinkageContext(std::span<const PersonRecord> right,
                               const ComparatorConfig& comparator,
                               const core::ExecPolicy& exec)
    : right_(right),
      bank_(comparator, RecordFilterOptions{.generator = exec.generator}) {
  // The signatures live only inside the bank's packed planes: built,
  // appended, freed.
  const fbf::util::Stopwatch timer;
  bank_.append(right, build_all_signatures(right, comparator, exec.threads),
               exec.threads);
  gen_ms_ = timer.elapsed_ms();
}

LinkStats link_candidates(std::span<const PersonRecord> left,
                          std::span<const PersonRecord> right,
                          std::span<const CandidatePair> pairs,
                          const LinkConfig& config) {
  const Precomputed pre =
      precompute_signatures(left, right, config.comparator, config.exec.threads);
  const fbf::util::Stopwatch timer;
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min(config.exec.threads, pairs.size()));
  std::vector<ChunkResult> chunks(n_chunks);
  fbf::util::parallel_chunks(
      pairs.size(), config.exec.threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ChunkResult& out = chunks[chunk];
        for (std::size_t p = begin; p < end; ++p) {
          const auto [i, j] = pairs[p];
          score_one(left[i], right[j], pre.built ? &pre.left[i] : nullptr,
                    pre.built ? &pre.right[j] : nullptr, i, j, config, out);
        }
      });
  return finish(chunks, pairs.size(), pre.gen_ms, timer);
}

LinkStats link_exhaustive(std::span<const PersonRecord> left,
                          std::span<const PersonRecord> right,
                          const LinkConfig& config) {
  const LinkageContext ctx(right, config.comparator, config.exec);
  LinkStats stats = link_exhaustive(left, ctx, config);
  stats.signature_gen_ms += ctx.gen_ms();
  return stats;
}

LinkStats link_exhaustive(std::span<const PersonRecord> left,
                          const LinkageContext& right_ctx,
                          const LinkConfig& config) {
  const std::span<const PersonRecord> right = right_ctx.right();
  const bool uses_fbf = config_uses_fbf(config.comparator);
  // Left-side generation is per call; the right side was paid once by the
  // context's builder.
  const fbf::util::Stopwatch gen_timer;
  const std::vector<RecordSignatures> left_sigs =
      build_all_signatures(left, config.comparator, config.exec.threads);
  const double gen_ms = gen_timer.elapsed_ms();
  const fbf::util::Stopwatch timer;
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min(config.exec.threads, left.size()));
  std::vector<ChunkResult> chunks(n_chunks);
  fbf::util::parallel_chunks(
      left.size(), config.exec.threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ChunkResult& out = chunks[chunk];
        RecordFilterBank::Scratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
          right_ctx.bank().score_all(left[i],
                                     uses_fbf ? &left_sigs[i] : nullptr,
                                     right.size(), scratch, out.counters);
          for (std::size_t s = 0; s < scratch.ids.size(); ++s) {
            if (scratch.scores[s] >= config.comparator.match_threshold) {
              const std::uint32_t j = scratch.ids[s];
              ++out.matches;
              if (left[i].id == right[j].id) {
                ++out.true_positives;
              } else {
                ++out.false_positives;
              }
              if (config.collect_matches) {
                out.match_pairs.emplace_back(static_cast<std::uint32_t>(i), j);
              }
            }
          }
        }
      });
  return finish(chunks,
                static_cast<std::uint64_t>(left.size()) * right.size(),
                gen_ms, timer);
}

}  // namespace fbf::linkage
