// MatchCorpus: the request-level point-lookup engine (DESIGN.md §15).
//
// The join entry points answer "match list S against list T"; a serving
// daemon answers millions of independent "match THIS string against the
// corpus" requests.  MatchCorpus owns the corpus-side pipeline state
// (packed SoA planes via CandidatePipeline) and exposes exactly the two
// shapes a server produces:
//
//   query(s)        -> one point lookup (ids + per-query ladder counters)
//   query_batch(qs) -> Q coalesced lookups: one grouped index probe for
//                      the indexed rows, and ONE plane sweep per tile of
//                      the rest (CandidatePipeline::sweep, Q <=
//                      kMaxBlockQueries per register block), with
//                      per-query counter attribution
//
// Generation follows options.exec.generator through the same gates
// match_strings applies: the block index (DESIGN.md §14) engages when
// select_generator() picks kBlockIndex, a real verifier runs and
// BlockIndexGenerator::supported(k) holds; otherwise every row is swept
// densely.  A published index covers a prefix [0, m) of the corpus: a
// query probes it (generate_batch, then CandidatePipeline::check) and
// sweeps the unindexed tail [m, n).  Before the first publication m = 0, which
// is the dense route.  The index is built on one background thread the
// corpus owns, started by the first query after an append (so appends
// and service start-up never wait for it) and published atomically; an
// append or the destructor cancels a running build and joins it before
// touching the strings it reads.  Match sets are generator-independent
// by the generation contract; counters name the route that produced them
// (CorpusResult::generator).
//
// The batching contract is the whole point: query_batch's per-query
// results AND counters are byte-identical to calling query() once per
// string against the same published index — the serving coalescer can
// merge concurrent requests into Q=8 batches without any client being
// able to tell (property-tested in test_serve.cpp, per generator).
//
// When options.exec.threads > 1, query_batch additionally fans the
// batch's queries across a persistent worker pool — a batch is the
// parallelizable unit a lone query() is not, which is where coalescing
// buys saturation throughput (bench_serve_latency).  Per-query results
// are computed independently, so the partition cannot change them and
// the exec-policy invariance contract (exec_policy.hpp) holds bit for
// bit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/block_index.hpp"
#include "core/candidate_pipeline.hpp"
#include "core/exec_policy.hpp"
#include "core/query_options.hpp"
#include "util/thread_pool.hpp"

namespace fbf::core {

/// One point lookup's answer.
struct CorpusResult {
  std::vector<std::uint32_t> matches;  ///< corpus ids, ascending
  PipelineCounters counters;
  /// kBlockIndex when a published index generated the candidates of the
  /// indexed rows, kDense when every row was swept.
  GeneratorKind generator = GeneratorKind::kDense;
};

class MatchCorpus {
 public:
  explicit MatchCorpus(const QueryOptions& options,
                       std::span<const std::string> values = {});
  /// Cancels and joins a running index build.
  ~MatchCorpus();

  MatchCorpus(const MatchCorpus&) = delete;
  MatchCorpus& operator=(const MatchCorpus&) = delete;

  /// Appends corpus strings (append-only, incremental plane growth).
  /// Cancels a running index build; the next query starts a new one.
  /// Must not race queries (the caller serializes, as for std::vector).
  void append(std::span<const std::string> values);

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const std::string& value(std::size_t i) const noexcept {
    return values_[i];
  }
  [[nodiscard]] std::span<const std::string> values() const noexcept {
    return values_;
  }
  [[nodiscard]] const QueryOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const char* kernel_name() const noexcept {
    return pipeline_.kernel_name();
  }

  /// The route the options select after the soundness gates: kBlockIndex
  /// when queries go through the index once it is published.
  [[nodiscard]] GeneratorKind generator() const noexcept {
    return use_index_ ? GeneratorKind::kBlockIndex : GeneratorKind::kDense;
  }
  /// Rows the published index covers (0 before the first publication and
  /// on the dense route).
  [[nodiscard]] std::size_t indexed_rows() const;
  /// Starts the index build if one is due and blocks until it publishes
  /// or is cancelled; returns at once on the dense route.  Rethrows what
  /// a failed build threw (queries meanwhile stay on the dense route).
  void wait_for_index() const;

  /// One point lookup: every corpus id within the method's match
  /// predicate, plus the full ladder counters the lookup earned.
  [[nodiscard]] CorpusResult query(std::string_view query) const;

  /// Coalesced lookups: the indexed rows through one grouped probe, the
  /// rest through one sweep (one kernel pass per tile for up to
  /// kMaxBlockQueries queries).  result[i] — matches, counters and
  /// generator — is byte-identical to query(queries[i]) run alone
  /// against the same published index.  With exec.threads > 1 the
  /// queries are partitioned across the worker pool (same results, bit
  /// for bit); concurrent query_batch calls on one corpus then serialize
  /// on the pool, so keep one batching caller per corpus (the coalescer
  /// does).
  [[nodiscard]] std::vector<CorpusResult> query_batch(
      std::span<const std::string> queries) const;

 private:
  /// Answers `queries` into results[0, queries.size()): the rows of
  /// `index` (null: none) through check, the rest through sweep.  The
  /// serial path is one call over the whole batch; the parallel path is
  /// one call per worker chunk.
  void answer(std::span<const std::string_view> queries,
              const BlockIndexGenerator* index, CorpusResult* results) const;
  /// The published index (null if none), after starting the background
  /// build when one is due.
  [[nodiscard]] std::shared_ptr<const BlockIndexGenerator> demand_index()
      const;
  /// Cancels and joins the background build, if any.
  void stop_build();

  QueryOptions options_;
  CandidatePipeline pipeline_;
  std::vector<std::string> values_;
  std::unique_ptr<fbf::util::ThreadPool> pool_;  ///< exec.threads > 1 only
  mutable std::mutex batch_mu_;  ///< serializes parallel query_batch calls
  bool use_index_ = false;       ///< the block-index route is engaged

  mutable std::mutex index_mu_;  ///< guards the members below
  mutable std::condition_variable build_done_;
  mutable std::shared_ptr<const BlockIndexGenerator> index_;  ///< published
  mutable bool build_due_ = false;  ///< appended since the last build start
  mutable bool building_ = false;
  mutable std::exception_ptr build_error_;  ///< a failed build's exception
  /// The background build.  Declared last, so it is stopped and joined
  /// before the strings it reads are destroyed.
  mutable std::jthread builder_;
};

}  // namespace fbf::core
