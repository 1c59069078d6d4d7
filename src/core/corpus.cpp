#include "core/corpus.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace fbf::core {

namespace {

/// The index covers a multiple of this many rows, so the tail sweep
/// starts on a bitmap word boundary (CandidatePipeline::sweep).
constexpr std::size_t kIndexAlign = 64;

}  // namespace

MatchCorpus::MatchCorpus(const QueryOptions& options,
                         std::span<const std::string> values)
    : options_(options), pipeline_(make_pipeline_config(options)) {
  if (options_.exec.threads > 1) {
    pool_ = std::make_unique<fbf::util::ThreadPool>(options_.exec.threads);
  }
  // The gates match_strings applies: the index covers { OSA <= k }, so it
  // needs a verifier that decides on the edit distance, and a k the
  // pigeonhole construction supports.
  use_index_ =
      select_generator(options_.exec.generator) == GeneratorKind::kBlockIndex &&
      method_verifier(options_.method) != Verifier::kNone &&
      BlockIndexGenerator::supported(options_.k);
  append(values);
}

MatchCorpus::~MatchCorpus() { stop_build(); }

void MatchCorpus::stop_build() {
  if (builder_.joinable()) {
    builder_.request_stop();
    builder_.join();
  }
}

void MatchCorpus::append(std::span<const std::string> values) {
  // The build reads values_: it must be gone before they change.
  stop_build();
  pipeline_.append(values, options_.exec.threads);
  values_.insert(values_.end(), values.begin(), values.end());
  const std::lock_guard<std::mutex> lock(index_mu_);
  build_due_ = use_index_;
}

std::shared_ptr<const BlockIndexGenerator> MatchCorpus::demand_index() const {
  if (!use_index_) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(index_mu_);
  if (build_due_) {
    build_due_ = false;
    const std::size_t rows = values_.size() / kIndexAlign * kIndexAlign;
    if (rows > (index_ ? index_->size() : 0)) {
      building_ = true;
      const fbf::util::Stopwatch since_demand;
      builder_ = std::jthread([this, rows, since_demand](std::stop_token stop) {
        std::optional<BlockIndexGenerator> built;
        std::exception_ptr error;
        try {
          built = BlockIndexGenerator::build(
              options_.k, std::span<const std::string>(values_).first(rows),
              1, std::move(stop));
        } catch (...) {
          // Queries stay on the dense route; wait_for_index reports it.
          error = std::current_exception();
        }
        const std::lock_guard<std::mutex> done(index_mu_);
        building_ = false;
        build_error_ = error;
        if (built.has_value()) {
          index_ = std::make_shared<const BlockIndexGenerator>(
              std::move(*built));
          if (fbf::telemetry::enabled()) {
            static fbf::telemetry::Histogram& ready =
                fbf::telemetry::Registry::global().histogram(
                    "corpus.index_ready_ms");
            ready.record(since_demand.elapsed_ms());
          }
        }
        build_done_.notify_all();
      });
    }
  }
  return index_;
}

std::size_t MatchCorpus::indexed_rows() const {
  const std::lock_guard<std::mutex> lock(index_mu_);
  return index_ ? index_->size() : 0;
}

void MatchCorpus::wait_for_index() const {
  (void)demand_index();
  std::unique_lock<std::mutex> lock(index_mu_);
  build_done_.wait(lock, [this] { return !building_; });
  if (build_error_) {
    std::rethrow_exception(std::exchange(build_error_, nullptr));
  }
}

CorpusResult MatchCorpus::query(std::string_view query) const {
  CorpusResult result;
  answer({&query, 1}, demand_index().get(), &result);
  return result;
}

std::vector<CorpusResult> MatchCorpus::query_batch(
    std::span<const std::string> queries) const {
  const std::shared_ptr<const BlockIndexGenerator> index = demand_index();
  const std::vector<std::string_view> views(queries.begin(), queries.end());
  std::vector<CorpusResult> results(queries.size());
  const std::size_t workers =
      pool_ ? std::min(pool_->size(), queries.size()) : 1;
  if (workers <= 1) {
    answer(views, index.get(), results.data());
    return results;
  }
  // Parallel path: contiguous query chunks, one per worker.  Each chunk
  // runs the same probe and sweep it would run alone, so the partition
  // cannot change any query's matches or counters — it only lets a
  // coalesced batch use more than one core, which a lone query() cannot
  // (the coalescing payoff bench_serve_latency measures).
  std::lock_guard<std::mutex> lock(batch_mu_);
  const std::size_t chunk = queries.size() / workers;
  const std::size_t extra = queries.size() % workers;
  std::size_t base = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t count = chunk + (w < extra ? 1 : 0);
    pool_->submit([this, &views, &index, base, count, out = results.data()] {
      answer(std::span<const std::string_view>(views).subspan(base, count),
             index.get(), out + base);
    });
    base += count;
  }
  pool_->wait_idle();
  return results;
}

void MatchCorpus::answer(std::span<const std::string_view> queries,
                         const BlockIndexGenerator* index,
                         CorpusResult* results) const {
  const std::size_t indexed = index != nullptr ? index->size() : 0;
  const GeneratorKind served =
      indexed > 0 ? GeneratorKind::kBlockIndex : GeneratorKind::kDense;
  CandidatePipeline::Query block[kMaxBlockQueries];
  PipelineCounters counters[kMaxBlockQueries];
  std::array<std::vector<std::uint32_t>, kMaxBlockQueries> ids;
  // Register blocks of kMaxBlockQueries queries.  Each block checks the
  // index's candidates for the indexed rows (one grouped generate_batch,
  // then one check) and sweeps the remaining rows.  Both drivers keep
  // per-query counters, so results[i] is byte-identical to
  // query(queries[i]) run alone (the serving coalescer's contract).
  for (std::size_t base = 0; base < queries.size(); base += kMaxBlockQueries) {
    const std::size_t n = std::min(queries.size() - base, kMaxBlockQueries);
    const std::span<const std::string_view> group = queries.subspan(base, n);
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = pipeline_.make_query(group[i]);
      counters[i] = PipelineCounters{};
    }
    const auto on_match = [&](std::size_t i, std::uint32_t j) {
      results[base + i].matches.push_back(j);
    };
    if (indexed > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        ids[i].clear();
      }
      index->generate_batch(group, {ids.data(), n});
      pipeline_.check({block, n}, group, values_, {ids.data(), n},
                      {counters, n}, on_match);
    }
    pipeline_.sweep({block, n}, group, values_, indexed, values_.size(),
                    /*eligible=*/nullptr, {counters, n}, on_match);
    for (std::size_t i = 0; i < n; ++i) {
      results[base + i].counters = counters[i];
      results[base + i].generator = served;
    }
  }
}

}  // namespace fbf::core
