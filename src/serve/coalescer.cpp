#include "serve/coalescer.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace fbf::serve {

namespace u = fbf::util;

using Clock = std::chrono::steady_clock;

struct BatchCoalescer::Pending {
  std::string query;
  /// telemetry::current_trace() of the submitter, captured at admission:
  /// the leader records this query's batch span under it, whichever
  /// thread leads.
  std::uint64_t trace = 0;
  Clock::time_point queued;  ///< admission time; set when telemetry is on
  std::optional<u::Result<core::CorpusResult>> result;  ///< set once answered
  std::condition_variable cv;  ///< answered, or handed the lead
};

BatchCoalescer::BatchCoalescer(BatchFn fn, CoalescerOptions options)
    : fn_(std::move(fn)), options_(options) {
  options_.max_batch = std::max<std::size_t>(options_.max_batch, 1);
}

BatchCoalescer::~BatchCoalescer() { stop(); }

u::Result<core::CorpusResult> BatchCoalescer::submit(std::string query) {
  Pending self;
  self.query = std::move(query);
  self.trace = telemetry::current_trace();
  self.queued = telemetry::enabled() ? Clock::now() : Clock::time_point{};
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    return u::Status::unavailable("coalescer stopped");
  }
  ++stats_.queries;
  pending_.push_back(&self);
  // Lead whenever no batch is running, until this query is answered: by
  // our own batch, by another leader's, or by stop().
  for (;;) {
    self.cv.wait(lock, [&] { return self.result.has_value() || !running_; });
    if (self.result.has_value()) {
      return std::move(*self.result);
    }
    lead(lock);
  }
}

void BatchCoalescer::lead(std::unique_lock<std::mutex>& lock) noexcept {
  running_ = true;
  const std::size_t take = std::min(pending_.size(), options_.max_batch);
  const auto end = pending_.begin() + static_cast<std::ptrdiff_t>(take);
  const std::vector<Pending*> batch(pending_.begin(), end);
  pending_.erase(pending_.begin(), end);
  ++stats_.batches;
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, take);
  stats_.coalesced += take > 1 ? take : 0;
  const bool timed = telemetry::enabled();
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  std::vector<std::string> queries;
  for (Pending* p : batch) {
    queries.push_back(std::move(p->query));
    if (timed && p->queued != Clock::time_point{}) {
      static telemetry::Histogram& wait_ms =
          telemetry::Registry::global().histogram("serve.coalescer.wait_ms");
      wait_ms.record(
          std::chrono::duration<double, std::milli>(start - p->queued)
              .count());
    }
  }
  lock.unlock();

  // Members stay blocked in submit() until their result is published
  // below, so their entries (on their stacks) are safe to read here.
  std::vector<core::CorpusResult> results;
  {
    // Nothing inside the batch belongs to the leader's own request.
    const telemetry::ScopedTrace untraced(0);
    results = fn_(queries);
  }
  for (std::size_t i = 0; i < take; ++i) {
    if (telemetry::trace_enabled() && batch[i]->trace != 0) {
      telemetry::SpanRecord span;
      span.trace = batch[i]->trace;
      span.name = "serve.batch";
      span.attempt = static_cast<std::uint32_t>(take);
      span.ok = i < results.size();
      telemetry::Registry::global().record_span(std::move(span));
    }
  }

  lock.lock();
  for (std::size_t i = 0; i < take; ++i) {
    batch[i]->result = i < results.size()
        ? u::Result<core::CorpusResult>(std::move(results[i]))
        : u::Status::unavailable("batch function returned short");
    batch[i]->cv.notify_one();
  }
  running_ = false;
  // Hand the lead to the oldest waiter (a no-op when that is this leader,
  // which then leads again).
  if (!pending_.empty()) {
    pending_.front()->cv.notify_one();
  }
  if (stopping_) {
    idle_cv_.notify_all();
  }
}

void BatchCoalescer::stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  for (Pending* p : pending_) {
    p->result = u::Status::unavailable("coalescer stopped");
    p->cv.notify_one();
  }
  pending_.clear();
  idle_cv_.wait(lock, [this] { return !running_; });
}

CoalescerStats BatchCoalescer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fbf::serve
