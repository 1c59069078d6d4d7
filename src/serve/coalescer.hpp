// BatchCoalescer: gathers concurrent point queries into kernel batches
// (DESIGN.md §15).
//
// The batched tile kernel amortizes every packed plane load across up to
// kMaxBlockQueries queries, but an online daemon receives queries one at
// a time on independent connections.  The coalescer closes that gap as a
// leader/follower combiner ("flat combining", Hendler et al., SPAA 2010)
// with no thread of its own: a submitter parks its query on a FIFO queue;
// if no batch is running it becomes the *leader* and runs up to
// `max_batch` pending queries through one BatchFn call on its own thread
// (MatchCorpus::query_batch downstream), then publishes every member's
// result.  Queries that arrive while a batch runs form the next batch,
// led by the same leader until its own query is answered, then by the
// oldest waiter — so no query waits longer than the batches queued ahead
// of it, and a lone query runs the moment it arrives.
//
// Two properties carry the design:
//
//  * Invisibility — the BatchFn contract (per-query counter attribution
//    in the pipeline drivers) means each submit() returns exactly the
//    result and ladder counters a solo query would have produced.  Batching is a
//    throughput optimization, never an observable behavior change
//    (property-tested under fuzzed arrival orders in test_serve.cpp).
//  * One admission budget — the coalescer admits every submit().  Each
//    pending query is a request inside MatchService::handle(), so the
//    service-wide in-flight budget (ServiceOptions::max_inflight) bounds
//    the queue; a second cap here could never fire behind it.
//
// At saturation coalescing is self-reinforcing: while one batch runs,
// arrivals accumulate, so the next batch is fuller — Q rises with load
// exactly when the kernel amortization pays most.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "core/fbf_kernel.hpp"
#include "util/status.hpp"

namespace fbf::serve {

struct CoalescerOptions {
  /// Queries per batch; the default is one full kernel register block.
  std::size_t max_batch = core::kMaxBlockQueries;
};

struct CoalescerStats {
  std::uint64_t batches = 0;   ///< BatchFn calls
  std::uint64_t queries = 0;   ///< queries admitted
  std::uint64_t coalesced = 0; ///< queries that shared a batch with others
  std::uint64_t max_batch = 0; ///< largest batch run
};

class BatchCoalescer {
 public:
  /// Runs one batch of queries; result[i] answers queries[i].  Called on
  /// the leading submitter's thread, never concurrently with itself and
  /// with no trace installed (telemetry::current_trace() == 0).  It may
  /// take locks of its own but must neither throw nor call submit().
  using BatchFn = std::function<std::vector<core::CorpusResult>(
      std::span<const std::string> queries)>;

  explicit BatchCoalescer(BatchFn fn, CoalescerOptions options = {});
  ~BatchCoalescer();

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Submits one query and returns once its batch has run — possibly on
  /// this thread.  Fails with kUnavailable after stop().
  [[nodiscard]] fbf::util::Result<core::CorpusResult> submit(
      std::string query);

  /// Fails queued queries with kUnavailable and returns once a running
  /// batch (if any) has finished.  Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] CoalescerStats stats() const;

 private:
  /// One queued query.  Lives on its submitter's stack until answered.
  struct Pending;

  /// Runs one batch from the queue front as leader; `lock` is held on
  /// entry and exit, released around the BatchFn.
  void lead(std::unique_lock<std::mutex>& lock) noexcept;

  BatchFn fn_;
  CoalescerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  ///< a batch finished (stop() waits)
  std::deque<Pending*> pending_;
  bool running_ = false;  ///< a leader is inside lead()
  bool stopping_ = false;
  CoalescerStats stats_;
};

}  // namespace fbf::serve
