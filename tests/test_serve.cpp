// Serve-layer properties (DESIGN.md §15): the coalescing contract
// (batched Q>1 byte-identical to sequential Q=1), overload/backpressure,
// kill-mid-ingest durability, and quarantine triage over the protocol.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <latch>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/corpus.hpp"
#include "datagen/dataset.hpp"
#include "linkage/person_gen.hpp"
#include "metrics/pdl.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/coalescer.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"
#include "testenv.hpp"
#include "util/rng.hpp"

namespace c = fbf::core;
namespace d = fbf::datagen;
namespace l = fbf::linkage;
namespace s = fbf::serve;
namespace t = fbf::telemetry;
namespace u = fbf::util;

namespace {

void expect_result_eq(const c::CorpusResult& got, const c::CorpusResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.matches, want.matches) << label;
  EXPECT_EQ(got.counters.candidates_generated,
            want.counters.candidates_generated)
      << label;
  EXPECT_EQ(got.counters.length_pass, want.counters.length_pass) << label;
  EXPECT_EQ(got.counters.fbf_evaluated, want.counters.fbf_evaluated) << label;
  EXPECT_EQ(got.counters.fbf_pass, want.counters.fbf_pass) << label;
  EXPECT_EQ(got.counters.verify_calls, want.counters.verify_calls) << label;
  EXPECT_EQ(got.generator, want.generator) << label;
}

constexpr c::GeneratorKind kGenerators[] = {c::GeneratorKind::kDense,
                                            c::GeneratorKind::kBlockIndex};

std::string generator_label(c::GeneratorKind kind) {
  return std::string("generator=") + c::generator_name(kind);
}

/// Matches of `query` by brute-force pdl_within over `corpus`.
std::vector<std::uint32_t> brute_force(std::span<const std::string> corpus,
                                       const std::string& query, int k) {
  std::vector<std::uint32_t> ids;
  for (std::size_t j = 0; j < corpus.size(); ++j) {
    if (fbf::metrics::pdl_within(query, corpus[j], k)) {
      ids.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return ids;
}

d::PairedDataset make_dataset(std::size_t n, std::uint64_t seed) {
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, n, seed);
  EXPECT_TRUE(built.ok());
  return std::move(built.value());
}

/// Polls `done` for up to ten seconds; false on timeout.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

// --- MatchCorpus: query_batch == sequential query ----------------------
//
// Per generator: on the block-index route the comparison waits for the
// background index, so batch and solo see the same published index.

TEST(MatchCorpus, BatchedIdenticalToSequentialAcrossMethodsAndSizes) {
  const d::PairedDataset dataset = make_dataset(700, 11);
  for (const c::GeneratorKind generator : kGenerators) {
    for (const c::Method method :
         {c::Method::kFpdl, c::Method::kFbfOnly, c::Method::kLfpdl}) {
      c::QueryOptions options;
      options.method = method;
      options.exec.generator = generator;
      const c::MatchCorpus corpus(options, dataset.clean);
      corpus.wait_for_index();
      // Q spanning: lone query, partial block, full block, several blocks.
      for (const std::size_t q : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{21}}) {
        const std::span<const std::string> queries(dataset.error.data(), q);
        const std::vector<c::CorpusResult> batched =
            corpus.query_batch(queries);
        ASSERT_EQ(batched.size(), q);
        for (std::size_t i = 0; i < q; ++i) {
          expect_result_eq(
              batched[i], corpus.query(queries[i]),
              generator_label(generator) +
                  " method=" + std::to_string(static_cast<int>(method)) +
                  " q=" + std::to_string(q) + " i=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(MatchCorpus, BatchedIdenticalInPerPairFallbackMode) {
  const d::PairedDataset dataset = make_dataset(300, 12);
  for (const c::GeneratorKind generator : kGenerators) {
    c::QueryOptions options;
    options.alpha_words = 3;  // l = 3 alpha cannot pack: per-pair fallback
    options.exec.generator = generator;
    const c::MatchCorpus corpus(options, dataset.clean);
    corpus.wait_for_index();
    ASSERT_STREQ(corpus.kernel_name(), "pair-scalar");
    const std::span<const std::string> queries(dataset.error.data(), 13);
    const std::vector<c::CorpusResult> batched = corpus.query_batch(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_result_eq(batched[i], corpus.query(queries[i]),
                       generator_label(generator) +
                           " fallback i=" + std::to_string(i));
    }
  }
}

TEST(MatchCorpus, BatchedIdenticalAcrossExecThreads) {
  // exec-policy invariance (exec_policy.hpp): fanning a batch across a
  // worker pool partitions the queries but cannot change any query's
  // matches or counters — the parallel batch must equal the serial
  // corpus query for query, bit for bit.
  const d::PairedDataset dataset = make_dataset(600, 14);
  for (const c::GeneratorKind generator : kGenerators) {
    c::QueryOptions serial;
    serial.exec.generator = generator;
    const c::MatchCorpus reference(serial, dataset.clean);
    reference.wait_for_index();
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      c::QueryOptions options = serial;
      options.exec.threads = threads;
      const c::MatchCorpus corpus(options, dataset.clean);
      corpus.wait_for_index();
      for (const std::size_t q : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}, std::size_t{26}}) {
        const std::span<const std::string> queries(dataset.error.data(), q);
        const std::vector<c::CorpusResult> batched =
            corpus.query_batch(queries);
        ASSERT_EQ(batched.size(), q);
        for (std::size_t i = 0; i < q; ++i) {
          expect_result_eq(batched[i], reference.query(queries[i]),
                           generator_label(generator) +
                               " threads=" + std::to_string(threads) +
                               " q=" + std::to_string(q) +
                               " i=" + std::to_string(i));
        }
      }
    }
  }
}

// --- MatchCorpus: the background block index ---------------------------

/// A corpus on the block-index route unless FBF_FORCE_GENERATOR=dense
/// pins it dense (the assertions below hold on both routes).
c::QueryOptions block_options() {
  c::QueryOptions options;
  options.exec.generator = c::GeneratorKind::kBlockIndex;
  return options;
}

TEST(MatchCorpusIndex, BatchEqualsSoloWithAnUnindexedTail) {
  // The index covers whole 64-row groups: 700 rows leave a 60-row tail
  // that every query sweeps densely after probing the index.
  const d::PairedDataset dataset = make_dataset(700, 15);
  const c::MatchCorpus corpus(block_options(), dataset.clean);
  corpus.wait_for_index();
  if (corpus.generator() == c::GeneratorKind::kBlockIndex) {
    ASSERT_EQ(corpus.indexed_rows(), 640u);
  }
  // Queries whose true neighbours sit in the tail and in the prefix.
  std::vector<std::string> queries(dataset.error.begin() + 650,
                                   dataset.error.end());
  queries.insert(queries.end(), dataset.error.begin(),
                 dataset.error.begin() + 30);
  const std::vector<c::CorpusResult> batched = corpus.query_batch(queries);
  std::size_t tail_matches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const c::CorpusResult solo = corpus.query(queries[i]);
    expect_result_eq(batched[i], solo, "i=" + std::to_string(i));
    EXPECT_EQ(solo.generator, corpus.generator());
    EXPECT_EQ(solo.matches, brute_force(dataset.clean, queries[i], 1))
        << "i=" << i;
    tail_matches += static_cast<std::size_t>(std::count_if(
        solo.matches.begin(), solo.matches.end(),
        [](std::uint32_t id) { return id >= 640; }));
  }
  EXPECT_GT(tail_matches, 0u);
}

TEST(MatchCorpusIndex, MatchesEqualDenseBeforeAndAfterPublication) {
  // Counters name the route, but match ids never depend on it: the
  // first query runs before any publication (dense), later ones through
  // the index, and both equal the dense corpus and brute force.
  const d::PairedDataset dataset = make_dataset(900, 16);
  c::QueryOptions dense_options;
  dense_options.exec.generator = c::GeneratorKind::kDense;
  const c::MatchCorpus dense(dense_options, dataset.clean);
  const c::MatchCorpus corpus(block_options(), dataset.clean);
  const std::span<const std::string> queries(dataset.error.data(), 40);
  const c::CorpusResult first = corpus.query(queries[0]);
  EXPECT_EQ(first.generator, c::GeneratorKind::kDense);
  expect_result_eq(first, dense.query(queries[0]), "before publication");
  const std::vector<c::CorpusResult> racing = corpus.query_batch(queries);
  corpus.wait_for_index();
  const std::vector<c::CorpusResult> after = corpus.query_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const c::CorpusResult want = dense.query(queries[i]);
    EXPECT_EQ(racing[i].matches, want.matches) << "i=" << i;
    EXPECT_EQ(after[i].matches, want.matches) << "i=" << i;
    EXPECT_EQ(after[i].generator, corpus.generator()) << "i=" << i;
    EXPECT_EQ(want.matches, brute_force(dataset.clean, queries[i], 1));
    if (corpus.generator() == c::GeneratorKind::kBlockIndex) {
      EXPECT_LT(after[i].counters.candidates_generated, dataset.clean.size())
          << "i=" << i;
    } else if (dense.generator() == c::GeneratorKind::kDense) {
      expect_result_eq(after[i], want, "forced dense i=" + std::to_string(i));
    }
  }
}

TEST(MatchCorpusIndex, ForcedGeneratorsAgreeWithBruteForce) {
  // FBF_FORCE_GENERATOR overrides the options both ways; the gates still
  // apply after it, and the match ids never move.
  const d::PairedDataset dataset = make_dataset(500, 17);
  const std::span<const std::string> queries(dataset.error.data(), 24);
  for (const char* forced : {"dense", "block"}) {
    const fbf::testenv::ScopedForceGenerator force(forced);
    for (const c::GeneratorKind requested : kGenerators) {
      for (const c::Method method : {c::Method::kFpdl, c::Method::kFbfOnly}) {
        c::QueryOptions options;
        options.method = method;
        options.exec.generator = requested;
        const c::MatchCorpus corpus(options, dataset.clean);
        const bool engaged = std::string_view(forced) == "block" &&
                             method == c::Method::kFpdl;
        EXPECT_EQ(corpus.generator(), engaged ? c::GeneratorKind::kBlockIndex
                                              : c::GeneratorKind::kDense);
        corpus.wait_for_index();
        const std::vector<c::CorpusResult> results =
            corpus.query_batch(queries);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(results[i].generator, corpus.generator());
          if (method == c::Method::kFpdl) {
            EXPECT_EQ(results[i].matches,
                      brute_force(dataset.clean, queries[i], 1))
                << "forced=" << forced << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(MatchCorpusIndex, AppendDuringABuildCancelsAndRestartsIt) {
  // A query starts the build; appends cancel it (or find it done) and
  // the next query starts another over the grown corpus.  The published
  // index must then answer exactly as a fresh corpus's over the same
  // strings — counters included, which pins the index layout.
  const d::PairedDataset dataset = make_dataset(6000, 18);
  const std::span<const std::string> all(dataset.clean);
  c::MatchCorpus corpus(block_options(), all.first(4000));
  const std::span<const std::string> queries(dataset.error.data(), 30);
  for (const std::size_t upto : {std::size_t{5000}, std::size_t{5990}}) {
    (void)corpus.query(queries[0]);  // starts a build
    corpus.append(all.subspan(corpus.size(), upto - corpus.size()));
    EXPECT_LT(corpus.indexed_rows(), corpus.size());
  }
  corpus.wait_for_index();
  const c::MatchCorpus fresh(block_options(), all.first(5990));
  fresh.wait_for_index();
  if (corpus.generator() == c::GeneratorKind::kBlockIndex) {
    EXPECT_EQ(corpus.indexed_rows(), 5952u);  // 93 whole 64-row groups
  }
  EXPECT_EQ(corpus.indexed_rows(), fresh.indexed_rows());
  const std::vector<c::CorpusResult> got = corpus.query_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_result_eq(got[i], fresh.query(queries[i]),
                     "i=" + std::to_string(i));
  }
}

TEST(MatchCorpusIndex, AppendAfterPublicationKeepsThePrefixAndRebuilds) {
  // Appended rows join the swept tail of the published index at once;
  // the next query starts a build over the grown corpus, which then
  // answers as a fresh corpus's index does.
  const d::PairedDataset dataset = make_dataset(5000, 20);
  const std::span<const std::string> all(dataset.clean);
  c::MatchCorpus corpus(block_options(), all.first(4000));
  corpus.wait_for_index();
  const bool indexed = corpus.generator() == c::GeneratorKind::kBlockIndex;
  EXPECT_EQ(corpus.indexed_rows(), indexed ? 3968u : 0u);
  corpus.append(all.subspan(4000));
  EXPECT_EQ(corpus.indexed_rows(), indexed ? 3968u : 0u);
  const std::span<const std::string> queries(dataset.error.data() + 3990, 30);
  for (const std::string& q : queries) {
    EXPECT_EQ(corpus.query(q).matches, brute_force(all, q, 1)) << q;
  }
  corpus.wait_for_index();
  EXPECT_EQ(corpus.indexed_rows(), indexed ? 4992u : 0u);
  const c::MatchCorpus fresh(block_options(), all);
  fresh.wait_for_index();
  const std::vector<c::CorpusResult> got = corpus.query_batch(
      std::vector<std::string>(queries.begin(), queries.end()));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_result_eq(got[i], fresh.query(queries[i]),
                     "i=" + std::to_string(i));
  }
}

TEST(MatchCorpusIndex, DestructionCancelsARunningBuild) {
  // Each corpus dies while the build its first query started may still
  // read its strings; the destructor must stop and join it first (the
  // sanitizer legs check the memory and the thread).
  const d::PairedDataset dataset = make_dataset(20000, 19);
  for (int round = 0; round < 3; ++round) {
    const c::MatchCorpus corpus(block_options(), dataset.clean);
    EXPECT_EQ(corpus.query(dataset.error[0]).matches,
              brute_force(dataset.clean, dataset.error[0], 1));
  }
}

TEST(MatchCorpus, FindsInjectedErrorNeighbor) {
  const d::PairedDataset dataset = make_dataset(400, 13);
  const c::MatchCorpus corpus(c::QueryOptions{}, dataset.clean);
  // error[i] is clean[i] + one edit: with k=1 the true neighbor must
  // survive filter + verify.
  std::size_t found = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const c::CorpusResult result = corpus.query(dataset.error[i]);
    for (const std::uint32_t id : result.matches) {
      found += id == i ? 1u : 0u;
    }
  }
  EXPECT_EQ(found, 50u);
}

// --- BatchCoalescer ----------------------------------------------------

TEST(Coalescer, ConcurrentSubmissionsMatchSoloQueries) {
  const d::PairedDataset dataset = make_dataset(500, 21);
  for (const c::GeneratorKind generator : kGenerators) {
    c::QueryOptions query_options;
    query_options.exec.generator = generator;
    const c::MatchCorpus corpus(query_options, dataset.clean);
    corpus.wait_for_index();
    s::BatchCoalescer coalescer(
        [&corpus](std::span<const std::string> queries) {
          return corpus.query_batch(queries);
        });

    // Fuzzed arrival order: 6 threads x 24 queries with per-thread jitter.
    constexpr std::size_t kThreads = 6;
    constexpr std::size_t kPerThread = 24;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kThreads);
    std::barrier start(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 jitter(static_cast<unsigned>(t) * 7919u + 1u);
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::string& query =
              dataset.error[(t * kPerThread + i) % dataset.error.size()];
          if (jitter() % 3 == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(jitter() % 400));
          }
          u::Result<c::CorpusResult> got = coalescer.submit(query);
          if (!got.ok()) {
            failures[t] = got.status().to_string();
            return;
          }
          const c::CorpusResult want = corpus.query(query);
          if (got->matches != want.matches ||
              got->counters.candidates_generated !=
                  want.counters.candidates_generated ||
              got->counters.fbf_pass != want.counters.fbf_pass ||
              got->counters.verify_calls != want.counters.verify_calls) {
            failures[t] = "batched result diverged for query " + query;
            return;
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const std::string& failure : failures) {
      EXPECT_TRUE(failure.empty()) << failure;
    }
    const s::CoalescerStats stats = coalescer.stats();
    EXPECT_EQ(stats.queries, kThreads * kPerThread);
    EXPECT_GE(stats.queries, stats.batches);  // never more batches than queries
    EXPECT_LE(stats.max_batch, c::kMaxBlockQueries);
  }
}

TEST(Coalescer, LoneQueryRunsOnTheCallingThread) {
  // No batch is running, so the submitter leads its own batch of one —
  // and runs it with no trace installed, so nothing inside the batch is
  // attributed to the leader's own request.
  std::thread::id ran_on;
  std::size_t batch_size = 0;
  std::uint64_t trace_inside = 1;
  s::BatchCoalescer coalescer([&](std::span<const std::string> queries) {
    ran_on = std::this_thread::get_id();
    batch_size = queries.size();
    trace_inside = t::current_trace();
    return std::vector<c::CorpusResult>(queries.size());
  });
  {
    const t::ScopedTrace trace(42);
    ASSERT_TRUE(coalescer.submit("q").ok());
    EXPECT_EQ(t::current_trace(), 42u);
  }
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(batch_size, 1u);
  EXPECT_EQ(trace_inside, 0u);
  EXPECT_EQ(coalescer.stats().batches, 1u);
}

TEST(Coalescer, ArrivalsDuringARunningBatchFormTheNextBatch) {
  // The first batch blocks until kFollowers more submitters are queued;
  // they then run together as the next batch, each answered exactly as
  // a solo query and each traced once with the batch it rode.
  const d::PairedDataset dataset = make_dataset(400, 22);
  const c::MatchCorpus corpus(c::QueryOptions{}, dataset.clean);
  corpus.wait_for_index();  // a no-op unless FBF_FORCE_GENERATOR=block
  constexpr std::size_t kFollowers = 5;
  constexpr std::uint64_t kTraceBase = 0x5EED00;
  std::latch first_running(1);
  std::latch release(1);
  std::vector<std::size_t> sizes;  // BatchFn calls never overlap
  s::BatchCoalescer coalescer([&](std::span<const std::string> queries) {
    sizes.push_back(queries.size());
    if (sizes.size() == 1) {
      first_running.count_down();
      release.wait();
    }
    return corpus.query_batch(queries);
  });

  t::Registry::global().clear_spans();
  const t::Histogram& wait_ms =
      t::Registry::global().histogram("serve.coalescer.wait_ms");
  const std::uint64_t waits_before = wait_ms.count();
  const std::vector<std::string> queries(dataset.error.begin(),
                                         dataset.error.begin() + kFollowers + 1);
  std::vector<std::optional<u::Result<c::CorpusResult>>> got(queries.size());
  std::vector<std::thread> threads;
  auto submit = [&](std::size_t i) {
    threads.emplace_back([&, i] {
      const t::ScopedTrace trace(kTraceBase + i);
      got[i] = coalescer.submit(queries[i]);
    });
  };
  submit(0);
  first_running.wait();
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    submit(i);
  }
  const bool queued = eventually(
      [&] { return coalescer.stats().queries == kFollowers + 1; });
  release.count_down();
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(queued);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, kFollowers}));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(got[i].has_value() && got[i]->ok()) << "query " << i;
    expect_result_eq(got[i]->value(), corpus.query(queries[i]),
                     "query " + std::to_string(i));
  }
  const s::CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.coalesced, kFollowers);
  EXPECT_EQ(stats.max_batch, kFollowers);

  if (!t::trace_enabled()) {
    return;  // telemetry compiled out: no waits or spans to check
  }
  EXPECT_EQ(wait_ms.count() - waits_before, queries.size())
      << "one serve.coalescer.wait_ms sample per query";
  const std::vector<t::SpanRecord> spans = t::Registry::global().spans();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<std::uint32_t> attempts;
    for (const t::SpanRecord& span : spans) {
      if (span.trace == kTraceBase + i && span.name == "serve.batch") {
        attempts.push_back(span.attempt);
      }
    }
    const std::uint32_t batch = i == 0 ? 1u : kFollowers;
    EXPECT_EQ(attempts, std::vector<std::uint32_t>{batch}) << "query " << i;
  }
}

TEST(Coalescer, StopFailsQueuedWaitersAndLetsTheRunningBatchFinish) {
  constexpr std::size_t kQueued = 3;
  std::latch first_running(1);
  std::latch release(1);
  std::atomic<std::size_t> calls{0};
  s::BatchCoalescer coalescer([&](std::span<const std::string> queries) {
    if (calls.fetch_add(1) == 0) {
      first_running.count_down();
      release.wait();
    }
    return std::vector<c::CorpusResult>(queries.size());
  });
  std::optional<u::Result<c::CorpusResult>> running;
  std::thread leader([&] { running = coalescer.submit("running"); });
  first_running.wait();
  std::atomic<std::size_t> unavailable{0};
  std::vector<std::thread> waiters;
  for (std::size_t i = 0; i < kQueued; ++i) {
    waiters.emplace_back([&] {
      const u::Result<c::CorpusResult> got = coalescer.submit("queued");
      if (!got.ok() && got.status().code() == u::StatusCode::kUnavailable) {
        ++unavailable;
      }
    });
  }
  const bool queued = eventually(
      [&] { return coalescer.stats().queries == kQueued + 1; });
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    coalescer.stop();
    stopped = true;
  });
  // The queued waiters fail while the running batch is still blocked,
  // and stop() is still waiting for that batch.
  const bool failed_fast =
      eventually([&] { return unavailable.load() == kQueued; });
  const bool stop_waited = !stopped.load();
  release.count_down();
  stopper.join();
  leader.join();
  for (std::thread& waiter : waiters) {
    waiter.join();
  }
  ASSERT_TRUE(queued);
  EXPECT_TRUE(failed_fast) << "queued waiters must fail kUnavailable at stop";
  EXPECT_TRUE(stop_waited) << "stop() returned before the running batch ended";
  ASSERT_TRUE(running.has_value());
  EXPECT_TRUE(running->ok()) << "the running batch must finish and answer";
  EXPECT_EQ(calls.load(), 1u) << "queued queries must not run after stop()";
  EXPECT_EQ(coalescer.submit("late").status().code(),
            u::StatusCode::kUnavailable);
  coalescer.stop();  // idempotent
  EXPECT_EQ(coalescer.stats().batches, 1u);
}

// --- overload over the wire --------------------------------------------

TEST(ServeOverload, ResourceExhaustedSurvivesTheTcpRoundTrip) {
  // kResourceExhausted maps to a kOverloaded frame server-side and back
  // to the same code client-side, so remote callers can tell "retry
  // later" from "request broken" — and the client never blind-retries it.
  std::atomic<int> calls{0};
  fbf::net::ShardServer server(
      [&calls](const fbf::net::FrameContext&,
               std::string_view) -> u::Result<std::string> {
        ++calls;
        return u::Status::resource_exhausted("service at capacity");
      });
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  fbf::Client client(
      std::make_shared<fbf::net::TcpTransport>(transport_options));
  const u::Result<fbf::MatchResponse> reply = client.match_string("abc");
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), u::StatusCode::kResourceExhausted);
  EXPECT_EQ(calls.load(), 1) << "overload must not be retried";
}

TEST(ServeOverload, ServiceInflightBudgetRejectsFloods) {
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::ServiceOptions options;
  options.max_inflight = 2;
  s::MatchService service(options, backend);
  const std::vector<std::string> corpus{"alpha", "beta", "gamma"};
  service.index_strings(corpus);
  // A 3-string sweep takes microseconds, too short to keep requests in
  // flight.  Once the flood is under way, bulk appends hold the corpus
  // lock exclusively and stall the sweeps until the pile-up has tripped
  // admission; the flood lasts until the appends stop.  The appends are
  // bounded, so a budget that never trips fails the check below.
  std::vector<std::string> bulk;
  for (int i = 0; i < 10000; ++i) {
    bulk.push_back("bulk" + std::to_string(i));
  }
  std::atomic<bool> appended{false};

  constexpr std::size_t kThreads = 16;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::vector<std::thread> threads;
  std::barrier start(kThreads + 1);
  threads.emplace_back([&] {
    start.arrive_and_wait();
    eventually([&] { return ok.load() + overloaded.load() >= kThreads; });
    for (int i = 0; i < 200 && overloaded.load() == 0; ++i) {
      service.index_strings(bulk);
    }
    appended = true;
  });
  fbf::MatchRequest request;
  request.text = "alpha";
  const std::string payload = s::encode_match_request(request);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      fbf::net::FrameContext ctx;
      ctx.type = fbf::net::FrameType::kMatchQuery;
      start.arrive_and_wait();
      for (int i = 0; i < 50 || !appended.load(); ++i) {
        const u::Result<std::string> reply = service.handle(ctx, payload);
        if (reply.ok()) {
          ++ok;
        } else {
          ASSERT_EQ(reply.status().code(),
                    u::StatusCode::kResourceExhausted);
          ++overloaded;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(overloaded.load(), 0u)
      << "16 threads against an in-flight budget of 2 must trip admission";
  EXPECT_EQ(service.metrics_snapshot().counter("serve.overloaded"),
            overloaded.load());
}

// --- durability: kill mid-ingest ---------------------------------------

TEST(ServeDurability, AcknowledgedIngestsSurviveAKill) {
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::ServiceOptions options;
  u::Rng rng(31);
  const std::vector<l::PersonRecord> people = l::generate_people(30, rng);
  std::uint64_t acked_records = 0;
  std::uint64_t last_seq = 0;
  {
    s::MatchService service(options, backend);
    ASSERT_TRUE(service.recover().ok());
    fbf::Client client = fbf::Client::in_process(service);
    for (std::size_t batch = 0; batch < 3; ++batch) {
      const std::span<const l::PersonRecord> slice(people.data() + batch * 10,
                                                   10);
      const u::Result<s::IngestReply> reply = client.ingest(slice);
      ASSERT_TRUE(reply.ok()) << reply.status().to_string();
      acked_records += reply->accepted;
      last_seq = reply->seq;
    }
    service.simulate_crash();  // kill -9: no destructor-time journal sync
  }
  s::MatchService recovered(options, backend);
  const u::Result<l::RecoveryReport> report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(recovered.durable_store().store().size(), acked_records)
      << "every acknowledged write must survive the kill";
  EXPECT_EQ(recovered.durable_store().batches_ingested(), last_seq);
  // The recovered store answers probes over the recovered records.
  fbf::Client client = fbf::Client::in_process(recovered);
  const u::Result<fbf::MatchResponse> probe = client.match_record(people[0]);
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->matches.empty());
}

// --- record probes on the entity store's block index ------------------

/// The reply a record probe must get: every stored record scoring at or
/// above the threshold under score_pair, score descending (record index
/// ascending on ties), cut to `limit`.
std::vector<fbf::MatchResponse::Match> reference_record_matches(
    const l::EntityStore& store, const l::PersonRecord& query,
    std::size_t limit) {
  const l::ComparatorConfig& config = store.comparator();
  const l::RecordSignatures sigs =
      l::build_record_signatures(query, config.alpha_words);
  l::CompareCounters counters;
  std::vector<fbf::MatchResponse::Match> matches;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const l::RecordSignatures stored_sigs =
        l::build_record_signatures(store.records()[i], config.alpha_words);
    const double score = l::score_pair(query, store.records()[i], &sigs,
                                       &stored_sigs, config, counters);
    if (score >= config.match_threshold) {
      matches.push_back(
          {static_cast<std::uint32_t>(i), store.entity_ids()[i], score, {}});
    }
  }
  std::stable_sort(
      matches.begin(), matches.end(),
      [](const auto& a, const auto& b) { return a.score > b.score; });
  if (matches.size() > limit) {
    matches.resize(limit);
  }
  return matches;
}

void expect_record_matches_eq(
    const std::vector<fbf::MatchResponse::Match>& got,
    const std::vector<fbf::MatchResponse::Match>& want,
    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " #" << i;
    EXPECT_EQ(got[i].entity, want[i].entity) << label << " #" << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " #" << i;
  }
}

/// 300 people in 12 batches of 25, then error copies of the first 60.
std::vector<std::vector<l::PersonRecord>> record_probe_batches(
    std::vector<l::PersonRecord>& probes) {
  u::Rng rng(47);
  const std::vector<l::PersonRecord> people = l::generate_people(300, rng);
  probes = l::make_error_records(people, {}, rng);
  std::vector<std::vector<l::PersonRecord>> batches;
  for (std::size_t off = 0; off < people.size(); off += 25) {
    const auto first = people.begin() + static_cast<std::ptrdiff_t>(off);
    batches.emplace_back(first, first + 25);
  }
  batches.emplace_back(probes.begin(), probes.begin() + 60);
  return batches;
}

TEST(ServeRecordProbe, RepliesEqualTheScorePairReference) {
  // Not pinned: under FBF_FORCE_GENERATOR the same replies must come
  // back through the forced generator.
  const char* want_generator =
      c::generator_name(c::select_generator(c::GeneratorKind::kBlockIndex));
  std::vector<l::PersonRecord> probes;
  const auto batches = record_probe_batches(probes);
  s::MatchService service(s::ServiceOptions{},
                          std::make_shared<fbf::storage::MemObjectBackend>());
  ASSERT_TRUE(service.recover().ok());
  fbf::Client client = fbf::Client::in_process(service);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    ASSERT_TRUE(client.ingest(batches[b]).ok());
    const l::EntityStore& store = service.durable_store().store();
    for (std::size_t q = b; q < probes.size(); q += 23) {
      const u::Result<fbf::MatchResponse> reply =
          client.match_record(probes[q], 4);
      ASSERT_TRUE(reply.ok()) << reply.status().to_string();
      const std::string label =
          "batch " + std::to_string(b) + " probe " + std::to_string(q);
      EXPECT_EQ(reply->generator, want_generator) << label;
      EXPECT_EQ(reply->comparisons, store.size()) << label;
      expect_record_matches_eq(reply->matches,
                               reference_record_matches(store, probes[q], 4),
                               label);
    }
  }
}

TEST(ServeRecordProbe, RecoveredServiceAnswersLikeTheNeverCrashedOne) {
  // Recovery rebuilds the store (base + deltas + journal tail, each
  // cover rule's index built once from its column) and must answer
  // every probe exactly as the service that never went down.
  std::vector<l::PersonRecord> probes;
  const auto batches = record_probe_batches(probes);
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::MatchService live(s::ServiceOptions{}, backend);
  ASSERT_TRUE(live.recover().ok());
  fbf::Client live_client = fbf::Client::in_process(live);
  for (const auto& batch : batches) {
    ASSERT_TRUE(live_client.ingest(batch).ok());
  }
  live.simulate_crash();  // probes still read the in-memory store
  s::MatchService recovered(s::ServiceOptions{}, backend);
  const u::Result<l::RecoveryReport> report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report->snapshot_loaded);
  EXPECT_GT(report->journal_batches_replayed, 0u);
  fbf::Client recovered_client = fbf::Client::in_process(recovered);
  std::size_t matched = 0;
  for (std::size_t q = 0; q < probes.size(); q += 3) {
    const u::Result<fbf::MatchResponse> want =
        live_client.match_record(probes[q]);
    const u::Result<fbf::MatchResponse> got =
        recovered_client.match_record(probes[q]);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got->generator, c::generator_name(c::select_generator(
                                  c::GeneratorKind::kBlockIndex)));
    EXPECT_EQ(got->generator, want->generator);
    EXPECT_EQ(got->comparisons, want->comparisons);
    EXPECT_EQ(got->field_comparisons, want->field_comparisons);
    expect_record_matches_eq(got->matches, want->matches,
                             "probe " + std::to_string(q));
    if (!want->matches.empty()) {
      ++matched;
    }
  }
  EXPECT_GT(matched, 50u);
}

// --- quarantine triage over the protocol -------------------------------

TEST(ServeQuarantine, DrainRepairsDoubledDelimitersAndKeepsTheRest) {
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::MatchService service(s::ServiceOptions{}, backend);
  fbf::Client client = fbf::Client::in_process(service);

  // One clean row, one repairable (doubled delimiter -> shifted cells,
  // empty id), one genuinely bad (short row): ingest commits the clean
  // row and quarantines the other two intact.
  const std::string csv =
      "1,ann,abel,12 oak st,5550001111,f,123456789,01021990\n"
      ",2,bob,baker,34 elm st,5550002222,m,987654321,03041985\n"
      "3,carol,chase\n";
  const u::Result<s::IngestReply> ingest = client.ingest_csv(csv);
  ASSERT_TRUE(ingest.ok()) << ingest.status().to_string();
  EXPECT_EQ(ingest->accepted, 1u);
  EXPECT_EQ(ingest->quarantined, 2u);
  EXPECT_EQ(ingest->store_size, 1u);
  EXPECT_EQ(service.quarantine_size(), 2u);

  const u::Result<s::DrainReply> drain = client.drain_quarantine();
  ASSERT_TRUE(drain.ok()) << drain.status().to_string();
  EXPECT_EQ(drain->repaired, 1u);
  EXPECT_EQ(drain->doubled_delimiter, 1u);
  EXPECT_EQ(drain->shifted_column, 0u);
  EXPECT_EQ(drain->still_bad, 1u);
  EXPECT_EQ(service.quarantine_size(), 1u);
  EXPECT_EQ(service.durable_store().store().size(), 2u);

  // Draining again re-triages only the leftover; nothing double-ingests.
  const u::Result<s::DrainReply> again = client.drain_quarantine();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->repaired, 0u);
  EXPECT_EQ(again->still_bad, 1u);
  EXPECT_EQ(service.durable_store().store().size(), 2u);

  const u::Result<t::MetricsSnapshot> metrics = client.metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->gauge("serve.quarantined"), 1);
  EXPECT_EQ(metrics->counter("serve.ingests"), 1u);
  EXPECT_EQ(metrics->counter("quarantine.repaired.doubled_delimiter"), 1u);
  EXPECT_EQ(metrics->counter("quarantine.repaired.shifted_column"), 0u);
}

TEST(ServeQuarantine, DrainRepairsShiftedColumnsWhenTheSplitIsUnambiguous) {
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::MatchService service(s::ServiceOptions{}, backend);
  fbf::Client client = fbf::Client::in_process(service);

  // A dropped delimiter fused gender+ssn ("m,123456780" -> "m123456780"):
  // only one (cell, split) candidate satisfies the format-constrained
  // shapes, so the repair is decidable.  The fused first+last name row is
  // free text — many plausible splits — and must stay parked.
  const std::string csv =
      "10,carl,cole,56 pine st,5550003333,m123456780,05061980\n"
      "11,danadoe,78 fir st,5550004444,f,111223333,07081975\n";
  const u::Result<s::IngestReply> ingest = client.ingest_csv(csv);
  ASSERT_TRUE(ingest.ok()) << ingest.status().to_string();
  EXPECT_EQ(ingest->accepted, 0u);
  EXPECT_EQ(ingest->quarantined, 2u);

  const u::Result<s::DrainReply> drain = client.drain_quarantine();
  ASSERT_TRUE(drain.ok()) << drain.status().to_string();
  EXPECT_EQ(drain->repaired, 1u);
  EXPECT_EQ(drain->doubled_delimiter, 0u);
  EXPECT_EQ(drain->shifted_column, 1u);
  EXPECT_EQ(drain->still_bad, 1u)
      << "a free-text merge admits many splits and must not be guessed";
  EXPECT_EQ(service.durable_store().store().size(), 1u);

  const u::Result<t::MetricsSnapshot> metrics = client.metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->counter("quarantine.repaired.shifted_column"), 1u);
}

// --- protocol codecs ---------------------------------------------------

TEST(ServeProtocol, RequestAndReplyCodecsRoundTrip) {
  fbf::MatchRequest match;
  match.kind = fbf::MatchRequest::Kind::kString;
  match.text = "kowalski";
  match.max_matches = 3;
  const u::Result<fbf::MatchRequest> match_rt =
      s::decode_match_request(s::encode_match_request(match));
  ASSERT_TRUE(match_rt.ok());
  EXPECT_EQ(match_rt->text, match.text);
  EXPECT_EQ(match_rt->max_matches, 3u);

  fbf::MatchResponse response;
  response.matches.push_back({7, 2, 0.5, "value"});
  response.counters.fbf_pass = 9;
  response.comparisons = 100;
  response.generator = "block-index";
  const u::Result<fbf::MatchResponse> response_rt =
      s::decode_match_response(s::encode_match_response(response));
  ASSERT_TRUE(response_rt.ok());
  EXPECT_EQ(response_rt->generator, "block-index");
  EXPECT_EQ(response_rt->comparisons, 100u);
  EXPECT_EQ(s::match_response_fingerprint(*response_rt),
            s::match_response_fingerprint(response));

  s::IngestRequest ingest;
  ingest.format = s::IngestRequest::Format::kCsv;
  ingest.csv = "1,a,b,c,d,e,f,g\n";
  const u::Result<s::IngestRequest> ingest_rt =
      s::decode_ingest_request(s::encode_ingest_request(ingest));
  ASSERT_TRUE(ingest_rt.ok());
  EXPECT_EQ(ingest_rt->csv, ingest.csv);

  s::AdminReply metrics;
  metrics.command = s::AdminCommand::kMetrics;
  metrics.metrics.counters.emplace_back("serve.queries", 12);
  metrics.metrics.gauges.emplace_back("serve.store_size", -3);
  metrics.metrics.info.emplace_back("serve.kernel", "tile-avx2");
  const u::Result<s::AdminReply> metrics_rt =
      s::decode_admin_reply(s::encode_admin_reply(metrics));
  ASSERT_TRUE(metrics_rt.ok());
  EXPECT_EQ(metrics_rt->command, s::AdminCommand::kMetrics);
  EXPECT_EQ(metrics_rt->metrics.counter("serve.queries"), 12u);
  EXPECT_EQ(metrics_rt->metrics.gauge("serve.store_size"), -3);
  EXPECT_EQ(metrics_rt->metrics.info, metrics.metrics.info);

  s::AdminReply drain;
  drain.command = s::AdminCommand::kDrainQuarantine;
  drain.drain = {.repaired = 5,
                 .still_bad = 2,
                 .doubled_delimiter = 3,
                 .shifted_column = 2};
  const u::Result<s::AdminReply> drain_rt =
      s::decode_admin_reply(s::encode_admin_reply(drain));
  ASSERT_TRUE(drain_rt.ok());
  EXPECT_EQ(drain_rt->command, s::AdminCommand::kDrainQuarantine);
  EXPECT_EQ(drain_rt->drain.repaired, 5u);
  EXPECT_EQ(drain_rt->drain.still_bad, 2u);
  EXPECT_EQ(drain_rt->drain.doubled_delimiter, 3u);
  EXPECT_EQ(drain_rt->drain.shifted_column, 2u);

  // The command byte values are wire-stable.
  EXPECT_EQ(s::encode_admin_request(s::AdminCommand::kMetrics),
            std::string(1, '\x03'));
  for (const s::AdminCommand command :
       {s::AdminCommand::kDrainQuarantine, s::AdminCommand::kMetrics}) {
    const u::Result<s::AdminCommand> decoded =
        s::decode_admin_request(s::encode_admin_request(command));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, command);
  }
}

TEST(ServeProtocol, RetiredStatsCommandIsUnknown) {
  // Byte 1 was the fixed-field stats view; kMetrics replaced it, and the
  // decoder now rejects it like any other unknown command.
  const u::Result<s::AdminCommand> decoded =
      s::decode_admin_request(std::string(1, '\x01'));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), u::StatusCode::kInvalidArgument);
}

TEST(ServeProtocol, TruncatedPayloadsDecodeToInvalidArgument) {
  fbf::MatchRequest match;
  match.text = "abcdef";
  const std::string encoded = s::encode_match_request(match);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                encoded.size() - 1}) {
    const u::Result<fbf::MatchRequest> decoded =
        s::decode_match_request(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), u::StatusCode::kInvalidArgument);
  }
  // Trailing garbage is rejected too.
  const u::Result<fbf::MatchRequest> padded =
      s::decode_match_request(encoded + "x");
  EXPECT_FALSE(padded.ok());
}
