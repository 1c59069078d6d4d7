// Telemetry subsystem properties (DESIGN.md §16):
//
//  * histogram merge determinism — all state integral, so merging
//    per-shard snapshots in ANY order or partition is byte-identical;
//  * observation neutrality — match decisions and ladder counters are
//    byte-identical with telemetry enabled, disabled, and across thread
//    counts and kernel/generator pins (mirroring may never disturb what
//    it mirrors);
//  * trace propagation equality — the spans a traced request leaves
//    behind are the same set over the in-process and TCP transports,
//    fault injection included.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_join.hpp"
#include "datagen/dataset.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "testenv.hpp"
#include "util/rng.hpp"

namespace c = fbf::core;
namespace d = fbf::datagen;
namespace s = fbf::serve;
namespace t = fbf::telemetry;
namespace u = fbf::util;

namespace {

/// Restores the enable gates (and clears the global registry) so one
/// test's toggling never leaks into another suite.
struct TelemetryGuard {
  TelemetryGuard() {
    t::Registry::global().reset();
    t::set_enabled(true);
    t::set_trace_enabled(true);
  }
  ~TelemetryGuard() {
    t::set_enabled(true);
    t::set_trace_enabled(true);
    t::Registry::global().reset();
  }
};

[[nodiscard]] bool snapshots_identical(const t::HistogramSnapshot& a,
                                       const t::HistogramSnapshot& b) {
  return a.buckets == b.buckets && a.count == b.count &&
         a.sum_fp == b.sum_fp && a.max_fp == b.max_fp;
}

}  // namespace

// --- counters -----------------------------------------------------------

TEST(TelemetryCounter, SumsAcrossThreadSlots) {
  t::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        counter.increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(TelemetryRegistry, HandlesAreStableAndResetZeroesInPlace) {
  t::Registry registry;
  t::Counter& a = registry.counter("x.a");
  a.add(5);
  EXPECT_EQ(&registry.counter("x.a"), &a);
  registry.gauge("x.g").set(-3);
  registry.histogram("x.h").record(1.5);
  registry.reset();
  EXPECT_EQ(a.value(), 0u) << "cached handles must survive reset()";
  EXPECT_EQ(registry.gauge("x.g").value(), 0);
  EXPECT_EQ(registry.histogram("x.h").count(), 0u);
}

// --- histogram determinism ----------------------------------------------

TEST(TelemetryHistogram, MergeIsOrderAndPartitionInvariant) {
  // One fixed multiset of samples, recorded into shards three different
  // ways; every merge order must produce byte-identical state.
  u::Rng rng(123);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(rng.uniform() * 100.0 + 0.001);
  }
  t::Histogram serial;
  for (const double v : samples) {
    serial.record(v);
  }
  const t::HistogramSnapshot want = serial.snapshot();

  constexpr std::size_t kShards = 7;
  std::vector<t::HistogramSnapshot> shards(kShards);
  {
    std::vector<t::Histogram> hist(kShards);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      hist[i % kShards].record(samples[i]);
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      shards[i] = hist[i].snapshot();
    }
  }
  // Forward merge, reverse merge, and a pairwise tree must all agree.
  t::HistogramSnapshot forward = shards[0];
  for (std::size_t i = 1; i < kShards; ++i) {
    forward.merge(shards[i]);
  }
  t::HistogramSnapshot reverse = shards[kShards - 1];
  for (std::size_t i = kShards - 1; i-- > 0;) {
    reverse.merge(shards[i]);
  }
  std::vector<t::HistogramSnapshot> tree = shards;
  while (tree.size() > 1) {
    std::vector<t::HistogramSnapshot> next;
    for (std::size_t i = 0; i < tree.size(); i += 2) {
      t::HistogramSnapshot merged = tree[i];
      if (i + 1 < tree.size()) {
        merged.merge(tree[i + 1]);
      }
      next.push_back(std::move(merged));
    }
    tree = std::move(next);
  }
  EXPECT_TRUE(snapshots_identical(forward, want));
  EXPECT_TRUE(snapshots_identical(reverse, want));
  EXPECT_TRUE(snapshots_identical(tree[0], want));
  EXPECT_EQ(forward.count, samples.size());
  EXPECT_DOUBLE_EQ(forward.max(), want.max());
}

TEST(TelemetryHistogram, ConcurrentRecordingMatchesSerial) {
  // A fixed multiset recorded from 8 threads lands byte-identical to the
  // serial recording — integer adds commute, no float accumulation.
  u::Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 8000; ++i) {
    samples.push_back(rng.uniform() * 10.0 + 1e-4);
  }
  t::Histogram serial;
  for (const double v : samples) {
    serial.record(v);
  }
  t::Histogram concurrent;
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (std::size_t thread = 0; thread < kThreads; ++thread) {
    threads.emplace_back([&concurrent, &samples, thread] {
      for (std::size_t i = thread; i < samples.size(); i += kThreads) {
        concurrent.record(samples[i]);
      }
    });
  }
  for (std::thread& worker : threads) {
    worker.join();
  }
  EXPECT_TRUE(
      snapshots_identical(serial.snapshot(), concurrent.snapshot()));
}

TEST(TelemetryHistogram, PercentilesInterpolateTheBucketCdf) {
  t::Histogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.record(static_cast<double>(i));
  }
  const t::HistogramSnapshot snap = hist.snapshot();
  // Log buckets are ≤ 9% wide: percentiles land near the exact ranks.
  EXPECT_NEAR(snap.percentile(0.50), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(snap.percentile(0.99), 990.0, 990.0 * 0.10);
  EXPECT_LE(snap.percentile(0.999), snap.max());
  EXPECT_DOUBLE_EQ(snap.max(), 1000.0);
  EXPECT_NEAR(snap.mean(), 500.5, 0.5);  // fixed-point sum: 1/1024 units
}

// --- snapshot plumbing --------------------------------------------------

TEST(TelemetrySnapshot, CaptureDiffAndWireCodecRoundTrip) {
  t::Registry registry;
  registry.counter("a.hits").add(10);
  registry.gauge("a.size").set(-5);
  registry.histogram("a.lat").record(2.0);
  t::MetricsSnapshot before = t::capture(registry);
  registry.counter("a.hits").add(7);
  registry.histogram("a.lat").record(4.0);
  t::MetricsSnapshot after = t::capture(registry);
  after.info.emplace_back("kernel", "tile-test");

  const t::MetricsSnapshot delta = t::diff(before, after);
  EXPECT_EQ(delta.counter("a.hits"), 7u);
  ASSERT_NE(delta.histogram("a.lat"), nullptr);
  EXPECT_EQ(delta.histogram("a.lat")->count, 1u);

  const auto decoded = t::decode_metrics_snapshot(
      t::encode_metrics_snapshot(after));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->counters, after.counters);
  EXPECT_EQ(decoded->gauges, after.gauges);
  EXPECT_EQ(decoded->info, after.info);
  ASSERT_EQ(decoded->histograms.size(), after.histograms.size());
  EXPECT_EQ(decoded->histograms[0].count, after.histograms[0].count);

  // Truncation never decodes.
  const std::string wire = t::encode_metrics_snapshot(after);
  for (const std::size_t cut : {wire.size() - 1, wire.size() / 2}) {
    EXPECT_FALSE(
        t::decode_metrics_snapshot(std::string_view(wire.data(), cut)).ok());
  }

  // merge_into: disjoint rows union, base wins collisions, sorted output.
  t::Registry other;
  other.counter("b.hits").add(3);
  other.counter("a.hits").add(999);
  t::MetricsSnapshot merged = after;
  t::merge_into(merged, t::capture(other));
  EXPECT_EQ(merged.counter("a.hits"), 17u) << "base row wins";
  EXPECT_EQ(merged.counter("b.hits"), 3u);
  EXPECT_TRUE(std::is_sorted(
      merged.counters.begin(), merged.counters.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

// --- observation neutrality ---------------------------------------------

TEST(TelemetryNeutrality, MatchResultsAndLaddersAreIdenticalOnAndOff) {
  const TelemetryGuard guard;
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 600, 19);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();

  const auto run = [&](std::size_t threads) {
    c::JoinConfig config;
    config.threads = threads;
    return c::match_strings(dataset.clean, dataset.error, config);
  };

  t::set_enabled(true);
  const c::JoinStats on = run(1);
  const c::JoinStats on4 = run(4);
  t::set_enabled(false);
  const c::JoinStats off = run(1);
  t::set_enabled(true);

  for (const c::JoinStats* other : {&on4, &off}) {
    EXPECT_EQ(on.matches, other->matches);
    EXPECT_EQ(on.candidates_generated, other->candidates_generated);
    EXPECT_EQ(on.length_pass, other->length_pass);
    EXPECT_EQ(on.fbf_evaluated, other->fbf_evaluated);
    EXPECT_EQ(on.fbf_pass, other->fbf_pass);
    EXPECT_EQ(on.verify_calls, other->verify_calls);
  }
}

TEST(TelemetryNeutrality, GlobalLadderMirrorsJoinDeltasExactly) {
  const TelemetryGuard guard;
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 400, 23);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();

  // Run the same join at several thread counts: after each run the
  // global pipeline.* counters must have moved by EXACTLY the ladder the
  // join reports, independent of threading.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    t::Registry& global = t::Registry::global();
    const t::MetricsSnapshot before = t::capture(global);
    c::JoinConfig config;
    config.threads = threads;
    const c::JoinStats stats =
        c::match_strings(dataset.clean, dataset.error, config);
    const t::MetricsSnapshot after = t::capture(global);
    const t::MetricsSnapshot delta = t::diff(before, after);
    EXPECT_EQ(delta.counter("pipeline.candidates_generated"),
              stats.candidates_generated)
        << threads << " threads";
    EXPECT_EQ(delta.counter("pipeline.length_pass"), stats.length_pass);
    EXPECT_EQ(delta.counter("pipeline.fbf_evaluated"), stats.fbf_evaluated);
    EXPECT_EQ(delta.counter("pipeline.fbf_pass"), stats.fbf_pass);
    EXPECT_EQ(delta.counter("pipeline.verify_calls"), stats.verify_calls);
    EXPECT_EQ(delta.counter("join.runs"), 1u);
    EXPECT_EQ(delta.counter("join.matches"), stats.matches);
  }
}

TEST(TelemetryNeutrality, MirrorTracksTheLadderUnderKernelAndGeneratorPins) {
  const TelemetryGuard guard;
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 300, 29);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();

  // Under every pin the match count is invariant (the dispatch contract)
  // and the global mirror moves by EXACTLY the ladder that run reports —
  // the generator pin legitimately changes the ladder itself (an indexed
  // generator admits fewer candidates), never the mirror's fidelity.
  const auto run_and_check = [&](const char* label) {
    const t::MetricsSnapshot before = t::capture(t::Registry::global());
    const c::JoinStats stats =
        c::match_strings(dataset.clean, dataset.error, c::JoinConfig{});
    const t::MetricsSnapshot delta =
        t::diff(before, t::capture(t::Registry::global()));
    EXPECT_EQ(delta.counter("pipeline.candidates_generated"),
              stats.candidates_generated)
        << label;
    EXPECT_EQ(delta.counter("pipeline.length_pass"), stats.length_pass)
        << label;
    EXPECT_EQ(delta.counter("pipeline.fbf_evaluated"), stats.fbf_evaluated)
        << label;
    EXPECT_EQ(delta.counter("pipeline.fbf_pass"), stats.fbf_pass) << label;
    EXPECT_EQ(delta.counter("pipeline.verify_calls"), stats.verify_calls)
        << label;
    return stats.matches;
  };

  const std::uint64_t baseline = run_and_check("auto-dispatch");
  ASSERT_EQ(setenv("FBF_FORCE_KERNEL", "scalar64", 1), 0);
  EXPECT_EQ(run_and_check("FBF_FORCE_KERNEL=scalar64"), baseline);
  ASSERT_EQ(unsetenv("FBF_FORCE_KERNEL"), 0);
  ASSERT_EQ(setenv("FBF_FORCE_GENERATOR", "block", 1), 0);
  EXPECT_EQ(run_and_check("FBF_FORCE_GENERATOR=block"), baseline);
  ASSERT_EQ(unsetenv("FBF_FORCE_GENERATOR"), 0);
}

TEST(TelemetryNeutrality, BlockJoinRecordsIndexBuildTime) {
  // join.index_build_ms gains one sample per block-route join, none on
  // the dense route, and none with telemetry off.
  const TelemetryGuard guard;
  const fbf::testenv::ScopedForceGenerator unpinned(nullptr);
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 300, 31);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();
  const auto samples = [] {
    const t::MetricsSnapshot snap = t::capture(t::Registry::global());
    const t::HistogramStats* h = snap.histogram("join.index_build_ms");
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const auto run = [&](c::GeneratorKind generator) {
    c::JoinConfig config;
    config.generator = generator;
    return c::match_strings(dataset.clean, dataset.error, config);
  };

  EXPECT_STREQ(run(c::GeneratorKind::kDense).generator, "dense");
  EXPECT_EQ(samples(), 0u);
  EXPECT_STREQ(run(c::GeneratorKind::kBlockIndex).generator, "block-index");
  EXPECT_EQ(samples(), 1u);
  t::set_enabled(false);
  run(c::GeneratorKind::kBlockIndex);
  t::set_enabled(true);
  EXPECT_EQ(samples(), 1u);
}

TEST(TelemetryNeutrality, BlockJoinRecordsProbeTime) {
  // join.probe_ms gains one sample per block-route join (the probe loop
  // after the index build, so it fits inside join_ms), none on the dense
  // route, and none with telemetry off.  Its match set is the dense one.
  const TelemetryGuard guard;
  const fbf::testenv::ScopedForceGenerator unpinned(nullptr);
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 300, 37);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();
  const auto probe = [] {
    const t::MetricsSnapshot snap = t::capture(t::Registry::global());
    const t::HistogramStats* h = snap.histogram("join.probe_ms");
    return h == nullptr ? t::HistogramStats{} : *h;
  };
  const auto run = [&](c::GeneratorKind generator) {
    c::JoinConfig config;
    config.generator = generator;
    config.collect_matches = true;
    return c::match_strings(dataset.clean, dataset.error, config);
  };

  const c::JoinStats dense = run(c::GeneratorKind::kDense);
  EXPECT_STREQ(dense.generator, "dense");
  EXPECT_EQ(probe().count, 0u);
  const c::JoinStats block = run(c::GeneratorKind::kBlockIndex);
  EXPECT_STREQ(block.generator, "block-index");
  EXPECT_EQ(block.match_pairs, dense.match_pairs);
  const t::HistogramStats one = probe();
  EXPECT_EQ(one.count, 1u);
  EXPECT_GT(one.max, 0.0);
  EXPECT_LE(one.max, block.join_ms + 1.0 / 1024);  // kept at 1/1024 ms
  t::set_enabled(false);
  run(c::GeneratorKind::kBlockIndex);
  t::set_enabled(true);
  EXPECT_EQ(probe().count, 1u);
}

TEST(TelemetryNeutrality, CorpusIndexRecordsReadyTimeAndIndexedRows) {
  // corpus.index_ready_ms gains one sample per published background
  // index (first demand -> publication), none on the dense route and
  // none with telemetry off; corpus.indexed_rows reports the published
  // prefix in every kMetrics snapshot.  Replies match the dense
  // service's either way.
  const TelemetryGuard guard;
  const fbf::testenv::ScopedForceGenerator unpinned(nullptr);
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 300, 41);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();
  const auto ready_samples = [] {
    const t::MetricsSnapshot snap = t::capture(t::Registry::global());
    const t::HistogramStats* h = snap.histogram("corpus.index_ready_ms");
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const auto serve = [&](c::GeneratorKind generator) {
    s::ServiceOptions options;
    options.query.exec.generator = generator;
    auto service = std::make_unique<s::MatchService>(
        options, std::make_shared<fbf::storage::MemObjectBackend>());
    service->index_strings(dataset.clean);
    return service;
  };
  const auto matches = [&](s::MatchService& service) {
    fbf::Client client = fbf::Client::in_process(service);
    std::vector<std::vector<std::uint32_t>> ids;
    for (std::size_t i = 0; i < 20; ++i) {
      const u::Result<fbf::MatchResponse> reply =
          client.match_string(dataset.error[i], 0);
      EXPECT_TRUE(reply.ok());
      ids.emplace_back();
      for (const fbf::MatchResponse::Match& m : reply->matches) {
        ids.back().push_back(m.id);
      }
    }
    return ids;
  };

  EXPECT_EQ(s::ServiceOptions{}.query.exec.generator,
            c::GeneratorKind::kBlockIndex);
  const auto dense = serve(c::GeneratorKind::kDense);
  const auto dense_ids = matches(*dense);
  dense->corpus().wait_for_index();
  EXPECT_EQ(dense->metrics_snapshot().gauge("corpus.indexed_rows"), 0);
  EXPECT_EQ(ready_samples(), 0u);

  const auto block = serve(c::GeneratorKind::kBlockIndex);
  EXPECT_EQ(block->metrics_snapshot().gauge("corpus.indexed_rows"), 0);
  EXPECT_EQ(matches(*block), dense_ids);  // demands the index
  block->corpus().wait_for_index();
  EXPECT_EQ(block->metrics_snapshot().gauge("corpus.indexed_rows"), 256);
  EXPECT_EQ(ready_samples(), 1u);
  EXPECT_EQ(matches(*block), dense_ids);  // through the index

  t::set_enabled(false);
  const auto quiet = serve(c::GeneratorKind::kBlockIndex);
  EXPECT_EQ(matches(*quiet), dense_ids);
  quiet->corpus().wait_for_index();
  EXPECT_EQ(quiet->metrics_snapshot().gauge("corpus.indexed_rows"), 256);
  t::set_enabled(true);
  EXPECT_EQ(ready_samples(), 1u);
}

// --- tracing ------------------------------------------------------------

TEST(TelemetryTrace, DerivedIdsAreDeterministicAndNeverZero) {
  const std::uint64_t a = t::derive_trace_id(10, "payload");
  EXPECT_EQ(a, t::derive_trace_id(10, "payload"));
  EXPECT_NE(a, t::derive_trace_id(11, "payload"));
  EXPECT_NE(a, t::derive_trace_id(10, "payloae"));
  EXPECT_NE(t::derive_trace_id(0, ""), 0u);
}

TEST(TelemetryTrace, ScopedTraceNestsAndRestores) {
  EXPECT_EQ(t::current_trace(), 0u);
  {
    const t::ScopedTrace outer(7);
    EXPECT_EQ(t::current_trace(), 7u);
    {
      const t::ScopedTrace inner(9);
      EXPECT_EQ(t::current_trace(), 9u);
    }
    EXPECT_EQ(t::current_trace(), 7u);
  }
  EXPECT_EQ(t::current_trace(), 0u);
}

namespace {

/// Issues an identical request mix through `transport`, then returns the
/// deduped (trace, span-name) set the run left in the global registry.
/// Each query gets its own shard id (fault draws are pure in
/// (shard, attempt)) so every query faces a fresh failure pattern,
/// identical across the two transports.  Dedup matters: retry counts and
/// batch shapes differ legitimately between transports (a TCP reply-side
/// fault runs the handler, an injected in-process fault does not) — what
/// must be transport-equal is WHICH spans each trace produced, not how
/// many times.
std::set<std::pair<std::uint64_t, std::string>> traced_span_set(
    const std::shared_ptr<fbf::net::ShardTransport>& transport,
    const std::vector<std::string>& queries) {
  t::Registry::global().clear_spans();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    fbf::ClientOptions client_options;
    client_options.max_attempts = 8;
    client_options.shard = i;
    fbf::Client client(transport, client_options);
    const auto reply = client.match_string(queries[i]);
    EXPECT_TRUE(reply.ok()) << reply.status().to_string();
  }
  fbf::ClientOptions admin_options;
  admin_options.max_attempts = 8;
  fbf::Client admin(transport, admin_options);
  const std::string csv =
      "9001,ann,abel,12 oak st,5550001111,f,123456789,01021990\n";
  EXPECT_TRUE(admin.ingest_csv(csv).ok());
  EXPECT_TRUE(admin.metrics().ok());
  std::set<std::pair<std::uint64_t, std::string>> out;
  for (const t::SpanRecord& span : t::Registry::global().spans()) {
    EXPECT_NE(span.trace, 0u);
    out.emplace(span.trace, span.name);
  }
  return out;
}

}  // namespace

TEST(TelemetryTrace, SpanSetsAreTransportEqualUnderFaultInjection) {
  const TelemetryGuard guard;
  auto built = d::build_paired_dataset(d::FieldKind::kLastName, 300, 31);
  ASSERT_TRUE(built.ok());
  const d::PairedDataset& dataset = built.value();
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::MatchService service(s::ServiceOptions{}, backend);
  service.index_strings(dataset.clean);
  const std::vector<std::string> queries(dataset.error.begin(),
                                         dataset.error.begin() + 8);

  // Both transports draw delivery faults from the same decision
  // function, and the clients retry until an attempt lands.
  u::FaultConfig faults;
  faults.seed = 97;
  faults.shard_fail_rate = 0.35;

  const auto in_process_transport =
      std::make_shared<fbf::net::InProcessTransport>(service.handler(),
                                                     faults);
  const auto in_process_spans = traced_span_set(in_process_transport, queries);

  fbf::net::ShardServerOptions server_options;
  server_options.faults = faults;
  server_options.injected_delay_ms = 100.0;
  fbf::net::ShardServer server(service.handler(), server_options);
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  transport_options.deadline_ms = 50.0;  // injected stalls expire quickly
  transport_options.faults = faults;
  const auto tcp_transport =
      std::make_shared<fbf::net::TcpTransport>(transport_options);
  const auto tcp_spans = traced_span_set(tcp_transport, queries);
  server.stop();

  // The injection was live on both sides, with the same failure totals.
  EXPECT_GT(in_process_transport->stats().total_failures(), 0u);
  EXPECT_EQ(in_process_transport->stats().total_failures(),
            tcp_transport->stats().total_failures());
  ASSERT_FALSE(in_process_spans.empty());
  EXPECT_EQ(in_process_spans, tcp_spans)
      << "a traced request must leave the same span set over both backends";

  // Every query trace reached all three layers: client delivery, the
  // serve handler, and the coalesced batch dispatch.
  for (const std::string& query : queries) {
    fbf::MatchRequest request;
    request.kind = fbf::MatchRequest::Kind::kString;
    request.text = query;
    const std::uint64_t trace = t::derive_trace_id(
        static_cast<std::uint16_t>(fbf::net::FrameType::kMatchQuery),
        s::encode_match_request(request));
    for (const char* layer : {"net.call", "serve.query", "serve.batch"}) {
      EXPECT_TRUE(tcp_spans.contains({trace, layer}))
          << layer << " span missing for traced query '" << query << "'";
    }
  }
}

TEST(TelemetryTrace, DisablingTracingStampsNoExtensionAndNoSpans) {
  const TelemetryGuard guard;
  t::set_trace_enabled(false);
  auto backend = std::make_shared<fbf::storage::MemObjectBackend>();
  s::MatchService service(s::ServiceOptions{}, backend);
  service.index_strings(std::vector<std::string>{"alpha", "beta"});
  fbf::Client client = fbf::Client::in_process(service);
  t::Registry::global().clear_spans();
  ASSERT_TRUE(client.match_string("alpha").ok());
  EXPECT_TRUE(t::Registry::global().spans().empty());
}
