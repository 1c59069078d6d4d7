// ingest-probe: journaled record ingest beside record probes, in-process.
//
// Set-up preloads 10,000 generate_people records into a MatchService
// over a MemObjectBackend (default DurabilityPolicy).  The run streams
// 8-record ingest batches at a fixed rate on one load thread beside
// open-loop match_record probes on two (main_* = probes, side_* =
// ingests).  The traced run adds an untraced base, a phase with client
// and handler spans, and a standalone DurableEntityStore replay that
// times ingest, checkpoint and EntityStore::probe without contention.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runner/harness.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/snapshot.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace lk = fbf::linkage;
namespace net = fbf::net;
namespace s = fbf::serve;

constexpr std::size_t kPreload = 10000;
constexpr std::size_t kPreloadBatch = 500;
constexpr std::size_t kBatch = 8;
constexpr double kIngestRate = 100.0;  ///< batches per second
constexpr double kProbeRate = 200.0;   ///< probes per second
constexpr std::size_t kProbeThreads = 2;
constexpr std::uint32_t kMaxMatches = 8;
constexpr std::size_t kSelfChecks = 24;

struct Data {
  std::vector<lk::PersonRecord> people;  ///< preload, then the stream
  std::vector<lk::PersonRecord> probes;  ///< error copies of preloaded people
};

Data make_data(std::uint64_t seed, std::size_t stream_batches) {
  fbf::util::Rng rng(seed);
  Data data;
  data.people = lk::generate_people(kPreload + stream_batches * kBatch, rng);
  const std::vector<lk::PersonRecord> preload(data.people.begin(),
                                              data.people.begin() + kPreload);
  data.probes = lk::make_error_records(preload, lk::RecordErrorModel{}, rng);
  return data;
}

std::span<const lk::PersonRecord> stream_batch(const Data& data, std::size_t b) {
  return std::span<const lk::PersonRecord>(data.people)
      .subspan(kPreload + b * kBatch, kBatch);
}

/// The service under test; never moved (the handler points into it).
struct Stack {
  SpanLog handler_spans;
  std::atomic<bool> recording{false};
  std::shared_ptr<fbf::storage::MemObjectBackend> backend;
  std::unique_ptr<s::MatchService> service;
  net::ShardHandler handler;
};

std::uint64_t trace_of(net::FrameType type, std::string_view payload) {
  return request_id(static_cast<std::uint16_t>(type), payload);
}

std::unique_ptr<Stack> build_stack(const Data& data, bool traced,
                                   Result& result) {
  auto stack = std::make_unique<Stack>();
  stack->backend = std::make_shared<fbf::storage::MemObjectBackend>();
  stack->service =
      std::make_unique<s::MatchService>(s::ServiceOptions{}, stack->backend);
  if (!stack->service->recover().ok()) {
    result.fail("recover() on an empty backend failed");
  }
  Stack* raw = stack.get();
  stack->handler = [raw, traced](const net::FrameContext& ctx,
                                 std::string_view payload) {
    if (!traced || !raw->recording.load(std::memory_order_relaxed)) {
      return raw->service->handle(ctx, payload);
    }
    const double start = now_ms();
    auto reply = raw->service->handle(ctx, payload);
    raw->handler_spans.add({ctx.type == net::FrameType::kIngest
                                ? "serve.handler.ingest"
                                : "serve.handler.probe",
                            trace_of(ctx.type, payload), "net.client", start,
                            now_ms()});
    return reply;
  };
  fbf::Client loader(std::make_shared<net::InProcessTransport>(stack->handler));
  const std::span<const lk::PersonRecord> preload(data.people.data(), kPreload);
  for (std::size_t off = 0; off < kPreload; off += kPreloadBatch) {
    if (!loader.ingest(preload.subspan(off, kPreloadBatch)).ok()) {
      result.fail("preload ingest failed");
    }
  }
  return stack;
}

struct StreamResult {
  LoopStats ingest;
  LoopStats probe;
  std::size_t wrong_acks = 0;
  std::size_t accepted = 0;
  double comparisons = 0.0;  ///< summed over successful probes
};

/// Runs the ingest stream (one thread) beside the probe stream (two
/// threads) for `seconds`; `spans` (when set) receives client spans.
StreamResult run_streams(Stack& stack, const Data& data, std::uint64_t seed,
                         double seconds, SpanLog* spans) {
  const std::uint64_t first_seq = kPreload / kPreloadBatch;
  StreamResult out;
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> wrong{0};
  std::mutex comparisons_mu;
  fbf::Client ingester(std::make_shared<net::InProcessTransport>(stack.handler));
  std::vector<fbf::Client> probers;
  for (std::size_t t = 0; t < kProbeThreads; ++t) {
    probers.emplace_back(std::make_shared<net::InProcessTransport>(stack.handler));
  }
  std::thread ingest_thread([&] {
    out.ingest = open_loop(kIngestRate, seconds, 1, [&](std::size_t b, std::size_t) {
      const std::span<const lk::PersonRecord> batch = stream_batch(data, b);
      std::uint64_t trace = 0;
      if (spans != nullptr) {
        s::IngestRequest request;
        request.records.assign(batch.begin(), batch.end());
        trace = trace_of(net::FrameType::kIngest, s::encode_ingest_request(request));
      }
      const double start = now_ms();
      auto reply = ingester.ingest(batch);
      if (spans != nullptr) {
        spans->add({"client.ingest", trace, "", start, now_ms()});
      }
      if (!reply.ok()) {
        return false;
      }
      // Acks advance one journal position per batch, in order.
      if (reply->seq != first_seq + b + 1 || reply->accepted != kBatch) {
        ++wrong;
        return false;
      }
      accepted += reply->accepted;
      return true;
    });
  });
  out.probe = open_loop(kProbeRate, seconds, kProbeThreads,
                        [&](std::size_t i, std::size_t thread) {
    fbf::MatchRequest request;
    request.kind = fbf::MatchRequest::Kind::kRecord;
    request.record = data.probes[draw(seed, i) % data.probes.size()];
    request.max_matches = kMaxMatches;
    std::uint64_t trace = 0;
    if (spans != nullptr) {
      trace = trace_of(net::FrameType::kMatchQuery, s::encode_match_request(request));
    }
    const double start = now_ms();
    auto reply = probers[thread].match(request);
    if (spans != nullptr) {
      spans->add({"client.probe", trace, "", start, now_ms()});
    }
    if (!reply.ok()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(comparisons_mu);
    out.comparisons += static_cast<double>(reply->comparisons);
    return true;
  });
  ingest_thread.join();
  out.wrong_acks = wrong;
  out.accepted = accepted;
  return out;
}

/// Post-run checks: store size, and clean copies of acked records find
/// themselves.
void check_store(Stack& stack, const Data& data, const StreamResult& run,
                 Result& result) {
  const std::size_t size = stack.service->durable_store().store().size();
  if (size != kPreload + run.accepted) {
    result.fail("store holds " + std::to_string(size) + " records, expected " +
                std::to_string(kPreload + run.accepted));
  }
  const std::size_t acked = run.accepted;
  if (acked == 0) {
    result.fail("no ingest batch was acknowledged");
    return;
  }
  fbf::Client client(std::make_shared<net::InProcessTransport>(stack.handler));
  std::size_t wrong = 0;
  for (std::size_t c = 0; c < kSelfChecks; ++c) {
    const std::size_t r = (c * 7919 + 13) % acked;
    auto reply = client.match_record(data.people[kPreload + r], 16);
    const auto expected = static_cast<std::uint32_t>(kPreload + r);
    const bool found =
        reply.ok() && std::any_of(reply->matches.begin(), reply->matches.end(),
                                  [&](const auto& m) { return m.id == expected; });
    wrong += found ? 0 : 1;
  }
  result.attempted += kSelfChecks;
  result.failed += wrong;
  result.note("store size " + std::to_string(size) + "; " +
              std::to_string(kSelfChecks - wrong) + "/" +
              std::to_string(kSelfChecks) + " acked records found themselves");
  if (wrong != 0) {
    result.fail("acked records missing from their own probes");
  }
}

void count_stream(const StreamResult& run, Result& result) {
  result.count(run.ingest);
  result.count(run.probe);
  if (run.wrong_acks != 0) {
    result.fail(std::to_string(run.wrong_acks) + " ingest acks out of sequence");
  }
}

struct StoreTimes {
  std::vector<double> ingest_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> probe_ms;
};

/// The same preload and the whole stream (`batches` batches, as many as an
/// untraced run ingests) against a bare DurableEntityStore, one call at a
/// time: ingest, checkpoint (same cadence as the service's policy, called
/// explicitly) and EntityStore::probe timed apart.
StoreTimes standalone_store(const Data& data, std::uint64_t seed,
                            std::size_t batches, Result& result) {
  const s::ServiceOptions options;
  lk::DurabilityPolicy policy = options.durability;
  const std::size_t every = policy.checkpoint_every;
  policy.checkpoint_every = 0;
  lk::DurableEntityStore store(options.comparator,
                               std::make_shared<fbf::storage::MemObjectBackend>(),
                               policy);
  StoreTimes times;
  const auto ingest = [&](std::span<const lk::PersonRecord> batch, bool timed) {
    const double start = now_ms();
    if (!store.ingest(batch).ok()) {
      result.fail("standalone ingest failed");
    }
    const double mid = now_ms();
    if (every != 0 && store.batches_ingested() % every == 0 &&
        !store.checkpoint().ok()) {
      result.fail("standalone checkpoint failed");
    }
    if (timed) {
      times.ingest_ms.push_back(mid - start);
      if (every != 0 && store.batches_ingested() % every == 0) {
        times.checkpoint_ms.push_back(now_ms() - mid);
      }
    }
  };
  const std::span<const lk::PersonRecord> preload(data.people.data(), kPreload);
  for (std::size_t off = 0; off < kPreload; off += kPreloadBatch) {
    ingest(preload.subspan(off, kPreloadBatch), false);
  }
  const auto probes_per_batch = static_cast<std::size_t>(kProbeRate / kIngestRate);
  std::size_t p = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    ingest(stream_batch(data, b), true);
    for (std::size_t j = 0; j < probes_per_batch; ++j, ++p) {
      const lk::PersonRecord& probe = data.probes[draw(seed, p) % data.probes.size()];
      const double start = now_ms();
      const auto found = store.store().probe(probe, kMaxMatches);
      times.probe_ms.push_back(now_ms() - start);
      (void)found;
    }
  }
  return times;
}

double backend_bytes(fbf::storage::MemObjectBackend& backend) {
  double bytes = 0.0;
  auto refs = backend.list("");
  if (!refs.ok()) {
    return 0.0;
  }
  for (const auto& ref : *refs) {
    auto blob = backend.get(ref);
    bytes += blob.ok() ? static_cast<double>(blob->size()) : 0.0;
  }
  return bytes;
}

}  // namespace

Result run_ingest_probe(const Args& args) {
  Result result;
  const auto stream_batches =
      static_cast<std::size_t>(kIngestRate * args.seconds) + 1;
  const Data data = make_data(args.seed, stream_batches);
  const lk::DurabilityPolicy policy = s::ServiceOptions{}.durability;
  result.stamp.emplace_back(
      "flush_policy",
      "checkpoint_every=" + std::to_string(policy.checkpoint_every) +
          " compact_every=" + std::to_string(policy.compact_every) +
          " group_commit.max_batch=" +
          std::to_string(policy.group_commit.max_batch));
  result.stamp.emplace_back("backend", "mem");
  result.stamp.emplace_back("preload", std::to_string(kPreload));
  result.stamp.emplace_back("ingest_rate_per_s", std::to_string(kIngestRate));
  result.stamp.emplace_back("probe_rate_per_s", std::to_string(kProbeRate));

  // The preload varies by about 15% from call to call, so it is timed
  // eight or nine times.
  std::unique_ptr<Stack> stack;
  result.metrics["setup_s"] = median_seconds(
      8.0, [&] { stack = build_stack(data, args.trace, result); },
      [&] { stack.reset(); });
  result.stamp.emplace_back("kernel", stack->service->corpus().kernel_name());
  result.stamp.emplace_back("generator", "dense");

  // Warm-up probes (reads only: the ingest stream's journal positions
  // stay exact).
  {
    fbf::Client warm(std::make_shared<net::InProcessTransport>(stack->handler));
    for (std::size_t i = 0; i < 50; ++i) {
      (void)warm.match_record(data.probes[draw(args.seed ^ 0x5741, i) %
                                          data.probes.size()]);
    }
  }

  if (!args.trace) {
    const StreamResult run = run_streams(*stack, data, args.seed, args.seconds, nullptr);
    count_stream(run, result);
    judge_open_loop("ingest stream", run.ingest, result);
    judge_open_loop("probe stream", run.probe, result);
    check_store(*stack, data, run, result);
    const auto& probe = run.probe.latency_ms;
    const auto& ingest = run.ingest.latency_ms;
    result.metrics["main_p50_ms"] = windowed_percentile(probe, 50.0);
    result.metrics["side_p50_ms"] = windowed_percentile(ingest, 50.0);
    result.metrics["side_tail_ms"] = tail(ingest);
    result.metrics["rss_mb"] = peak_rss_mb();
    result.note("probes (main): " + describe_latency(probe));
    result.note("ingests (side): " + describe_latency(ingest));
  } else {
    const double phase = args.seconds * 0.35;
    const StreamResult base = run_streams(*stack, data, args.seed, phase, nullptr);
    count_stream(base, result);
    judge_open_loop("base ingest stream", base.ingest, result);
    judge_open_loop("base probe stream", base.probe, result);
    check_store(*stack, data, base, result);

    // Traced phase on a fresh service with the same preload.
    stack = build_stack(data, /*traced=*/true, result);
    s::MatchService& service = *stack->service;
    const fbf::telemetry::MetricsSnapshot before = service.metrics_snapshot();
    const lk::DurabilityStats durable_before = service.durable_store().stats();
    SpanLog client_spans;
    stack->recording = true;
    const StreamResult traced =
        run_streams(*stack, data, args.seed, phase, &client_spans);
    stack->recording = false;
    const fbf::telemetry::MetricsSnapshot after = service.metrics_snapshot();
    const lk::DurabilityStats durable_after = service.durable_store().stats();
    count_stream(traced, result);
    const double lag_p99 =
        std::max(judge_open_loop("traced ingest stream", traced.ingest, result),
                 judge_open_loop("traced probe stream", traced.probe, result));
    check_store(*stack, data, traced, result);

    const std::vector<Span> calls = client_spans.take();
    const std::vector<Span> handled = stack->handler_spans.take();
    const std::vector<double> net_self = client_self_times(calls, handled);
    double client_total = 0.0;
    for (const Span& call : calls) {
      client_total += call.ms();
    }
    const std::vector<double> probe_handler =
        SpanLog::durations(handled, "serve.handler.probe");

    const StoreTimes store =
        standalone_store(data, args.seed, stream_batches - 1, result);
    const double probe_self_p50 = percentile(store.probe_ms, 50.0);
    const double n_ingest = static_cast<double>(traced.ingest.attempted);
    const double n_probe = static_cast<double>(traced.probe.attempted);
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) {
        sum += x;
      }
      return ratio(sum, static_cast<double>(v.size()));
    };
    double checkpoint_total = 0.0;
    for (const double ms : store.checkpoint_ms) {
      checkpoint_total += ms;
    }
    auto& m = result.metrics;
    m["net.self_ms.p50"] = percentile(net_self, 50.0);
    m["net.self_ms.p99"] = tail(net_self);
    m["net.calls_per_request"] =
        ratio(counter_delta(before, after, "net.calls"), n_ingest + n_probe);
    m["serve.self_ms.p50"] =
        std::max(0.0, percentile(probe_handler, 50.0) - probe_self_p50);
    m["serve.overloaded"] = counter_delta(before, after, "serve.overloaded");
    m["store.ingest_ms.p50"] = percentile(store.ingest_ms, 50.0);
    m["store.probe_ms.p50"] = probe_self_p50;
    // Same percentile on both sides: the one the smaller sample backs.
    const double wait_p = tail_percentile(
        std::min(probe_handler.size(), store.probe_ms.size()));
    m["store.lock_wait_ms.p99"] =
        std::max(0.0, percentile(probe_handler, wait_p) -
                          percentile(store.probe_ms, wait_p));
    m["store.comparisons_per_probe"] =
        ratio(traced.comparisons, static_cast<double>(traced.probe.latency_ms.size()));
    m["journal.checkpoint_ms.p99"] = tail(store.checkpoint_ms);
    m["journal.checkpoints"] =
        static_cast<double>(durable_after.checkpoints - durable_before.checkpoints);
    m["journal.syncs_per_ingest"] = ratio(
        static_cast<double>(durable_after.journal_syncs - durable_before.journal_syncs),
        static_cast<double>(durable_after.journal_appends -
                            durable_before.journal_appends));
    m["storage.bytes_per_record"] =
        ratio(backend_bytes(*stack->backend),
              static_cast<double>(service.durable_store().store().size()));
    m["share.store"] =
        ratio((mean(store.ingest_ms) + ratio(checkpoint_total, static_cast<double>(
                                                               store.ingest_ms.size()))) *
                      n_ingest +
                  mean(store.probe_ms) * n_probe,
              client_total);
    const double base_p50 = percentile(base.probe.latency_ms, 50.0);
    m["trace.base_ms"] = base_p50;
    m["trace.overhead_ratio"] =
        ratio(percentile(traced.probe.latency_ms, 50.0), base_p50);
    m["loadgen.sched_lag_ms.p99"] = lag_p99;
    result.note("traced probe handler: " + describe_latency(probe_handler));
    result.note("standalone probe: " + describe_latency(store.probe_ms));
    result.note("standalone ingest: " + describe_latency(store.ingest_ms));
    result.note("standalone checkpoint: " + describe_latency(store.checkpoint_ms));
  }
  result.note("error_rate " +
              std::to_string(ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted))));
  return result;
}

}  // namespace perfbench
