// Served point queries: point-ln-1m (in-process fbf::Client over a
// 1,000,000-string LN corpus) and point-tcp-ln-20k (ShardServer +
// TcpTransport over a 20,000-string corpus).
//
// Untraced run: an open loop at a fixed rate (main_*), then a closed loop
// with three callers (side_*).  Traced run: an untraced base phase, a
// phase with spans around the client call and the handler, a phase that
// drives a BatchCoalescer with a timing BatchFn over the service's corpus
// (coalescer wait, corpus batch time), and a filter/verify decomposition
// over a CandidatePipeline built on the same corpus.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/candidate_pipeline.hpp"
#include "core/query_options.hpp"
#include "datagen/dataset.hpp"
#include "runner/harness.hpp"
#include "metrics/pdl.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/coalescer.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"

namespace perfbench {
namespace {

namespace c = fbf::core;
namespace net = fbf::net;
namespace s = fbf::serve;

constexpr std::size_t kLoadThreads = 3;
constexpr std::uint32_t kMaxMatches = 8;
constexpr int kK = 1;
/// TCP server starts timed for set-up (an odd count, so the median is one
/// of them).
constexpr std::size_t kServerStarts = 15;
/// The bounded tail of the closed loop is p90: its p99 is set by vCPU
/// wake-up latency and neighbours' memory traffic on a shared virtual
/// machine, and moved by half its value between identical runs.  The
/// notes still print p99.
constexpr double kTailP = 90.0;

struct PointPlan {
  std::size_t n = 0;
  double open_rate = 0.0;    ///< open-loop requests per second
  std::size_t checks = 0;    ///< replies compared with brute force
};

/// The service under test.  Heap-allocated and never moved: the handler
/// and the server hold pointers into it.  Members are destroyed in
/// reverse order, so the server stops before the service goes away.
struct Stack {
  SpanLog handler_spans;
  std::atomic<bool> recording{false};
  std::unique_ptr<s::MatchService> service;
  net::ShardHandler handler;
  std::unique_ptr<net::ShardServer> server;
};

/// The service over the corpus; run_point starts the TCP server.
std::unique_ptr<Stack> build_stack(const std::vector<std::string>& corpus,
                                   bool traced) {
  auto stack = std::make_unique<Stack>();
  stack->service = std::make_unique<s::MatchService>(
      s::ServiceOptions{}, std::make_shared<fbf::storage::MemObjectBackend>());
  stack->service->index_strings(corpus);
  if (traced) {
    Stack* raw = stack.get();
    stack->handler = [raw](const net::FrameContext& ctx,
                           std::string_view payload) {
      if (!raw->recording.load(std::memory_order_relaxed)) {
        return raw->service->handle(ctx, payload);
      }
      const double start = now_ms();
      auto reply = raw->service->handle(ctx, payload);
      raw->handler_spans.add(
          {"serve.handler",
           request_id(static_cast<std::uint16_t>(ctx.type), payload),
           "net.client", start, now_ms()});
      return reply;
    };
  } else {
    stack->handler = stack->service->handler();
  }
  return stack;
}

fbf::Client make_client(Stack& stack) {
  if (stack.server) {
    net::TcpTransportOptions options;
    options.port = stack.server->port();
    return fbf::Client(std::make_shared<net::TcpTransport>(options));
  }
  return fbf::Client(std::make_shared<net::InProcessTransport>(stack.handler));
}

/// One client per load thread (transports keep unsynchronized tallies).
std::vector<fbf::Client> make_clients(Stack& stack) {
  std::vector<fbf::Client> clients;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    clients.push_back(make_client(stack));
  }
  return clients;
}

fbf::MatchRequest string_request(const std::string& text) {
  fbf::MatchRequest request;
  request.kind = fbf::MatchRequest::Kind::kString;
  request.text = text;
  request.max_matches = kMaxMatches;
  return request;
}

struct Sample {
  std::size_t query = 0;
  std::vector<std::uint32_t> ids;
};

/// Replies that disagree with brute-force pdl_within over the corpus.
std::size_t count_wrong(const std::vector<Sample>& samples,
                        const std::vector<std::string>& corpus,
                        const std::vector<std::string>& queries) {
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < samples.size(); i = next++) {
        const std::string& q = queries[samples[i].query];
        std::vector<std::uint32_t> expect;
        for (std::size_t j = 0; j < corpus.size() && expect.size() < kMaxMatches;
             ++j) {
          if (fbf::metrics::pdl_within(q, corpus[j], kK)) {
            expect.push_back(static_cast<std::uint32_t>(j));
          }
        }
        if (expect != samples[i].ids) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  return wrong;
}

struct LayerTimes {
  std::vector<double> submit_ms;
  std::vector<double> wait_ms;
  std::vector<double> batch_ms;
};

/// Drives a benchmark-owned BatchCoalescer (the service's coalescer
/// options) whose BatchFn times MatchCorpus::query_batch, on the open
/// loop's schedule.  Queries find their submit time by text.
LayerTimes coalescer_phase(const c::MatchCorpus& corpus,
                           const std::vector<std::string>& queries,
                           std::uint64_t seed, double rate, double seconds) {
  std::mutex mu;
  std::multimap<std::string, double> pending;
  LayerTimes times;
  s::BatchCoalescer coalescer(
      [&](std::span<const std::string> batch) {
        const double start = now_ms();
        std::vector<c::CorpusResult> results = corpus.query_batch(batch);
        const double end = now_ms();
        std::lock_guard<std::mutex> lock(mu);
        times.batch_ms.push_back(end - start);
        for (const std::string& q : batch) {
          const auto it = pending.find(q);
          if (it != pending.end()) {
            times.wait_ms.push_back(start - it->second);
            pending.erase(it);
          }
        }
        return results;
      },
      s::ServiceOptions{}.coalescer);
  const LoopStats loop = open_loop(rate, seconds, kLoadThreads,
                                   [&](std::size_t i, std::size_t) {
    const std::string& q = queries[draw(seed, i) % queries.size()];
    const double start = now_ms();
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace(q, start);
    }
    const bool ok = coalescer.submit(q).ok();
    const double end = now_ms();
    std::lock_guard<std::mutex> lock(mu);
    times.submit_ms.push_back(end - start);
    return ok;
  });
  coalescer.stop();
  return times;
}

/// Filter and verify timed apart on a pipeline over the corpus, one query
/// at a time, for `seconds`.
void decomposition_phase(const std::vector<std::string>& corpus,
                         const std::vector<std::string>& queries,
                         std::uint64_t seed, double seconds, Result& result) {
  const c::CandidatePipeline pipeline(c::make_pipeline_config(c::QueryOptions{}),
                                      corpus);
  std::vector<std::uint64_t> bitmap(c::CandidatePipeline::bitmap_words(corpus.size()));
  c::PipelineCounters counters;
  double filter_ms = 0.0;
  double verify_ms = 0.0;
  std::size_t done = 0;
  std::size_t matches = 0;
  const double stop = now_ms() + seconds * 1000.0;
  while (now_ms() < stop || done == 0) {
    const std::string& q = queries[draw(seed ^ 0xDEC0, done) % queries.size()];
    const c::CandidatePipeline::Query query = pipeline.make_query(q);
    const double t0 = now_ms();
    pipeline.filter(query, 0, corpus.size(), nullptr, bitmap.data(), counters);
    const double t1 = now_ms();
    c::CandidatePipeline::for_each_survivor(
        bitmap.data(), corpus.size(), [&](std::size_t j) {
          matches += pipeline.verify(q, corpus[j], counters) ? 1u : 0u;
        });
    verify_ms += now_ms() - t1;
    filter_ms += t1 - t0;
    ++done;
  }
  const double n = static_cast<double>(done);
  result.metrics["filter.ms"] = filter_ms / n;
  result.metrics["verify.ms"] = verify_ms / n;
  result.metrics["filter.lanes_per_s"] =
      ratio(n * static_cast<double>(corpus.size()), filter_ms / 1000.0);
  result.metrics["verify.match_ratio"] =
      ratio(static_cast<double>(matches),
            static_cast<double>(counters.verify_calls));
}

}  // namespace

Result run_point(const Args& args, bool tcp) {
  const PointPlan plan = tcp ? PointPlan{20000, 1000.0, 64}
                             : PointPlan{1000000, 400.0, 12};
  Result result;
  auto built = fbf::datagen::build_paired_dataset(
      fbf::datagen::FieldKind::kLastName, plan.n, args.seed);
  if (!built.ok()) {
    result.fail("dataset: " + built.status().to_string());
    return result;
  }
  const std::vector<std::string>& corpus = built->clean;
  const std::vector<std::string>& queries = built->error;

  // Set-up is indexing the corpus into the service and, over TCP,
  // starting the server.  Both index builds move with the host's load over
  // seconds (the memory-bound 1M one by up to a third), so their calls are
  // spread over five seconds.
  std::unique_ptr<Stack> stack;
  // ShardServer::stop() wakes its workers without holding their queue
  // lock, so a server stopped just as a worker starts to wait can hang in
  // join.  Server starts are therefore timed on servers that stay up, idle,
  // until the run ends; the last one started serves the load.
  std::vector<std::unique_ptr<net::ShardServer>> idle_servers;
  double setup_s = 0.0;
  {
    const ServiceCpu service_cpu;
    setup_s = median_seconds(
        5.0, [&] { stack = build_stack(corpus, args.trace); },
        [&] { stack.reset(); });
    if (tcp) {
      std::vector<double> starts;
      for (std::size_t i = 0; i < kServerStarts; ++i) {
        const double start = now_ms();
        idle_servers.push_back(std::make_unique<net::ShardServer>(stack->handler));
        starts.push_back((now_ms() - start) / 1000.0);
      }
      setup_s += percentile(starts, 50.0);
      stack->server = std::move(idle_servers.back());
      idle_servers.pop_back();
    }
  }
  result.metrics["setup_s"] = setup_s;
  s::MatchService& service = *stack->service;
  result.stamp.emplace_back("kernel", service.corpus().kernel_name());
  result.stamp.emplace_back("generator", "dense");
  result.stamp.emplace_back("transport", tcp ? "tcp" : "inprocess");
  result.stamp.emplace_back("corpus", std::to_string(plan.n));
  result.stamp.emplace_back("open_rate_per_s", std::to_string(plan.open_rate));
  result.stamp.emplace_back("load_threads", std::to_string(kLoadThreads));

  std::vector<fbf::Client> clients = make_clients(*stack);
  std::mutex sample_mu;
  std::vector<Sample> samples;
  // Request i of a phase asks for queries[draw(phase seed, i)]; every
  // `check_every`-th open-loop reply is kept for the brute-force check.
  const auto query_op = [&](std::uint64_t stream, std::size_t check_every,
                            SpanLog* spans) {
    return [&, stream, check_every, spans](std::size_t i, std::size_t thread) {
      const std::size_t qi = draw(args.seed ^ stream, i) % queries.size();
      const fbf::MatchRequest request = string_request(queries[qi]);
      std::uint64_t trace = 0;
      if (spans != nullptr) {
        trace = request_id(static_cast<std::uint16_t>(net::FrameType::kMatchQuery),
                           s::encode_match_request(request));
      }
      const double start = now_ms();
      auto reply = clients[thread].match(request);
      if (spans != nullptr) {
        spans->add({"net.client", trace, "", start, now_ms()});
      }
      if (!reply.ok()) {
        return false;
      }
      if (check_every != 0 && i % check_every == 0) {
        Sample sample{qi, {}};
        for (const auto& match : reply->matches) {
          sample.ids.push_back(match.id);
        }
        std::lock_guard<std::mutex> lock(sample_mu);
        samples.push_back(std::move(sample));
      }
      return true;
    };
  };

  // Warm-up: caches fill and lazy set-up finishes before timing.
  (void)closed_loop(0.3, kLoadThreads, query_op(0x5741, 0, nullptr));

  const std::size_t open_total =
      static_cast<std::size_t>(plan.open_rate * args.seconds);
  const std::size_t check_every = std::max<std::size_t>(1, open_total / plan.checks);
  if (!args.trace) {
    // Open- and closed-loop segments alternate, so interference that
    // comes and goes lands on both and on several windows of each.
    constexpr std::uint64_t kRounds = 3;
    LoopStats open;
    LoopStats closed;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      append(open, open_loop(plan.open_rate, args.seconds * 0.6 / kRounds,
                             kLoadThreads,
                             query_op(0x09E4 + (r << 32), check_every, nullptr)));
      append(closed, closed_loop(args.seconds * 0.4 / kRounds, kLoadThreads,
                                 query_op(0xC105 + (r << 32), 0, nullptr)));
    }
    result.count(open);
    result.count(closed);
    judge_open_loop("open loop", open, result);
    result.metrics["main_p50_ms"] = windowed_percentile(open.latency_ms, 50.0);
    result.metrics["side_p50_ms"] = windowed_percentile(closed.latency_ms, 50.0);
    result.metrics["side_tail_ms"] = windowed_percentile(closed.latency_ms, kTailP);
    result.metrics["rss_mb"] = peak_rss_mb();
    result.note("open loop (main): " + describe_latency(open.latency_ms));
    result.note("closed loop x3 (side): " + describe_latency(closed.latency_ms) +
                ", saturation " +
                std::to_string(ratio(static_cast<double>(closed.latency_ms.size()),
                                     closed.wall_s)) +
                " q/s");
  } else {
    // Base: the same open loop without spans.
    const LoopStats base = open_loop(plan.open_rate, args.seconds * 0.3,
                                     kLoadThreads,
                                     query_op(0x09E4, check_every, nullptr));
    result.count(base);
    judge_open_loop("base open loop", base, result);

    // Traced full stack: client span around the call, handler span around
    // MatchService::handle, registry rows before and after.
    SpanLog client_spans;
    const fbf::telemetry::MetricsSnapshot before = service.metrics_snapshot();
    stack->recording = true;
    const LoopStats traced = open_loop(plan.open_rate, args.seconds * 0.3,
                                       kLoadThreads,
                                       query_op(0x7ACE, 0, &client_spans));
    stack->recording = false;
    const fbf::telemetry::MetricsSnapshot after = service.metrics_snapshot();
    result.count(traced);
    const double lag_p99 = judge_open_loop("traced open loop", traced, result);

    const std::vector<Span> calls = client_spans.take();
    const std::vector<Span> handled = stack->handler_spans.take();
    const std::vector<double> net_self = client_self_times(calls, handled);
    const std::vector<double> call_ms = SpanLog::durations(calls, "net.client");
    const std::vector<double> handler_ms =
        SpanLog::durations(handled, "serve.handler");
    const double requests = static_cast<double>(traced.attempted);

    // Layer probes: the coalescer + corpus on the same schedule, then the
    // filter/verify decomposition.
    const LayerTimes layer = coalescer_phase(service.corpus(), queries,
                                             args.seed ^ 0xC0A1,
                                             plan.open_rate, args.seconds * 0.25);
    decomposition_phase(corpus, queries, args.seed, args.seconds * 0.15, result);

    const double call_p50 = percentile(call_ms, 50.0);
    const double net_p50 = percentile(net_self, 50.0);
    const double serve_p50 = std::max(
        0.0, percentile(handler_ms, 50.0) - percentile(layer.submit_ms, 50.0));
    const double wait_p50 = percentile(layer.wait_ms, 50.0);
    auto& m = result.metrics;
    m["net.self_ms.p50"] = net_p50;
    m["net.self_ms.p99"] = tail(net_self);
    m["net.calls_per_request"] =
        ratio(counter_delta(before, after, "net.calls"), requests);
    m["serve.self_ms.p50"] = serve_p50;
    m["serve.overloaded"] = counter_delta(before, after, "serve.overloaded");
    m["coalescer.wait_ms.p50"] = wait_p50;
    m["coalescer.wait_ms.p99"] = tail(layer.wait_ms);
    m["coalescer.batch_size.mean"] =
        ratio(gauge_delta(before, after, "serve.batch.queries"),
              gauge_delta(before, after, "serve.batch.batches"));
    m["corpus.batch_ms.p50"] = percentile(layer.batch_ms, 50.0);
    m["corpus.batch_ms.p99"] = tail(layer.batch_ms);
    m["generate.selectivity"] =
        ratio(counter_delta(before, after, "pipeline.candidates_generated"),
              requests * static_cast<double>(plan.n));
    m["filter.pass_ratio"] =
        ratio(counter_delta(before, after, "pipeline.fbf_pass"),
              counter_delta(before, after, "pipeline.fbf_evaluated"));
    m["verify.calls"] =
        ratio(counter_delta(before, after, "pipeline.verify_calls"), requests);
    m["share.corpus"] = ratio(m["corpus.batch_ms.p50"], call_p50);
    m["share.front"] = ratio(net_p50 + wait_p50 + serve_p50, call_p50);
    const double base_p50 = percentile(base.latency_ms, 50.0);
    m["trace.base_ms"] = base_p50;
    m["trace.overhead_ratio"] =
        ratio(percentile(traced.latency_ms, 50.0), base_p50);
    m["loadgen.sched_lag_ms.p99"] = lag_p99;
    result.note("traced client call: " + describe_latency(call_ms));
    result.note("handler: " + describe_latency(handler_ms));
    result.note("coalescer submit: " + describe_latency(layer.submit_ms));
    result.note("corpus batch: " + describe_latency(layer.batch_ms));
  }

  const std::size_t wrong = count_wrong(samples, corpus, queries);
  result.note("checked " + std::to_string(samples.size()) +
              " replies against brute-force pdl_within: " +
              std::to_string(wrong) + " wrong");
  result.failed += wrong;
  if (wrong != 0 || samples.empty()) {
    result.fail("point replies disagree with brute force (or none checked)");
  }
  result.note("error_rate " +
              std::to_string(ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted))));
  if (tcp) {
    // The serving workers settle into their wait before the server stops
    // (see the set-up above).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return result;
}

}  // namespace perfbench
