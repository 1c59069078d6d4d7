// fbf_served: the online match daemon (DESIGN.md §15, TUTORIAL §15).
//
// Hosts a serve::MatchService behind a net::ShardServer on an ephemeral
// loopback port: point match queries (string or record), streaming
// ingest into the durable entity store, and admin (stats / quarantine
// drain) over the frame protocol.  The corpus seeds from the synthetic
// field generator; the entity store persists to --data-dir (or an
// in-memory backend when unset) and recovers on startup.
//
// --smoke runs a self-contained exercise against the daemon's own port —
// ping, string + record queries, record + CSV ingest, quarantine drain
// (both repair families), the metrics endpoint — and exits nonzero on
// any failure.  CI's serve leg runs exactly this.
//
// Observability: --metrics-interval SECS prints a periodic snapshot diff
// (what moved since the last print) from the live telemetry registry;
// --json switches both it and the smoke's final metrics dump from the
// aligned text table to JSON.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/exec_policy.hpp"
#include "datagen/dataset.hpp"
#include "linkage/person_gen.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "storage/local_dir.hpp"
#include "storage/mem_object.hpp"
#include "telemetry/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

[[nodiscard]] fbf::datagen::FieldKind parse_field(const std::string& name) {
  using fbf::datagen::FieldKind;
  if (name == "fn") return FieldKind::kFirstName;
  if (name == "ad") return FieldKind::kAddress;
  if (name == "ph") return FieldKind::kPhone;
  if (name == "bi") return FieldKind::kBirthDate;
  if (name == "ssn") return FieldKind::kSsn;
  return FieldKind::kLastName;
}

/// The --smoke exercise: every request family round-trips through real
/// loopback sockets; any failure is fatal.
int run_smoke(fbf::Client& client, const std::vector<std::string>& corpus,
              bool json) {
  namespace u = fbf::util;
  if (u::Status ping = client.ping(); !ping.ok()) {
    std::cerr << "smoke: ping failed: " << ping.to_string() << "\n";
    return 1;
  }
  // A corpus member must match itself.
  u::Result<fbf::MatchResponse> self = client.match_string(corpus.front());
  if (!self.ok() || self->matches.empty()) {
    std::cerr << "smoke: self-match failed\n";
    return 1;
  }
  // Ingest clean records, then probe with an error copy.
  u::Rng rng(7);
  const std::vector<fbf::linkage::PersonRecord> people =
      fbf::linkage::generate_people(64, rng);
  u::Result<fbf::serve::IngestReply> ingest = client.ingest(people);
  if (!ingest.ok() || ingest->accepted != people.size()) {
    std::cerr << "smoke: record ingest failed\n";
    return 1;
  }
  u::Result<fbf::MatchResponse> probe = client.match_record(people.front());
  if (!probe.ok() || probe->matches.empty()) {
    std::cerr << "smoke: record probe found nothing\n";
    return 1;
  }
  // The service serves record probes on the entity store's block index
  // (unless FBF_FORCE_GENERATOR pins another generator).
  const char* want_generator = fbf::core::generator_name(
      fbf::core::select_generator(fbf::core::GeneratorKind::kBlockIndex));
  if (probe->generator != want_generator) {
    std::cerr << "smoke: record probe served by '" << probe->generator
              << "', expected '" << want_generator << "'\n";
    return 1;
  }
  // CSV ingest with three damaged rows, one per triage outcome: a
  // doubled leading delimiter (every cell shifts right, the id reads
  // empty), a dropped delimiter fusing gender+ssn into one cell (the
  // shifted-column repair finds the unique format-valid split), and a
  // genuinely broken row that must stay parked.
  const std::string csv =
      "9001,ann,abel,12 oak st,5550001111,f,123456789,01021990\n"
      ",9002,bob,baker,34 elm st,5550002222,m,987654321,03041985\n"
      "9003,carl,cole,56 pine st,5550003333,m123456780,05061980\n"
      "broken,row\n";
  u::Result<fbf::serve::IngestReply> csv_reply = client.ingest_csv(csv);
  if (!csv_reply.ok() || csv_reply->accepted != 1 ||
      csv_reply->quarantined != 3) {
    std::cerr << "smoke: csv ingest accounting wrong\n";
    return 1;
  }
  u::Result<fbf::serve::DrainReply> drain = client.drain_quarantine();
  if (!drain.ok() || drain->repaired != 2 || drain->still_bad != 1 ||
      drain->doubled_delimiter != 1 || drain->shifted_column != 1) {
    std::cerr << "smoke: quarantine drain accounting wrong\n";
    return 1;
  }
  // The metrics endpoint must expose the live pipeline ladder, the serve
  // request families, the repair tallies and the transport counters.
  u::Result<fbf::telemetry::MetricsSnapshot> metrics = client.metrics();
  if (!metrics.ok()) {
    std::cerr << "smoke: metrics fetch failed: "
              << metrics.status().to_string() << "\n";
    return 1;
  }
  const fbf::telemetry::MetricsSnapshot& m = metrics.value();
  const fbf::telemetry::HistogramStats* lat = m.histogram("serve.query");
  if (m.counter("serve.queries") < 2 || lat == nullptr || lat->count < 2 ||
      m.gauge("serve.corpus_size") == 0 || m.gauge("serve.store_size") == 0 ||
      m.counter("pipeline.fbf_evaluated") == 0 ||
      m.counter("quarantine.repaired.doubled_delimiter") != 1 ||
      m.counter("quarantine.repaired.shifted_column") != 1 ||
      m.counter("net.server.requests") == 0) {
    std::cerr << "smoke: metrics snapshot missing expected rows:\n"
              << fbf::telemetry::render_metrics_table(m);
    return 1;
  }
  std::cout << (json ? fbf::telemetry::render_metrics_json(m)
                     : fbf::telemetry::render_metrics_table(m));
  std::cout << "smoke: ok (kernel=";
  for (const auto& [name, value] : m.info) {
    if (name == "serve.kernel") {
      std::cout << value;
    }
  }
  std::cout << " corpus=" << m.gauge("serve.corpus_size")
            << " store=" << m.gauge("serve.store_size")
            << " entities=" << m.gauge("serve.entity_count") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace u = fbf::util;
  const u::CliArgs args(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(args.get_int("n", 10000));
  const std::string field_name = args.get_string("field", "ln");
  const std::size_t workers =
      static_cast<std::size_t>(args.get_int("workers", 2));
  const std::size_t max_batch =
      static_cast<std::size_t>(args.get_int("max-batch", 8));
  const std::size_t batch_threads =
      static_cast<std::size_t>(args.get_int("batch-threads", 1));
  const std::size_t inflight =
      static_cast<std::size_t>(args.get_int("inflight", 64));
  const std::string data_dir = args.get_string("data-dir", "");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const bool smoke = args.get_bool("smoke");
  const double metrics_interval = args.get_double("metrics-interval", 0.0);
  const bool json = args.get_bool("json");
  if (const auto unknown = args.unknown_flags(); !unknown.empty()) {
    std::cerr << "unknown flag --" << unknown.front() << "\n";
    return 2;
  }

  const fbf::datagen::FieldKind field = parse_field(field_name);
  fbf::serve::ServiceOptions options;
  options.query.field_class = fbf::datagen::field_class_of(field);
  // >1 fans each coalesced batch across a worker pool (corpus.hpp);
  // results are exec-policy invariant, only saturation throughput moves.
  options.query.exec.threads = batch_threads;
  options.coalescer.max_batch = max_batch;
  options.max_inflight = inflight;

  std::shared_ptr<fbf::storage::StorageBackend> backend;
  if (data_dir.empty()) {
    backend = std::make_shared<fbf::storage::MemObjectBackend>();
  } else {
    backend = std::make_shared<fbf::storage::LocalDirBackend>(data_dir);
  }
  fbf::serve::MatchService service(options, std::move(backend));
  if (auto recovered = service.recover(); !recovered.ok()) {
    std::cerr << "recovery failed: " << recovered.status().to_string()
              << "\n";
    return 1;
  } else if (recovered->snapshot_loaded ||
             recovered->journal_batches_replayed > 0) {
    std::cout << "recovered store: " << service.durable_store().store().size()
              << " records (" << recovered->journal_batches_replayed
              << " journal batches replayed)\n";
  }

  u::Rng rng(seed);
  const std::vector<std::string> corpus =
      fbf::datagen::generate_field(field, n, rng);
  service.index_strings(corpus);

  fbf::net::ShardServerOptions server_options;
  server_options.workers = workers;
  fbf::net::ShardServer server(service.handler(), server_options);
  std::cout << "fbf_served listening on 127.0.0.1:" << server.port()
            << " (corpus=" << corpus.size()
            << " kernel=" << service.corpus().kernel_name() << ")\n";

  if (smoke) {
    fbf::net::TcpTransportOptions transport_options;
    transport_options.port = server.port();
    fbf::Client client(
        std::make_shared<fbf::net::TcpTransport>(transport_options));
    const int rc = run_smoke(client, corpus, json);
    server.stop();
    service.stop();
    return rc;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Periodic snapshot-diff log: every interval, print what moved —
  // counter deltas, current gauges, histogram summaries with the count
  // delta — so a quiet daemon prints (nearly) nothing.
  using Clock = std::chrono::steady_clock;
  fbf::telemetry::MetricsSnapshot prev;
  Clock::time_point next_print = Clock::now();
  if (metrics_interval > 0.0) {
    prev = service.metrics_snapshot();
    next_print += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(metrics_interval));
  }
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (metrics_interval > 0.0 && Clock::now() >= next_print) {
      fbf::telemetry::MetricsSnapshot cur = service.metrics_snapshot();
      const fbf::telemetry::MetricsSnapshot delta =
          fbf::telemetry::diff(prev, cur);
      std::cout << (json ? fbf::telemetry::render_metrics_json(delta)
                         : fbf::telemetry::render_metrics_table(delta))
                << std::flush;
      prev = std::move(cur);
      next_print = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          metrics_interval));
    }
  }
  std::cout << "shutting down\n";
  server.stop();
  service.stop();
  return 0;
}
