// fbf::Client transport equivalence (DESIGN.md §15): the same request
// against the same service state returns fingerprint-equal responses
// from the in-process and TCP backends — under fault injection included,
// because retries re-deliver until a clean attempt lands.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/dataset.hpp"
#include "linkage/person_gen.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"
#include "util/rng.hpp"

namespace c = fbf::core;
namespace d = fbf::datagen;
namespace l = fbf::linkage;
namespace s = fbf::serve;
namespace u = fbf::util;

namespace {

/// One service seeded with strings + records, shared by both transports.
struct ServeFixture {
  std::shared_ptr<fbf::storage::MemObjectBackend> backend =
      std::make_shared<fbf::storage::MemObjectBackend>();
  s::MatchService service{s::ServiceOptions{}, backend};
  d::PairedDataset dataset;
  std::vector<l::PersonRecord> clean;
  std::vector<l::PersonRecord> error;

  explicit ServeFixture(std::uint64_t seed) {
    auto built = d::build_paired_dataset(d::FieldKind::kLastName, 400, seed);
    EXPECT_TRUE(built.ok());
    dataset = std::move(built.value());
    service.index_strings(dataset.clean);
    // Replies name the route and counters depend on it: compare against
    // the published index, not a build racing the requests.
    service.corpus().wait_for_index();
    u::Rng rng(seed + 1);
    clean = l::generate_people(60, rng);
    l::RecordErrorModel model;
    error = l::make_error_records(clean, model, rng);
    fbf::Client seeder = fbf::Client::in_process(service);
    EXPECT_TRUE(seeder.ingest(clean).ok());
  }
};

}  // namespace

TEST(ServeClient, InProcessAndTcpBackendsAnswerIdentically) {
  ServeFixture fixture(41);
  fbf::Client local = fbf::Client::in_process(fixture.service);
  fbf::net::ShardServer server(fixture.service.handler());
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  fbf::Client remote(
      std::make_shared<fbf::net::TcpTransport>(transport_options));
  EXPECT_STREQ(local.backend_name(), "inprocess");
  EXPECT_STREQ(remote.backend_name(), "tcp");
  ASSERT_TRUE(remote.ping().ok());

  for (std::size_t i = 0; i < 24; ++i) {
    const u::Result<fbf::MatchResponse> a =
        local.match_string(fixture.dataset.error[i]);
    const u::Result<fbf::MatchResponse> b =
        remote.match_string(fixture.dataset.error[i]);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_EQ(s::match_response_fingerprint(*a),
              s::match_response_fingerprint(*b))
        << "string query " << i;
    // The served generator crosses both transports unchanged (the
    // service default; FBF_FORCE_GENERATOR=dense pins it dense).
    EXPECT_EQ(a->generator, b->generator) << "string query " << i;
    EXPECT_EQ(a->generator,
              c::generator_name(fixture.service.corpus().generator()))
        << "string query " << i;
    EXPECT_EQ(a->comparisons, a->counters.candidates_generated);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    const u::Result<fbf::MatchResponse> a =
        local.match_record(fixture.error[i]);
    const u::Result<fbf::MatchResponse> b =
        remote.match_record(fixture.error[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(s::match_response_fingerprint(*a),
              s::match_response_fingerprint(*b))
        << "record probe " << i;
  }
}

TEST(ServeClient, BackendsStayEquivalentUnderFaultInjection) {
  ServeFixture fixture(42);
  // ~35% of attempts fail; the client's retry loop bumps the attempt
  // number, and fault draws are pure in (shard, attempt), so a retry can
  // land.  Both transports draw from the same decision function.
  u::FaultConfig faults;
  faults.seed = 97;
  faults.shard_fail_rate = 0.35;

  const auto in_process_transport =
      std::make_shared<fbf::net::InProcessTransport>(
          fixture.service.handler(), faults);

  fbf::net::ShardServerOptions server_options;
  server_options.faults = faults;
  server_options.injected_delay_ms = 100.0;
  fbf::net::ShardServer server(fixture.service.handler(), server_options);
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  transport_options.deadline_ms = 50.0;  // injected stalls expire quickly
  transport_options.faults = faults;
  const auto tcp_transport =
      std::make_shared<fbf::net::TcpTransport>(transport_options);

  for (std::size_t i = 0; i < 16; ++i) {
    // Fault draws are pure in (shard, attempt): give each query its own
    // shard id so every query faces a fresh failure pattern, identical
    // across the two transports.
    fbf::ClientOptions client_options;
    client_options.max_attempts = 8;
    client_options.shard = i;
    fbf::Client local(in_process_transport, client_options);
    fbf::Client remote(tcp_transport, client_options);
    const u::Result<fbf::MatchResponse> a =
        local.match_string(fixture.dataset.error[i]);
    const u::Result<fbf::MatchResponse> b =
        remote.match_string(fixture.dataset.error[i]);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_EQ(s::match_response_fingerprint(*a),
              s::match_response_fingerprint(*b))
        << "faulted string query " << i;
  }
  // Faults actually fired on both transports and the totals agree (same
  // seed, same decision function, same shard/attempt numbering).
  EXPECT_GT(in_process_transport->stats().total_failures(), 0u);
  EXPECT_GT(tcp_transport->stats().total_failures(), 0u);
  EXPECT_EQ(in_process_transport->stats().total_failures(),
            tcp_transport->stats().total_failures());
}

TEST(ServeClient, IngestAndAdminWorkOverBothBackends) {
  ServeFixture fixture(43);
  fbf::Client local = fbf::Client::in_process(fixture.service);
  fbf::net::ShardServer server(fixture.service.handler());
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  fbf::Client remote(
      std::make_shared<fbf::net::TcpTransport>(transport_options));

  u::Rng rng(99);
  const std::vector<l::PersonRecord> more = l::generate_people(10, rng);
  const u::Result<s::IngestReply> via_tcp =
      remote.ingest(std::span<const l::PersonRecord>(more.data(), 5));
  ASSERT_TRUE(via_tcp.ok()) << via_tcp.status().to_string();
  EXPECT_EQ(via_tcp->accepted, 5u);
  const u::Result<s::IngestReply> via_local =
      local.ingest(std::span<const l::PersonRecord>(more.data() + 5, 5));
  ASSERT_TRUE(via_local.ok());
  EXPECT_EQ(via_local->seq, via_tcp->seq + 1)
      << "both backends commit through the same journal";

  const u::Result<fbf::telemetry::MetricsSnapshot> a = local.metrics();
  const u::Result<fbf::telemetry::MetricsSnapshot> b = remote.metrics();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->gauge("serve.store_size"), b->gauge("serve.store_size"));
  EXPECT_EQ(a->gauge("serve.corpus_size"), b->gauge("serve.corpus_size"));
  EXPECT_EQ(a->info, b->info);
}

TEST(ServeClient, DeprecatedEntryPointsAndClientAgreeOnMatches) {
  // Consolidation check: a lookup through the request-level client finds
  // the same corpus neighbors as the batch join over the same options.
  ServeFixture fixture(44);
  fbf::Client client = fbf::Client::in_process(fixture.service);
  const std::string& query = fixture.dataset.error[3];
  const u::Result<fbf::MatchResponse> served = client.match_string(query, 0);
  ASSERT_TRUE(served.ok());

  const c::MatchCorpus corpus(fixture.service.corpus().options(),
                              fixture.dataset.clean);
  corpus.wait_for_index();
  const c::CorpusResult direct = corpus.query(query);
  EXPECT_EQ(served->generator, c::generator_name(direct.generator));
  ASSERT_EQ(served->matches.size(), direct.matches.size());
  for (std::size_t i = 0; i < direct.matches.size(); ++i) {
    EXPECT_EQ(served->matches[i].id, direct.matches[i]);
    EXPECT_EQ(served->matches[i].value,
              fixture.dataset.clean[direct.matches[i]]);
  }
  EXPECT_EQ(served->counters.fbf_pass, direct.counters.fbf_pass);
  EXPECT_EQ(served->counters.verify_calls, direct.counters.verify_calls);
}
