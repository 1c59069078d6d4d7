// Durability cost model (DESIGN.md §11): what a checkpoint costs as the
// store grows, what a *delta* checkpoint costs instead (O(changes), the
// point of the manifest/delta chain), what group-commit does to journal
// sync cost, and that recovery from base+delta reproduces entity ids
// exactly.  Feeds BENCH_durability.json.
//
// Stores are built with EntityStore::restore (identity entity ids), not
// ingest, so the numbers isolate the durability layer from matching.
//
//   --delta D   records in the delta segment (default n/100)
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "linkage/incremental.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/snapshot.hpp"
#include "storage/local_dir.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

namespace lk = fbf::linkage;
namespace st = fbf::storage;
namespace u = fbf::util;
namespace fs = std::filesystem;

/// Store holding the first `m` of `records`, entity id i for record i.
lk::EntityStore prefix_store(const lk::ComparatorConfig& comparator,
                             const std::vector<lk::PersonRecord>& records,
                             std::size_t m) {
  lk::EntityStore store(comparator);
  std::vector<lk::PersonRecord> prefix(records.begin(),
                                       records.begin() + static_cast<std::ptrdiff_t>(m));
  std::vector<std::uint32_t> ids(m);
  for (std::size_t i = 0; i < m; ++i) {
    ids[i] = static_cast<std::uint32_t>(i);
  }
  if (!store.restore(std::move(prefix), std::move(ids),
                     static_cast<std::uint32_t>(m))
           .ok()) {
    std::fprintf(stderr, "restore(%zu) failed\n", m);
    std::exit(1);
  }
  return store;
}

/// Best-of-`repeats` wall time of `op` in milliseconds.
template <typename Op>
double best_ms(int repeats, Op&& op) {
  double best = 0.0;
  for (int r = 0; r < std::max(repeats, 1); ++r) {
    u::Stopwatch watch;
    op();
    const double ms = watch.elapsed_ms();
    best = r == 0 ? ms : std::min(best, ms);
  }
  return best;
}

struct CheckpointCost {
  std::size_t records = 0;
  double ms = 0.0;
  std::size_t bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const u::CliArgs extra(argc, argv);
  auto opts = fbf::bench::parse_options(argc, argv, /*default_n=*/20000,
                                        /*default_k=*/1, {"delta"});
  const auto n = opts.config.n;
  const auto delta_records = static_cast<std::size_t>(extra.get_int(
      "delta", static_cast<std::int64_t>(std::max<std::size_t>(n / 100, 1))));
  fbf::bench::print_header("Durability: checkpoint + journal cost", opts);
  if (delta_records >= n) {
    std::fprintf(stderr, "--delta must be < --n\n");
    return 2;
  }

  u::Rng rng(opts.config.seed);
  const auto people = lk::generate_people(n, rng);
  const auto comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, opts.config.k);
  const auto full = prefix_store(comparator, people, n);

  const fs::path dir =
      fs::temp_directory_path() /
      ("fbf_bench_durability_" +
       std::to_string(static_cast<unsigned>(opts.config.seed)));
  fs::remove_all(dir);
  const auto backend = std::make_shared<st::LocalDirBackend>(dir.string());
  lk::DurabilityPolicy policy;

  // --- full-checkpoint cost vs store size (expected: linear). ----------
  std::vector<CheckpointCost> full_costs;
  for (const std::size_t m : {n / 4, n / 2, n}) {
    if (m == 0 || (!full_costs.empty() && full_costs.back().records == m)) {
      continue;
    }
    const auto store = prefix_store(comparator, people, m);
    CheckpointCost cost;
    cost.records = m;
    cost.bytes = encode_snapshot(store, 1).size();
    cost.ms = best_ms(opts.config.repeats, [&] {
      if (!backend->put(policy.base_ref(1), encode_snapshot(store, 1)).ok()) {
        std::fprintf(stderr, "full checkpoint failed\n");
        std::exit(1);
      }
    });
    full_costs.push_back(cost);
  }

  // --- delta-checkpoint cost: the same store, only the suffix. ---------
  CheckpointCost delta_cost;
  delta_cost.records = delta_records;
  {
    const std::size_t from = n - delta_records;
    delta_cost.bytes = encode_delta(full, from, 1, 2).size();
    delta_cost.ms = best_ms(opts.config.repeats, [&] {
      const auto bytes = encode_delta(full, from, 1, 2);
      if (!backend->put(policy.delta_ref(1, 2), bytes).ok()) {
        std::fprintf(stderr, "delta checkpoint failed\n");
        std::exit(1);
      }
    });
  }
  const double full_ms = full_costs.back().ms;
  const double speedup = delta_cost.ms > 0.0 ? full_ms / delta_cost.ms : 0.0;

  // --- journal syncs: fsync-per-append vs group commit. ----------------
  // Same frames, same bytes; only the sync cadence changes.  max_batch=1
  // is the pre-storage-layer behavior (one fsync per batch).
  constexpr std::size_t kFrames = 64;
  const std::size_t frame_records = std::max<std::size_t>(delta_records / 8, 1);
  std::vector<std::string> frames(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames[i] = lk::encode_journal_frame(
        i, std::span<const lk::PersonRecord>(people.data(), frame_records));
  }
  struct JournalRun {
    std::size_t max_batch = 0;
    std::size_t syncs = 0;
    double ms = 0.0;
  };
  std::vector<JournalRun> journal_runs;
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4},
                                      std::size_t{16}, kFrames}) {
    JournalRun run;
    run.max_batch = max_batch;
    run.ms = best_ms(opts.config.repeats, [&] {
      auto handle = backend->open_append(policy.journal_ref(),
                                         /*truncate=*/true);
      if (!handle.ok()) {
        std::fprintf(stderr, "journal open failed\n");
        std::exit(1);
      }
      run.syncs = 0;
      for (std::size_t i = 0; i < kFrames; ++i) {
        if (!(*handle)->append(frames[i]).ok()) {
          std::fprintf(stderr, "journal append failed\n");
          std::exit(1);
        }
        if ((i + 1) % max_batch == 0) {
          if (!(*handle)->sync().ok()) {
            std::fprintf(stderr, "journal sync failed\n");
            std::exit(1);
          }
          ++run.syncs;
        }
      }
      if ((*handle)->pending_bytes() > 0 && (*handle)->sync().ok()) {
        ++run.syncs;
      }
    });
    journal_runs.push_back(run);
  }

  // --- recovery identity: base + delta chain vs the live store. --------
  // Install base-1.snap (first n-delta records), delta-1-2.seg (the
  // suffix) and a manifest naming both, then recover and compare ids.
  const std::size_t base_records = n - delta_records;
  const auto base_store = prefix_store(comparator, people, base_records);
  if (!backend->put(policy.base_ref(1), encode_snapshot(base_store, 1)).ok() ||
      !backend->put(policy.delta_ref(1, 2),
                    encode_delta(full, base_records, 1, 2))
           .ok()) {
    std::fprintf(stderr, "chain install failed\n");
    return 1;
  }
  lk::SnapshotManifest manifest;
  manifest.base_blob = policy.base_ref(1).name;
  manifest.base_batches = 1;
  manifest.base_records = base_records;
  manifest.deltas.push_back({policy.delta_ref(1, 2).name, 1, 2, base_records,
                             n});
  if (!backend->put(policy.manifest_ref(), encode_manifest(manifest)).ok()) {
    std::fprintf(stderr, "manifest install failed\n");
    return 1;
  }
  (void)backend->remove(policy.journal_ref());

  lk::RecoveryReport chain_report;
  bool ids_match = false;
  const double chain_recover_ms = best_ms(opts.config.repeats, [&] {
    lk::DurableEntityStore recovered(comparator, backend, policy);
    const auto report = recovered.recover();
    if (!report.ok()) {
      std::fprintf(stderr, "chain recovery failed: %s\n",
                   report.status().to_string().c_str());
      std::exit(1);
    }
    chain_report = report.value();
    ids_match =
        recovered.store().size() == full.size() &&
        std::equal(recovered.store().entity_ids().begin(),
                   recovered.store().entity_ids().end(),
                   full.entity_ids().begin(), full.entity_ids().end());
  });

  if (opts.json) {
    std::cout << "{\n  \"bench\": \"durability\",\n"
              << "  \"n\": " << n << ", \"delta_records\": " << delta_records
              << ", \"repeats\": " << opts.config.repeats
              << ", \"seed\": " << opts.config.seed << ",\n"
              << "  \"full_checkpoint\": [\n";
    for (std::size_t i = 0; i < full_costs.size(); ++i) {
      std::cout << "    {\"records\": " << full_costs[i].records
                << ", \"ms\": " << full_costs[i].ms
                << ", \"bytes\": " << full_costs[i].bytes << "}"
                << (i + 1 < full_costs.size() ? "," : "") << "\n";
    }
    std::cout << "  ],\n  \"delta_checkpoint\": {\"records\": "
              << delta_cost.records << ", \"ms\": " << delta_cost.ms
              << ", \"bytes\": " << delta_cost.bytes << "},\n"
              << "  \"full_vs_delta_speedup\": " << speedup << ",\n"
              << "  \"journal\": {\"frames\": " << kFrames
              << ", \"records_per_frame\": " << frame_records
              << ", \"policies\": [\n";
    for (std::size_t i = 0; i < journal_runs.size(); ++i) {
      std::cout << "    {\"max_batch\": " << journal_runs[i].max_batch
                << ", \"syncs\": " << journal_runs[i].syncs
                << ", \"ms\": " << journal_runs[i].ms << "}"
                << (i + 1 < journal_runs.size() ? "," : "") << "\n";
    }
    std::cout << "  ]},\n  \"recovery\": {\"ms\": " << chain_recover_ms
              << ", \"deltas_applied\": " << chain_report.deltas_applied
              << ", \"snapshot_loaded\": "
              << (chain_report.snapshot_loaded ? "true" : "false")
              << ", \"entity_ids_match\": " << (ids_match ? "true" : "false")
              << "}\n}\n";
  } else {
    u::Table checkpoints({"checkpoint", "records", "bytes", "ms"});
    for (const auto& cost : full_costs) {
      checkpoints.add_row(
          {"full", u::with_commas(static_cast<std::int64_t>(cost.records)),
           u::with_commas(static_cast<std::int64_t>(cost.bytes)),
           u::fixed(cost.ms, 3)});
    }
    checkpoints.add_row(
        {"delta", u::with_commas(static_cast<std::int64_t>(delta_cost.records)),
         u::with_commas(static_cast<std::int64_t>(delta_cost.bytes)),
         u::fixed(delta_cost.ms, 3)});
    if (opts.csv) {
      checkpoints.render_csv(std::cout);
    } else {
      checkpoints.render(std::cout);
      std::printf("\ndelta checkpoint vs full at n=%zu: %.1fx cheaper "
                  "(%zu-record delta)\n",
                  n, speedup, delta_records);
      u::Table journal({"max batch", "syncs", "ms", "ms/append"});
      for (const auto& run : journal_runs) {
        journal.add_row(
            {u::with_commas(static_cast<std::int64_t>(run.max_batch)),
             u::with_commas(static_cast<std::int64_t>(run.syncs)),
             u::fixed(run.ms, 3),
             u::fixed(run.ms / static_cast<double>(kFrames), 4)});
      }
      std::printf("\nJournal group commit (%zu frames of %zu records)\n",
                  kFrames, frame_records);
      journal.render(std::cout);
      std::printf("\nRecovery from base+delta chain: %.1f ms, %zu delta "
                  "applied, entity ids %s\n",
                  chain_recover_ms, chain_report.deltas_applied,
                  ids_match ? "MATCH" : "MISMATCH");
    }
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
  return ids_match && speedup > 1.0 ? 0 : 1;
}
