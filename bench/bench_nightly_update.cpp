// Nightly-update simulation (paper §1, scaled down).
//
// The department's pipeline: a master list plus daily batches of new
// records that must be linked before morning.  The paper reports the
// legacy nightly run at ~8 hours, DL pushing it to ~40 hours, and FBF
// bringing it back to "an hour or two".  This bench loads a master list,
// then ingests `--batches` nightly batches (with duplicates and typos)
// under each comparator strategy, reporting total update time and the
// resolution outcome.  Expected shape: FDL/FPDL cut the DL update by the
// same ~45x factor as Table 6, with identical entity counts.
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/exec_policy.hpp"
#include "datagen/errors.hpp"
#include "linkage/incremental.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/snapshot.hpp"
#include "storage/local_dir.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Durable-ingest scenario: run the FPDL update with incremental
// checkpointing onto a LocalDirBackend, kill the writer after
// --crash-after batches, recover from manifest+deltas+journal, and check
// the recovered store against an uninterrupted run.
void run_crash_recovery(const std::vector<fbf::linkage::PersonRecord>& master,
                        const std::vector<std::vector<fbf::linkage::PersonRecord>>& nightly,
                        const fbf::bench::BenchOptions& opts,
                        std::size_t checkpoint_every, std::size_t crash_after) {
  namespace lk = fbf::linkage;
  namespace st = fbf::storage;
  namespace u = fbf::util;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("fbf_nightly_" + std::to_string(static_cast<unsigned>(opts.config.seed)));
  fs::remove_all(dir);
  lk::DurabilityPolicy durability;
  durability.checkpoint_every = checkpoint_every;

  const auto comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, opts.config.k);
  crash_after = std::min(crash_after, nightly.size());

  u::Stopwatch ingest_watch;
  lk::DurableEntityStore durable(
      comparator, std::make_shared<st::LocalDirBackend>(dir.string()),
      durability);
  if (!durable.ingest(master).ok()) {
    std::fprintf(stderr, "durable master ingest failed\n");
    return;
  }
  for (std::size_t b = 0; b < crash_after; ++b) {
    if (!durable.ingest(nightly[b]).ok()) {
      std::fprintf(stderr, "durable batch ingest failed\n");
      return;
    }
  }
  const double ingest_ms = ingest_watch.elapsed_ms();
  durable.simulate_crash();  // only the backend's blobs survive

  u::Stopwatch recover_watch;
  lk::DurableEntityStore recovered(
      comparator, std::make_shared<st::LocalDirBackend>(dir.string()),
      durability);
  const auto report = recovered.recover();
  const double recover_ms = recover_watch.elapsed_ms();
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().to_string().c_str());
    return;
  }
  for (std::size_t b = crash_after; b < nightly.size(); ++b) {
    if (!recovered.ingest(nightly[b]).ok()) {
      std::fprintf(stderr, "post-recovery ingest failed\n");
      return;
    }
  }

  lk::EntityStore uninterrupted(comparator);
  uninterrupted.ingest(master);
  for (const auto& batch : nightly) {
    uninterrupted.ingest(batch);
  }
  const bool entities_match =
      recovered.store().entity_count() == uninterrupted.entity_count() &&
      recovered.store().size() == uninterrupted.size();

  u::Table table({"metric", "value"});
  table.add_row({"batches before crash",
                 u::with_commas(static_cast<std::int64_t>(crash_after + 1))});
  table.add_row({"checkpoint every",
                 u::with_commas(static_cast<std::int64_t>(checkpoint_every))});
  table.add_row({"snapshot loaded", report->snapshot_loaded ? "yes" : "no"});
  table.add_row({"deltas applied",
                 u::with_commas(static_cast<std::int64_t>(
                     report->deltas_applied))});
  table.add_row({"journal batches replayed",
                 u::with_commas(static_cast<std::int64_t>(
                     report->journal_batches_replayed))});
  table.add_row({"ingest ms (pre-crash)", u::fixed(ingest_ms, 1)});
  table.add_row({"recovery ms", u::fixed(recover_ms, 1)});
  table.add_row({"entities after resume",
                 u::with_commas(static_cast<std::int64_t>(
                     recovered.store().entity_count()))});
  table.add_row({"matches uninterrupted run", entities_match ? "yes" : "NO"});
  if (opts.csv) {
    table.render_csv(std::cout);
  } else {
    std::printf("\nCrash/recovery scenario (FPDL, durable ingest)\n");
    table.render(std::cout);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// One full update run (master list + every nightly batch) under one
/// comparator strategy.
struct UpdateRun {
  double total_ms = 0.0;
  std::uint64_t comparisons = 0;
  std::uint64_t fbf_evaluations = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t merged = 0;
  std::size_t entities = 0;
};

UpdateRun run_update(const std::vector<fbf::linkage::PersonRecord>& master,
                     const std::vector<std::vector<fbf::linkage::PersonRecord>>& nightly,
                     const fbf::linkage::ComparatorConfig& comparator,
                     const fbf::linkage::EntityStoreOptions& options) {
  namespace lk = fbf::linkage;
  UpdateRun run;
  lk::EntityStore store(comparator, options);
  const auto fold = [&](const lk::IngestStats& stats) {
    run.total_ms += stats.signature_ms + stats.match_ms;
    run.comparisons += stats.comparisons;
    run.fbf_evaluations += stats.fbf_evaluations;
    run.verify_calls += stats.verify_calls;
    run.merged += stats.merged;
  };
  fold(store.ingest(master));
  for (const auto& batch : nightly) {
    fold(store.ingest(batch));
  }
  run.entities = store.entity_count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  namespace lk = fbf::linkage;
  namespace u = fbf::util;
  const fbf::util::CliArgs extra(argc, argv);
  const auto batches = static_cast<int>(extra.get_int("batches", 5));
  const auto checkpoint_every =
      static_cast<std::size_t>(extra.get_int("checkpoint-every", 2));
  const auto crash_after =
      static_cast<std::size_t>(extra.get_int("crash-after", 3));
  auto opts = fbf::bench::parse_options(
      argc, argv, /*default_n=*/800,
      /*default_k=*/1, {"batches", "checkpoint-every", "crash-after"});
  fbf::bench::print_header("Nightly update simulation", opts);

  // Master list + nightly batches: half of each batch are returning
  // clients (typo-injected copies of master records), half are new.
  fbf::util::Rng rng(opts.config.seed);
  const auto master = lk::generate_people(opts.config.n, rng);
  const std::size_t batch_size = opts.config.n / 8 + 1;
  std::vector<std::vector<lk::PersonRecord>> nightly(static_cast<std::size_t>(batches));
  std::uint64_t next_id = opts.config.n;
  lk::RecordErrorModel error_model;
  for (auto& batch : nightly) {
    for (std::size_t r = 0; r < batch_size; ++r) {
      if (rng.chance(0.5)) {
        const auto src = static_cast<std::size_t>(rng.below(master.size()));
        auto copies = lk::make_error_records(
            std::vector<lk::PersonRecord>{master[src]}, error_model, rng);
        batch.push_back(std::move(copies.front()));
      } else {
        auto fresh = lk::generate_people(1, rng);
        fresh.front().id = next_id++;
        batch.push_back(std::move(fresh.front()));
      }
    }
  }

  const lk::FieldStrategy strategies[] = {
      lk::FieldStrategy::kDl, lk::FieldStrategy::kPdl,
      lk::FieldStrategy::kFdl, lk::FieldStrategy::kFpdl};
  struct StrategyRow {
    const char* name;
    UpdateRun run;
  };
  std::vector<StrategyRow> rows;
  for (const auto strategy : strategies) {
    rows.push_back(
        {lk::field_strategy_name(strategy),
         run_update(master, nightly,
                    lk::make_point_threshold_config(strategy, opts.config.k),
                    fbf::core::ExecPolicy{.threads = opts.config.threads})});
  }

  if (opts.json) {
    std::cout << "{\n  \"bench\": \"nightly_update\",\n"
              << "  \"n\": " << opts.config.n << ", \"k\": " << opts.config.k
              << ", \"threads\": " << opts.config.threads
              << ", \"seed\": " << opts.config.seed
              << ", \"batches\": " << batches
              << ", \"batch_size\": " << batch_size << ",\n"
              << "  \"strategies\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& row = rows[r];
      std::cout << "    {\"strategy\": \"" << fbf::bench::json_escape(row.name)
                << "\", \"update_ms\": " << row.run.total_ms
                << ", \"entities\": " << row.run.entities
                << ", \"merged\": " << row.run.merged
                << ", \"comparisons\": " << row.run.comparisons
                << ", \"fbf_evaluations\": " << row.run.fbf_evaluations
                << ", \"verify_calls\": " << row.run.verify_calls << "}"
                << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
    return 0;
  }

  u::Table table({"strategy", "entities", "merged", "verify calls",
                  "update ms", "speedup"});
  const double baseline = rows.front().run.total_ms;
  for (const auto& row : rows) {
    table.add_row(
        {row.name,
         u::with_commas(static_cast<std::int64_t>(row.run.entities)),
         u::with_commas(static_cast<std::int64_t>(row.run.merged)),
         u::with_commas(static_cast<std::int64_t>(row.run.verify_calls)),
         u::fixed(row.run.total_ms, 1),
         u::speedup(row.run.total_ms > 0 ? baseline / row.run.total_ms : 0.0)});
  }
  if (opts.csv) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    std::printf("\n(%d nightly batches of %zu records against a %zu-record "
                "master list; FDL/FPDL resolve identically to DL)\n",
                batches, batch_size, opts.config.n);
  }
  run_crash_recovery(master, nightly, opts, checkpoint_every, crash_after);
  return 0;
}
