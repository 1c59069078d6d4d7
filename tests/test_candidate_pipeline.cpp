// Property tests for the CandidatePipeline (DESIGN.md §9): every
// consumer routed through the pipeline must be *indistinguishable* from
// the per-pair reference (a test-local filter ladder, score_pair,
// link_candidates) — identical decisions AND identical ladder counters —
// across packed layouts (numeric, alpha l <= 2), the alpha l >= 3
// per-pair fallback, k in {1,2,3}, and thread counts.  These are the tests that let the batched kernel replace the
// per-pair loops without a semantics audit at every call site.
#include "core/candidate_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/elastic.hpp"
#include "cluster/ring.hpp"
#include "core/corpus.hpp"
#include "core/exec_policy.hpp"
#include "core/match_join.hpp"
#include "core/query_options.hpp"
#include "datagen/dataset.hpp"
#include "linkage/engine.hpp"
#include "linkage/incremental.hpp"
#include "linkage/person_gen.hpp"
#include "metrics/length_filter.hpp"
#include "testenv.hpp"
#include "util/rng.hpp"

namespace {

namespace c = fbf::core;
namespace cl = fbf::cluster;
namespace dg = fbf::datagen;
namespace lk = fbf::linkage;
using fbf::util::Rng;

// ---------------------------------------------------------------------------
// Layer 1: the filter stage itself.  The pipeline's filter must produce
// the survivor bitmap and counters of an independent per-pair ladder
// (eligibility, length filter, find_diff_bits over make_signature) for
// every layout / k / gate combination — packed layouts through the tile
// kernel, alpha l >= 3 through the per-pair fallback.
// ---------------------------------------------------------------------------

struct LayoutCase {
  dg::FieldKind kind;
  c::FieldClass cls;
  int alpha_words;
};

void expect_filter_equivalence(const LayoutCase& layout, int k,
                               bool use_length, bool with_eligible) {
  const auto dataset = dg::build_paired_dataset(layout.kind, 200, 417).value();
  c::PipelineConfig cfg;
  cfg.field_class = layout.cls;
  cfg.alpha_words = layout.alpha_words;
  cfg.k = k;
  cfg.use_length = use_length;
  const c::CandidatePipeline pipe(cfg, dataset.error);
  ASSERT_EQ(pipe.batched(),
            c::PackedSignatureStore::supported(layout.cls, layout.alpha_words));
  std::vector<c::Signature> sigs;
  for (const std::string& s : dataset.error) {
    sigs.push_back(c::make_signature(s, layout.cls, layout.alpha_words));
  }

  const std::size_t n = dataset.error.size();
  const std::size_t words = c::CandidatePipeline::bitmap_words(n);
  std::vector<std::uint64_t> eligible(words);
  for (std::size_t w = 0; w < words; ++w) {
    // Deterministic ragged mask; distinct per word so boundaries differ.
    eligible[w] = 0x9e3779b97f4a7c15ull * (w + 1) | 1ull;
  }
  std::vector<std::uint64_t> bm_pipe(words);
  std::vector<std::uint64_t> bm_ref(words);
  c::PipelineCounters pc_pipe;
  c::PipelineCounters pc_ref;
  for (std::size_t i = 0; i < dataset.size(); i += 3) {
    const std::string& query = dataset.clean[i];
    const std::uint64_t* mask = with_eligible ? eligible.data() : nullptr;
    const std::size_t got = pipe.filter(pipe.make_query(query), 0, n, mask,
                                        bm_pipe.data(), pc_pipe);
    const c::Signature q_sig =
        c::make_signature(query, layout.cls, layout.alpha_words);
    std::fill(bm_ref.begin(), bm_ref.end(), 0);
    std::size_t expect = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (with_eligible && (eligible[j / 64] >> (j % 64) & 1) == 0) {
        continue;
      }
      ++pc_ref.candidates_generated;
      if (use_length) {
        if (!fbf::metrics::length_filter_pass(query, dataset.error[j], k)) {
          continue;
        }
        ++pc_ref.length_pass;
      }
      ++pc_ref.fbf_evaluated;
      if (c::find_diff_bits(q_sig, sigs[j]) > 2 * k) {
        continue;
      }
      ++pc_ref.fbf_pass;
      bm_ref[j / 64] |= std::uint64_t{1} << (j % 64);
      ++expect;
    }
    ASSERT_EQ(got, expect) << "i=" << i;
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(bm_pipe[w], bm_ref[w])
          << dg::field_kind_name(layout.kind) << " l=" << layout.alpha_words
          << " k=" << k << " len=" << use_length << " elig=" << with_eligible
          << " i=" << i << " word " << w;
    }
  }
  EXPECT_EQ(pc_pipe.candidates_generated, pc_ref.candidates_generated);
  EXPECT_EQ(pc_pipe.length_pass, pc_ref.length_pass);
  EXPECT_EQ(pc_pipe.fbf_evaluated, pc_ref.fbf_evaluated);
  EXPECT_EQ(pc_pipe.fbf_pass, pc_ref.fbf_pass);
}

TEST(PipelineFilter, BatchedMatchesPerPairAcrossLayoutsAndK) {
  const LayoutCase layouts[] = {
      {dg::FieldKind::kSsn, c::FieldClass::kNumeric, 2},
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 1},
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 2},
      {dg::FieldKind::kAddress, c::FieldClass::kAlphanumeric, 2},
      // alpha l = 3 cannot pack: the per-pair fallback.
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 3},
  };
  for (const auto& layout : layouts) {
    for (const int k : {1, 2, 3}) {
      expect_filter_equivalence(layout, k, /*use_length=*/false,
                                /*with_eligible=*/false);
      expect_filter_equivalence(layout, k, /*use_length=*/true,
                                /*with_eligible=*/false);
      expect_filter_equivalence(layout, k, /*use_length=*/false,
                                /*with_eligible=*/true);
      expect_filter_equivalence(layout, k, /*use_length=*/true,
                                /*with_eligible=*/true);
    }
  }
}

TEST(PipelineFilter, AlphaThreeWordsFallsBackTransparently) {
  // alpha l = 3 cannot pack; the pipeline must degrade to the per-pair
  // scan behind the same interface and agree with the raw predicate.
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 120, 5).value();
  c::PipelineConfig cfg;
  cfg.field_class = c::FieldClass::kAlpha;
  cfg.alpha_words = 3;
  cfg.k = 1;
  const c::CandidatePipeline pipe(cfg, dataset.error);
  EXPECT_FALSE(pipe.batched());
  EXPECT_STREQ(pipe.kernel_name(), "pair-scalar");

  const std::size_t n = dataset.error.size();
  std::vector<std::uint64_t> bitmap(c::CandidatePipeline::bitmap_words(n));
  c::PipelineCounters pc;
  for (std::size_t i = 0; i < dataset.size(); i += 7) {
    const auto q = pipe.make_query(dataset.clean[i]);
    pipe.filter(q, 0, n, nullptr, bitmap.data(), pc);
    for (std::size_t j = 0; j < n; ++j) {
      const auto sig_j =
          c::make_signature(dataset.error[j], c::FieldClass::kAlpha, 3);
      const bool expect = c::fbf_pass(q.sig, sig_j, 1);
      const bool got = (bitmap[j / 64] >> (j % 64) & 1) != 0;
      ASSERT_EQ(got, expect) << "i=" << i << " j=" << j;
    }
  }
}

// filter_block must be *indistinguishable* from Q successive filter()
// calls: same per-query bitmaps, same counters, same survivor total —
// for any Q (including > kMaxBlockQueries, which exercises chunking),
// every layout (including the per-pair fallback), gates on or off.
void expect_block_equivalence(const LayoutCase& layout, int k,
                              bool use_length, bool with_eligible) {
  const auto dataset = dg::build_paired_dataset(layout.kind, 180, 631).value();
  c::PipelineConfig cfg;
  cfg.field_class = layout.cls;
  cfg.alpha_words = layout.alpha_words;
  cfg.k = k;
  cfg.use_length = use_length;
  const c::CandidatePipeline pipe(cfg, dataset.error);

  const std::size_t n = dataset.error.size();
  const std::size_t words = c::CandidatePipeline::bitmap_words(n);
  const std::size_t stride = words + 1;  // probe stride handling too
  std::vector<std::uint64_t> eligible(words);
  for (std::size_t w = 0; w < words; ++w) {
    eligible[w] = 0x9e3779b97f4a7c15ull * (w + 1) | 1ull;
  }
  const std::uint64_t* mask = with_eligible ? eligible.data() : nullptr;
  for (const std::size_t n_queries :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{13}}) {
    std::vector<c::CandidatePipeline::Query> queries;
    for (std::size_t i = 0; i < n_queries; ++i) {
      queries.push_back(pipe.make_query(dataset.clean[i * 7 % n]));
    }
    std::vector<std::uint64_t> bm_block(n_queries * stride, ~0ull);
    std::vector<std::uint64_t> bm_seq(words);
    std::vector<c::PipelineCounters> per_query(n_queries);
    c::PipelineCounters pc_seq;
    const std::size_t block_survivors = pipe.filter_block(
        queries, 0, n, mask, bm_block.data(), stride, per_query);
    c::PipelineCounters pc_block;
    for (const c::PipelineCounters& pc : per_query) {
      pc_block.merge(pc);
    }
    std::size_t seq_survivors = 0;
    for (std::size_t i = 0; i < n_queries; ++i) {
      c::PipelineCounters alone;
      seq_survivors +=
          pipe.filter(queries[i], 0, n, mask, bm_seq.data(), alone);
      EXPECT_EQ(per_query[i].candidates_generated, alone.candidates_generated);
      EXPECT_EQ(per_query[i].fbf_pass, alone.fbf_pass) << "query " << i;
      pc_seq.merge(alone);
      for (std::size_t w = 0; w < words; ++w) {
        ASSERT_EQ(bm_block[i * stride + w], bm_seq[w])
            << dg::field_kind_name(layout.kind) << " k=" << k
            << " len=" << use_length << " elig=" << with_eligible
            << " Q=" << n_queries << " query=" << i << " word " << w;
      }
    }
    EXPECT_EQ(block_survivors, seq_survivors);
    EXPECT_EQ(pc_block.length_pass, pc_seq.length_pass);
    EXPECT_EQ(pc_block.fbf_evaluated, pc_seq.fbf_evaluated);
    EXPECT_EQ(pc_block.fbf_pass, pc_seq.fbf_pass);
    EXPECT_EQ(pc_block.verify_calls, pc_seq.verify_calls);
  }
}

TEST(PipelineFilter, FilterBlockEqualsSequentialFilters) {
  const LayoutCase layouts[] = {
      {dg::FieldKind::kSsn, c::FieldClass::kNumeric, 2},
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 2},
      {dg::FieldKind::kAddress, c::FieldClass::kAlphanumeric, 2},
      // alpha l = 3: per-pair fallback — filter_block literally loops.
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 3},
  };
  for (const auto& layout : layouts) {
    for (const int k : {1, 2}) {
      for (const bool use_length : {false, true}) {
        for (const bool with_eligible : {false, true}) {
          expect_block_equivalence(layout, k, use_length, with_eligible);
        }
      }
    }
  }
}

TEST(PipelineFilter, KernelNameComesFromSharedTable) {
  c::PipelineConfig cfg;
  cfg.field_class = c::FieldClass::kNumeric;
  const c::CandidatePipeline pipe(cfg);
  ASSERT_TRUE(pipe.batched());
  EXPECT_STREQ(pipe.kernel_name(),
               c::tile_kernel_label(c::best_kernel()));
}

TEST(PipelineFilter, IncrementalAppendEqualsBulkConstruction) {
  // The append-only candidate side: growing the pipeline batch by batch
  // filters identically to building it in one shot.
  const auto dataset = dg::build_paired_dataset(dg::FieldKind::kSsn, 150, 23).value();
  c::PipelineConfig cfg;
  cfg.field_class = c::FieldClass::kNumeric;
  const c::CandidatePipeline bulk(cfg, dataset.error);
  c::CandidatePipeline grown(cfg);
  grown.append(std::span(dataset.error).first(31));
  grown.append(std::span(dataset.error).subspan(31, 64));
  grown.append(std::span(dataset.error).subspan(95));
  ASSERT_EQ(grown.size(), bulk.size());

  const std::size_t words =
      c::CandidatePipeline::bitmap_words(dataset.error.size());
  std::vector<std::uint64_t> bm_bulk(words);
  std::vector<std::uint64_t> bm_grown(words);
  c::PipelineCounters pc;
  for (std::size_t i = 0; i < dataset.size(); i += 5) {
    const auto q = bulk.make_query(dataset.clean[i]);
    bulk.filter(q, 0, bulk.size(), nullptr, bm_bulk.data(), pc);
    grown.filter(q, 0, grown.size(), nullptr, bm_grown.data(), pc);
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(bm_grown[w], bm_bulk[w]) << "i=" << i << " word " << w;
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: EntityStore::ingest.  The filter bank must reproduce a
// record-at-a-time score_pair loop byte for byte: same entity ids, same
// merge / new-entity decisions, same comparisons / fbf_evaluations /
// verify_calls.
// ---------------------------------------------------------------------------

/// The reference EntityStore: each batch record scores against the
/// pre-batch store with score_pair, joins the first best-scoring record's
/// entity at or above the threshold or founds a new one, and the batch is
/// committed in order.
class ReferenceStore {
 public:
  explicit ReferenceStore(lk::ComparatorConfig config)
      : config_(std::move(config)),
        uses_fbf_(lk::config_uses_fbf(config_)) {}

  lk::IngestStats ingest(std::span<const lk::PersonRecord> batch) {
    lk::IngestStats stats;
    const std::size_t store_size = records_.size();
    std::vector<lk::RecordSignatures> batch_sigs;
    for (const lk::PersonRecord& r : batch) {
      batch_sigs.push_back(uses_fbf_ ? lk::build_record_signatures(
                                           r, config_.alpha_words)
                                     : lk::RecordSignatures{});
    }
    std::vector<std::size_t> best(batch.size(), store_size);
    lk::CompareCounters counters;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      double best_score = 0.0;
      for (std::size_t s = 0; s < store_size; ++s) {
        ++stats.comparisons;
        const double score = lk::score_pair(
            batch[b], records_[s], uses_fbf_ ? &batch_sigs[b] : nullptr,
            uses_fbf_ ? &sigs_[s] : nullptr, config_, counters);
        if (score >= config_.match_threshold && score > best_score) {
          best_score = score;
          best[b] = s;
        }
      }
    }
    stats.fbf_evaluations = counters.fbf_evaluations;
    stats.verify_calls = counters.verify_calls;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      if (best[b] < store_size) {
        entity_ids_.push_back(entity_ids_[best[b]]);
        ++stats.merged;
      } else {
        entity_ids_.push_back(entity_total_++);
        ++stats.new_entities;
      }
      records_.push_back(batch[b]);
      sigs_.push_back(batch_sigs[b]);
    }
    return stats;
  }

  /// EntityStore::probe by a score_pair loop: every stored record at or
  /// above the threshold, score descending, record index ascending on
  /// ties.
  [[nodiscard]] std::vector<lk::EntityStore::ProbeMatch> probe(
      const lk::PersonRecord& query) const {
    const lk::RecordSignatures sigs =
        uses_fbf_ ? lk::build_record_signatures(query, config_.alpha_words)
                  : lk::RecordSignatures{};
    lk::CompareCounters counters;
    std::vector<lk::EntityStore::ProbeMatch> matches;
    for (std::size_t s = 0; s < records_.size(); ++s) {
      const double score = lk::score_pair(
          query, records_[s], uses_fbf_ ? &sigs : nullptr,
          uses_fbf_ ? &sigs_[s] : nullptr, config_, counters);
      if (score >= config_.match_threshold) {
        matches.push_back(
            {static_cast<std::uint32_t>(s), entity_ids_[s], score});
      }
    }
    std::stable_sort(matches.begin(), matches.end(),
                     [](const auto& a, const auto& b) {
                       return a.score > b.score;
                     });
    return matches;
  }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t entity_count() const noexcept {
    return entity_total_;
  }
  [[nodiscard]] std::uint32_t entity_of(std::size_t i) const noexcept {
    return entity_ids_[i];
  }

 private:
  lk::ComparatorConfig config_;
  bool uses_fbf_;
  std::vector<lk::PersonRecord> records_;
  std::vector<lk::RecordSignatures> sigs_;
  std::vector<std::uint32_t> entity_ids_;
  std::uint32_t entity_total_ = 0;
};

void expect_store_equivalence(const lk::ComparatorConfig& config,
                              std::size_t threads, std::uint64_t seed,
                              std::size_t n) {
  // Bank-vs-reference counter identities assume dense generation; pin
  // the env against the forced-generator CI legs.
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  Rng rng(seed);
  const auto clean = lk::generate_people(n, rng);
  lk::RecordErrorModel model;
  model.field_typo_rate = 0.15;
  const auto error = lk::make_error_records(clean, model, rng);
  const auto more = lk::generate_people(n / 3, rng);

  lk::EntityStore fast(config, fbf::core::ExecPolicy{.threads = threads});
  ReferenceStore ref(config);
  for (const auto& batch : {clean, error, more}) {
    const auto fs = fast.ingest(batch);
    const auto rs = ref.ingest(batch);
    EXPECT_EQ(fs.comparisons, rs.comparisons);
    EXPECT_EQ(fs.fbf_evaluations, rs.fbf_evaluations);
    EXPECT_EQ(fs.verify_calls, rs.verify_calls);
    EXPECT_EQ(fs.merged, rs.merged);
    EXPECT_EQ(fs.new_entities, rs.new_entities);
  }
  ASSERT_EQ(fast.size(), ref.size());
  ASSERT_EQ(fast.entity_count(), ref.entity_count());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast.entity_of(i), ref.entity_of(i)) << "record " << i;
  }
}

TEST(EntityStoreEquivalence, DefaultRulesAcrossKAndThreads) {
  // The default rule set touches every layout at once: alpha names,
  // alphanumeric address, numeric phone/ssn/birth date, exact gender.
  for (const int k : {1, 2, 3}) {
    const auto config =
        lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, k);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      expect_store_equivalence(config, threads,
                               static_cast<std::uint64_t>(100 + k), 75);
    }
  }
}

TEST(EntityStoreEquivalence, FdlVerifier) {
  const auto config =
      lk::make_point_threshold_config(lk::FieldStrategy::kFdl, 2);
  expect_store_equivalence(config, 4, 7, 60);
}

TEST(EntityStoreEquivalence, NumericOnlyRules) {
  // Pure numeric layout: every FBF rule sweeps a 1-word plane.
  lk::ComparatorConfig config;
  config.rules = {
      {lk::RecordField::kSsn, lk::FieldStrategy::kFpdl, 4.0, 1},
      {lk::RecordField::kPhone, lk::FieldStrategy::kFpdl, 2.0, 1},
      {lk::RecordField::kBirthDate, lk::FieldStrategy::kFpdl, 2.0, 2},
  };
  config.match_threshold = 4.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    expect_store_equivalence(config, threads, 31, 70);
  }
}

TEST(EntityStoreEquivalence, AlphaThreeWordFallback) {
  // l = 3 alpha signatures cannot pack: the bank's alpha rules run the
  // per-pair fallback inside the same pipeline interface, and must still
  // be byte-identical to the score_pair reference.
  auto config = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, 1);
  config.alpha_words = 3;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    expect_store_equivalence(config, threads, 53, 60);
  }
}

TEST(EntityStoreEquivalence, RestoredStoreKeepsEquivalence) {
  // Snapshot recovery rebuilds the filter bank; post-restore ingest must
  // still match the score_pair reference.  Counter identities assume
  // dense generation.
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  const auto config =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, 1);
  Rng rng(77);
  const auto base = lk::generate_people(50, rng);
  const auto next = lk::make_error_records(base, {}, rng);

  lk::EntityStore donor(config);
  donor.ingest(base);
  lk::EntityStore fast(config, fbf::core::ExecPolicy{.threads = 4});
  ASSERT_TRUE(fast.restore(
                      std::vector(donor.records().begin(),
                                  donor.records().end()),
                      std::vector(donor.entity_ids().begin(),
                                  donor.entity_ids().end()),
                      static_cast<std::uint32_t>(donor.entity_count()))
                  .ok());
  ReferenceStore ref(config);
  ref.ingest(base);

  const auto fs = fast.ingest(next);
  const auto rs = ref.ingest(next);
  EXPECT_EQ(fs.merged, rs.merged);
  EXPECT_EQ(fs.new_entities, rs.new_entities);
  EXPECT_EQ(fs.fbf_evaluations, rs.fbf_evaluations);
  EXPECT_EQ(fs.verify_calls, rs.verify_calls);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast.entity_of(i), ref.entity_of(i)) << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// Layer 2b: the weight-cover route.  With exec.generator = kBlockIndex the
// bank indexes a weight cover of rules and scores only the union of their
// candidates.  Probe matches (ids, scores, order) and ingest entity ids
// must equal the dense route's and the score_pair reference's; the
// comparisons count is route-independent, the stage counters may only
// fall.
// ---------------------------------------------------------------------------

void expect_probes_equal(const std::vector<lk::EntityStore::ProbeMatch>& got,
                         const std::vector<lk::EntityStore::ProbeMatch>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].record_index, want[i].record_index) << label << " #" << i;
    EXPECT_EQ(got[i].entity_id, want[i].entity_id) << label << " #" << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " #" << i;
  }
}

/// Streams a seeded workload through a cover store, a dense store and the
/// reference: one bulk batch, then many small batches, probing error
/// copies after every few batches.  The small batches land in each cover
/// index's overflow tier; with the default rules they fold into the base
/// (past the 4,096-entry floor) once each for SSN and birth date at
/// k = 1, and three to four times per index at k = 2.
void expect_cover_equivalence(const lk::ComparatorConfig& config,
                              bool has_cover, std::uint64_t seed) {
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  ASSERT_EQ(lk::cover_rules(config).has_value(), has_cover);
  Rng rng(seed);
  const auto people = lk::generate_people(600, rng);
  lk::RecordErrorModel model;
  model.field_typo_rate = 0.2;
  const auto errors = lk::make_error_records(people, model, rng);
  std::vector<std::span<const lk::PersonRecord>> batches;
  const std::span<const lk::PersonRecord> all(people);
  batches.push_back(all.first(80));
  for (std::size_t off = 80; off < all.size(); off += 26) {
    batches.push_back(
        all.subspan(off, std::min<std::size_t>(26, all.size() - off)));
  }
  // Error copies of early records arrive as their own batches, so some
  // ingests merge into existing entities.
  batches.insert(batches.begin() + 3, std::span(errors).first(40));
  batches.push_back(std::span(errors).subspan(40, 120));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string label = "threads=" + std::to_string(threads);
    lk::EntityStore cover(
        config, c::ExecPolicy{.threads = threads,
                              .generator = c::GeneratorKind::kBlockIndex});
    lk::EntityStore dense(config, c::ExecPolicy{.threads = threads});
    ReferenceStore ref(config);
    EXPECT_EQ(cover.generator(), has_cover ? c::GeneratorKind::kBlockIndex
                                           : c::GeneratorKind::kDense);
    std::size_t probe_at = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto cs = cover.ingest(batches[b]);
      const auto ds = dense.ingest(batches[b]);
      const auto rs = ref.ingest(batches[b]);
      EXPECT_EQ(cs.comparisons, rs.comparisons) << label;
      EXPECT_EQ(ds.comparisons, rs.comparisons) << label;
      EXPECT_EQ(cs.merged, rs.merged) << label << " batch " << b;
      EXPECT_EQ(cs.new_entities, rs.new_entities) << label << " batch " << b;
      EXPECT_EQ(ds.merged, rs.merged) << label << " batch " << b;
      EXPECT_LE(cs.fbf_evaluations, ds.fbf_evaluations) << label;
      EXPECT_LE(cs.verify_calls, ds.verify_calls) << label;
      if (!has_cover) {
        EXPECT_EQ(cs.fbf_evaluations, rs.fbf_evaluations) << label;
        EXPECT_EQ(cs.verify_calls, rs.verify_calls) << label;
      }
      if (b % 4 != 3) {
        continue;
      }
      for (std::size_t q = 0; q < 12; ++q, probe_at += 7) {
        const lk::PersonRecord& query = errors[probe_at % errors.size()];
        const auto cp = cover.probe(query, 0);
        const auto dp = dense.probe(query, 0);
        const std::string at = label + " batch " + std::to_string(b) +
                               " probe " + std::to_string(q);
        EXPECT_EQ(cp.comparisons, dp.comparisons) << at;
        EXPECT_LE(cp.counters.field_comparisons, dp.counters.field_comparisons)
            << at;
        expect_probes_equal(cp.matches, ref.probe(query), at + " vs ref");
        expect_probes_equal(cp.matches, dp.matches, at + " vs dense");
      }
    }
    ASSERT_EQ(cover.size(), ref.size()) << label;
    ASSERT_EQ(cover.entity_count(), ref.entity_count()) << label;
    for (std::size_t i = 0; i < cover.size(); ++i) {
      ASSERT_EQ(cover.entity_of(i), ref.entity_of(i))
          << label << " record " << i;
      ASSERT_EQ(dense.entity_of(i), ref.entity_of(i))
          << label << " record " << i;
    }
  }
}

TEST(EntityStoreCover, DefaultConfigIndexesSsnLastNameAndBirthDate) {
  // SSN 2.5, then LN 1.5 before DOB 1.5 (config order on the tie): the
  // unindexed weight falls 9.0 -> 6.5 -> 5.0 -> 3.5 < 4.0.
  const auto config =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  const auto cover = lk::cover_rules(config);
  ASSERT_TRUE(cover.has_value());
  std::vector<lk::RecordField> fields;
  for (const std::size_t r : *cover) {
    fields.push_back(config.rules[r].field);
  }
  EXPECT_EQ(fields,
            (std::vector<lk::RecordField>{lk::RecordField::kLastName,
                                          lk::RecordField::kSsn,
                                          lk::RecordField::kBirthDate}));
  // A threshold the unindexable rules alone can reach has no cover.
  auto low = config;
  low.match_threshold = 0.5;
  EXPECT_FALSE(lk::cover_rules(low).has_value());
  // Filter-only and k = 3 rules cannot be indexed.
  EXPECT_FALSE(lk::cover_rules(lk::make_point_threshold_config(
                                   lk::FieldStrategy::kFbfOnly))
                   .has_value());
  EXPECT_FALSE(lk::cover_rules(lk::make_point_threshold_config(
                                   lk::FieldStrategy::kFpdl, 3))
                   .has_value());
}

TEST(EntityStoreCover, DefaultFpdlMatchesDenseAndReference) {
  expect_cover_equivalence(
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl), true, 601);
}

TEST(EntityStoreCover, FdlMatchesDenseAndReference) {
  expect_cover_equivalence(
      lk::make_point_threshold_config(lk::FieldStrategy::kFdl), true, 602);
}

TEST(EntityStoreCover, KTwoMatchesDenseAndReference) {
  expect_cover_equivalence(
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, 2), true, 603);
}

TEST(EntityStoreCover, AlphaThreeWordFallbackMatchesDenseAndReference) {
  // l = 3 alpha signatures do not pack: the last-name cover rule filters
  // its candidates through the per-pair fallback.
  auto config = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  config.alpha_words = 3;
  expect_cover_equivalence(config, true, 604);
}

TEST(EntityStoreCover, RulesOutsideTheCoverScoreTheUnion) {
  // Soundex first name, DL address and a filter-only phone rule stay
  // outside the cover ({LN, SSN, DOB}); they score only the union.
  auto config = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  config.rules[0].strategy = lk::FieldStrategy::kSoundex;
  config.rules[2].strategy = lk::FieldStrategy::kDl;
  config.rules[3].strategy = lk::FieldStrategy::kFbfOnly;
  const auto cover = lk::cover_rules(config);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(*cover, (std::vector<std::size_t>{1, 5, 6}));
  expect_cover_equivalence(config, true, 605);
}

TEST(EntityStoreCover, NoCoverRunsDense) {
  // k = 3 is past the block index: no rule can be indexed, so the store
  // runs the dense sweep and its counters equal the reference's.
  expect_cover_equivalence(
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, 3), false,
      606);
}

// ---------------------------------------------------------------------------
// Layer 3: the linkage engine and the shard driver, against
// link_candidates (per-pair score_pair) over the same pair space.
// ---------------------------------------------------------------------------

std::vector<lk::CandidatePair> sorted_pairs(std::vector<lk::CandidatePair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void expect_link_equivalence(const lk::ComparatorConfig& comparator,
                             std::size_t threads, std::uint64_t seed) {
  // The bank-vs-reference counter identities below hold only under dense
  // generation; pin the env against forced-generator CI legs.
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  Rng rng(seed);
  const auto left = lk::generate_people(120, rng);
  const auto right = lk::make_error_records(left, {}, rng);

  lk::LinkConfig config;
  config.comparator = comparator;
  config.exec.threads = threads;
  config.collect_matches = true;

  const auto a = lk::link_exhaustive(left, right, config);
  const auto b = lk::link_candidates(
      left, right, lk::exhaustive_pairs(left.size(), right.size()), config);
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.true_positives, b.true_positives);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.counters.field_comparisons, b.counters.field_comparisons);
  EXPECT_EQ(a.counters.fbf_evaluations, b.counters.fbf_evaluations);
  EXPECT_EQ(a.counters.verify_calls, b.counters.verify_calls);
  EXPECT_EQ(sorted_pairs(a.match_pairs), sorted_pairs(b.match_pairs));
}

TEST(EngineEquivalence, ExhaustivePipelineMatchesScalar) {
  for (const int k : {1, 2}) {
    const auto config =
        lk::make_point_threshold_config(lk::FieldStrategy::kFpdl, k);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      expect_link_equivalence(config, threads,
                              static_cast<std::uint64_t>(200 + k));
    }
  }
  auto fallback = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  fallback.alpha_words = 3;
  expect_link_equivalence(fallback, 4, 209);
}

TEST(ShardedEquivalence, AllSchemesMatchScalarPath) {
  // A static cluster (R=1, four nodes, no events): each partition's
  // counters must equal link_candidates over that partition's left
  // records x the whole right list.
  Rng rng(88);
  const auto left = lk::generate_people(150, rng);
  const auto right = lk::make_error_records(left, {}, rng);
  cl::ElasticConfig config;
  config.nodes = {0, 1, 2, 3};
  config.replication = 1;
  config.ring.seed = 19;
  config.ring.vnodes_per_node = 4;
  config.link.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  const auto a = cl::link_elastic(left, right, config);

  cl::HashRing ring(config.ring);
  for (const cl::NodeId node : config.nodes) {
    ASSERT_TRUE(ring.add_node(node).ok());
  }
  // Placement recomputed independently of the elastic driver's code.
  std::map<std::uint64_t, std::vector<lk::CandidatePair>> pairs_by_pid;
  for (std::size_t i = 0; i < left.size(); ++i) {
    const std::uint64_t pid = ring.partition_of(
        cl::HashRing::key_hash(left[i].id, config.ring.seed));
    auto& pairs = pairs_by_pid[pid];
    for (std::size_t j = 0; j < right.size(); ++j) {
      pairs.emplace_back(static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j));
    }
  }
  ASSERT_EQ(a.partitions.size(), pairs_by_pid.size());
  std::uint64_t pairs = 0;
  std::uint64_t matches = 0;
  std::uint64_t true_positives = 0;
  for (const auto& p : a.partitions) {
    ASSERT_TRUE(pairs_by_pid.contains(p.pid)) << "pid " << p.pid;
    ASSERT_TRUE(p.completed) << "pid " << p.pid;
    EXPECT_EQ(p.served_by, ring.owner(p.pid)) << "pid " << p.pid;
    const auto b =
        lk::link_candidates(left, right, pairs_by_pid[p.pid], config.link);
    EXPECT_EQ(p.records * right.size(), b.candidate_pairs);
    EXPECT_EQ(p.pairs, b.candidate_pairs) << "pid " << p.pid;
    EXPECT_EQ(p.matches, b.matches) << "pid " << p.pid;
    EXPECT_EQ(p.true_positives, b.true_positives) << "pid " << p.pid;
    pairs += b.candidate_pairs;
    matches += b.matches;
    true_positives += b.true_positives;
  }
  EXPECT_EQ(a.total_pairs, pairs);
  EXPECT_EQ(a.total_matches, matches);
  EXPECT_EQ(a.total_true_positives, true_positives);
}

// ---------------------------------------------------------------------------
// The drivers: every engine filters and verifies through
// CandidatePipeline::sweep / check, so two engines over the same strings
// must agree row for row.  A corpus point query for left[i] returns
// exactly row i of the collected join, per route; on the dense route the
// per-query ladders also sum to the join's.
// ---------------------------------------------------------------------------

void expect_corpus_equals_join_rows(const LayoutCase& layout, c::Method method,
                                    int k, c::GeneratorKind generator) {
  const auto dataset = dg::build_paired_dataset(layout.kind, 300, 733).value();
  const std::vector<std::string>& left = dataset.error;
  const std::vector<std::string>& right = dataset.clean;
  c::JoinConfig join_config;
  join_config.method = method;
  join_config.k = k;
  join_config.field_class = layout.cls;
  join_config.alpha_words = layout.alpha_words;
  join_config.generator = generator;
  join_config.collect_matches = true;
  const c::JoinStats join = c::match_strings(left, right, join_config);
  ASSERT_GT(join.matches, 0u);

  c::QueryOptions options;
  options.method = method;
  options.k = k;
  options.field_class = layout.cls;
  options.alpha_words = layout.alpha_words;
  options.exec.generator = generator;
  const c::MatchCorpus corpus(options, right);
  corpus.wait_for_index();

  const std::string label = std::string(dg::field_kind_name(layout.kind)) +
                            " l=" + std::to_string(layout.alpha_words) +
                            " method=" +
                            std::to_string(static_cast<int>(method)) +
                            " k=" + std::to_string(k) + " generator=" +
                            c::generator_name(generator);
  c::PipelineCounters summed;
  bool all_dense = true;
  auto pair = join.match_pairs.begin();
  for (std::size_t i = 0; i < left.size(); ++i) {
    std::vector<std::uint32_t> row;
    for (; pair != join.match_pairs.end() && pair->first == i; ++pair) {
      row.push_back(pair->second);
    }
    const c::CorpusResult got = corpus.query(left[i]);
    ASSERT_EQ(got.matches, row) << label << " row " << i;
    summed.merge(got.counters);
    all_dense = all_dense && got.generator == c::GeneratorKind::kDense;
  }
  ASSERT_EQ(pair, join.match_pairs.end()) << label;
  if (all_dense && std::string(join.generator) == "dense") {
    EXPECT_EQ(summed.candidates_generated, join.candidates_generated)
        << label;
    EXPECT_EQ(summed.length_pass, join.length_pass) << label;
    EXPECT_EQ(summed.fbf_evaluated, join.fbf_evaluated) << label;
    EXPECT_EQ(summed.fbf_pass, join.fbf_pass) << label;
    EXPECT_EQ(summed.verify_calls, join.verify_calls) << label;
  }
}

TEST(PipelineDrivers, CorpusAnswersEqualJoinRows) {
  const LayoutCase layouts[] = {
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 2},
      {dg::FieldKind::kSsn, c::FieldClass::kNumeric, 2},
      // alpha l = 3: the per-pair fallback under both drivers.
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 3},
  };
  for (const auto& layout : layouts) {
    for (const c::Method method : {c::Method::kFpdl, c::Method::kLfdl}) {
      for (const int k : {1, 2}) {
        for (const c::GeneratorKind generator :
             {c::GeneratorKind::kDense, c::GeneratorKind::kBlockIndex}) {
          expect_corpus_equals_join_rows(layout, method, k, generator);
        }
      }
    }
  }
}

}  // namespace
