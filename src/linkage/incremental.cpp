#include "linkage/incremental.hpp"

#include <algorithm>
#include <optional>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fbf::linkage {

EntityStore::EntityStore(ComparatorConfig comparator,
                         EntityStoreOptions options)
    : comparator_(std::move(comparator)),
      options_(options),
      uses_fbf_(config_uses_fbf(comparator_)),
      bank_(comparator_,
            RecordFilterOptions{.generator = options_.exec.generator}) {}

IngestStats EntityStore::ingest(std::span<const PersonRecord> batch) {
  IngestStats stats;
  stats.batch_size = batch.size();
  // Signatures for the incoming batch: scored against the store, then
  // packed into the bank's planes.
  const fbf::util::Stopwatch sig_timer;
  const std::vector<RecordSignatures> batch_sigs =
      build_all_signatures(batch, comparator_);
  stats.signature_ms = sig_timer.elapsed_ms();
  const fbf::util::Stopwatch match_timer;
  const std::size_t store_size_at_start = records_.size();
  std::vector<Decision> decisions(batch.size());

  // Each batch record scores against the pre-batch store through the
  // per-rule filter bank.  Decisions are independent (batch records never
  // compare against each other), so they fan across the pool; the
  // sequential commit below assigns entity ids in batch order, making
  // results byte-identical to a record-at-a-time score_pair loop for any
  // thread count.
  const std::size_t n_chunks = std::max<std::size_t>(
      1, std::min(options_.exec.threads, batch.size()));
  std::vector<CompareCounters> chunk_counters(n_chunks);
  fbf::util::parallel_chunks(
      batch.size(), options_.exec.threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        RecordFilterBank::Scratch scratch;
        CompareCounters& counters = chunk_counters[chunk];
        for (std::size_t b = begin; b < end; ++b) {
          bank_.score_all(batch[b], uses_fbf_ ? &batch_sigs[b] : nullptr,
                          store_size_at_start, scratch, counters);
          Decision& d = decisions[b];
          d.index = store_size_at_start;  // sentinel: none
          for (std::size_t i = 0; i < scratch.ids.size(); ++i) {
            const double score = scratch.scores[i];
            if (score >= comparator_.match_threshold && score > d.score) {
              d.score = score;
              d.index = scratch.ids[i];
            }
          }
        }
      });
  stats.comparisons =
      static_cast<std::uint64_t>(batch.size()) * store_size_at_start;
  for (const CompareCounters& counters : chunk_counters) {
    stats.candidates_generated += counters.candidates_generated;
    stats.fbf_evaluations += counters.fbf_evaluations;
    stats.verify_calls += counters.verify_calls;
  }

  // Commit in batch order (entity ids depend on earlier decisions).
  for (std::size_t b = 0; b < batch.size(); ++b) {
    std::uint32_t entity;
    if (decisions[b].index < store_size_at_start) {
      entity = entity_ids_[decisions[b].index];
      ++stats.merged;
    } else {
      entity = entity_total_++;
      ++stats.new_entities;
    }
    records_.push_back(batch[b]);
    entity_ids_.push_back(entity);
  }
  // One bank append per batch: a cover rule's index takes the whole
  // batch into its overflow tier (or one compaction) at once.
  bank_.append(std::span(records_).subspan(store_size_at_start), batch_sigs,
               options_.exec.threads);
  stats.match_ms = match_timer.elapsed_ms();
  return stats;
}

EntityStore::ProbeResult EntityStore::probe(const PersonRecord& query,
                                            std::size_t max_matches) const {
  ProbeResult result;
  const std::size_t store_size = records_.size();
  result.comparisons = store_size;
  if (store_size == 0) {
    return result;
  }
  std::optional<RecordSignatures> query_sigs;
  if (uses_fbf_) {
    query_sigs = build_record_signatures(query, comparator_.alpha_words);
  }
  const RecordSignatures* sigs = query_sigs ? &*query_sigs : nullptr;
  RecordFilterBank::Scratch scratch;
  bank_.score_all(query, sigs, store_size, scratch, result.counters);
  for (std::size_t i = 0; i < scratch.ids.size(); ++i) {
    if (scratch.scores[i] >= comparator_.match_threshold) {
      const std::uint32_t s = scratch.ids[i];
      result.matches.push_back({s, entity_ids_[s], scratch.scores[i]});
    }
  }
  std::stable_sort(result.matches.begin(), result.matches.end(),
                   [](const ProbeMatch& a, const ProbeMatch& b) {
                     return a.score > b.score;
                   });
  if (max_matches != 0 && result.matches.size() > max_matches) {
    result.matches.resize(max_matches);
  }
  return result;
}

fbf::util::Status EntityStore::restore(
    std::vector<PersonRecord> records, std::vector<std::uint32_t> entity_ids,
    std::uint32_t entity_total) {
  namespace u = fbf::util;
  if (entity_ids.size() != records.size()) {
    return u::Status::invalid_argument(
        "entity_ids size " + std::to_string(entity_ids.size()) +
        " != record count " + std::to_string(records.size()));
  }
  for (const std::uint32_t id : entity_ids) {
    if (id >= entity_total) {
      return u::Status::invalid_argument(
          "entity id " + std::to_string(id) + " >= entity total " +
          std::to_string(entity_total));
    }
  }
  records_ = std::move(records);
  entity_ids_ = std::move(entity_ids);
  entity_total_ = entity_total;
  // One append over the whole column: each cover index is built once,
  // not through overflow compactions.  The derived signatures are freed
  // once packed.
  const std::size_t threads = options_.exec.threads;
  bank_ = RecordFilterBank(
      comparator_, RecordFilterOptions{.generator = options_.exec.generator});
  bank_.append(records_, build_all_signatures(records_, comparator_, threads),
               threads);
  return {};
}

}  // namespace fbf::linkage
