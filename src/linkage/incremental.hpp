// Incremental entity store — the paper's operational setting.
//
// The department's system ingests daily record batches: "The data has to
// be updated daily, which currently requires approximately 8 hours per
// night... It would take approximately 40 hours to run the algorithm with
// DL" (paper §1).  This module models that pipeline: an entity store
// holds previously resolved records and a filter bank over them; each
// incoming record is compared against the store (filter then verify),
// joins the best-scoring entity above the threshold or founds a new one.
// A record's FBF signatures are derived state (build_record_signatures
// under the comparator's layout): they are built per ingested batch,
// packed into the bank's planes and dropped, and restore() derives them
// again, so the no-false-negative guarantee never rests on a signature
// built under another layout.  The nightly-update bench measures exactly the
// paper's claim — the 40-hour DL update becoming "an hour or two" with
// FBF (scaled down).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/exec_policy.hpp"
#include "linkage/comparator.hpp"
#include "linkage/record.hpp"
#include "linkage/record_filter.hpp"
#include "util/status.hpp"

namespace fbf::linkage {

/// Statistics for one ingested batch.
struct IngestStats {
  std::uint64_t batch_size = 0;
  /// Record pairs in scope (batch size x pre-batch store size), on every
  /// route; the counters below fall on the cover route.
  std::uint64_t comparisons = 0;
  /// Field pairs admitted into FBF-rule cascades by the generate stage
  /// (see CompareCounters::candidates_generated).
  std::uint64_t candidates_generated = 0;
  std::uint64_t fbf_evaluations = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t merged = 0;        ///< records attached to an existing entity
  std::uint64_t new_entities = 0;  ///< records founding a new entity
  double signature_ms = 0.0;
  double match_ms = 0.0;
};

/// EntityStore tuning knobs.  Batch records score independently against
/// the pre-batch store, so ingest fans them across exec.threads pool
/// workers; decisions are byte-identical for any policy (entity ids are
/// assigned sequentially afterwards) and to a record-at-a-time score_pair
/// loop (the equivalence property tests).  exec.generator = kBlockIndex
/// scores only the records a weight cover of block indexes surfaces
/// (RecordFilterBank); the comparisons count keeps meaning "stored
/// records in scope", and the dense route's counters equal score_pair's.
struct EntityStoreOptions {
  core::ExecPolicy exec;

  EntityStoreOptions() = default;
  EntityStoreOptions(core::ExecPolicy policy) : exec(policy) {}  // NOLINT(google-explicit-constructor)
};

/// Append-only resolved-entity store with incremental matching.
class EntityStore {
 public:
  /// `comparator` decides record-pair similarity; its match_threshold is
  /// the attach threshold.
  explicit EntityStore(ComparatorConfig comparator,
                       EntityStoreOptions options = {});

  /// Matches every record in `batch` against the current store contents
  /// (records already in the store — not other batch members — mirroring
  /// the nightly "link new arrivals to the master list" flow), attaches
  /// each to the best-scoring entity at or above the threshold, and
  /// inserts it.
  IngestStats ingest(std::span<const PersonRecord> batch);

  /// One match surfaced by probe(): a stored record whose comparator
  /// score reached the attach threshold.
  struct ProbeMatch {
    std::uint32_t record_index = 0;  ///< position in records()
    std::uint32_t entity_id = 0;
    double score = 0.0;
  };

  /// A point lookup's answer: threshold matches in descending score order
  /// (record index ascending on ties — deterministic for any exec policy)
  /// plus the per-query ladder counters, so the serve layer's replies
  /// carry the same accounting the batch tools report.
  struct ProbeResult {
    std::vector<ProbeMatch> matches;
    CompareCounters counters;
    std::uint64_t comparisons = 0;  ///< stored records in scope
  };

  /// Read-only point lookup: scores `query` against the stored records
  /// exactly as ingest() would (through the filter bank; on the cover
  /// route only the records that can reach the threshold) but commits
  /// nothing — the request path the online daemon and the in-process
  /// client share.  `max_matches` truncates the reply after sorting; 0
  /// means unbounded.
  [[nodiscard]] ProbeResult probe(const PersonRecord& query,
                                  std::size_t max_matches = 8) const;

  /// Number of stored records.
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Number of distinct entities.
  [[nodiscard]] std::size_t entity_count() const noexcept {
    return entity_total_;
  }

  /// Entity id assigned to the i-th stored record (insertion order).
  [[nodiscard]] std::uint32_t entity_of(std::size_t i) const noexcept {
    return entity_ids_[i];
  }

  /// The stored records (insertion order).
  [[nodiscard]] std::span<const PersonRecord> records() const noexcept {
    return records_;
  }

  /// Entity id per stored record (parallel to records()).
  [[nodiscard]] std::span<const std::uint32_t> entity_ids() const noexcept {
    return entity_ids_;
  }

  [[nodiscard]] const ComparatorConfig& comparator() const noexcept {
    return comparator_;
  }

  /// The candidate generator ingest() and probe() run: kBlockIndex when
  /// the filter bank serves the weight cover, kDense otherwise.
  [[nodiscard]] core::GeneratorKind generator() const noexcept {
    return bank_.generator();
  }

  /// Replaces the store contents wholesale (snapshot recovery) and
  /// rebuilds the filter bank in one append, deriving every record's
  /// signatures under this store's comparator (fanned across
  /// exec.threads, freed once packed).  Validates shape (parallel arrays,
  /// entity ids < entity_total) and leaves the store unchanged on error.
  [[nodiscard]] fbf::util::Status restore(
      std::vector<PersonRecord> records,
      std::vector<std::uint32_t> entity_ids, std::uint32_t entity_total);

 private:
  /// One batch record's match decision against the pre-batch store
  /// (computed in parallel; committed sequentially).
  struct Decision {
    double score = 0.0;
    std::size_t index = 0;  ///< best store index, or sentinel = none
  };

  ComparatorConfig comparator_;
  EntityStoreOptions options_;
  bool uses_fbf_ = false;
  std::vector<PersonRecord> records_;
  std::vector<std::uint32_t> entity_ids_;
  std::uint32_t entity_total_ = 0;
  /// Per-rule filter state over records_.
  RecordFilterBank bank_;
};

}  // namespace fbf::linkage
