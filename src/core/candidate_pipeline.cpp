#include "core/candidate_pipeline.hpp"

#include <cassert>

#include "metrics/damerau.hpp"
#include "metrics/length_filter.hpp"
#include "metrics/pdl.hpp"
#include "telemetry/telemetry.hpp"
#include "util/prefetch.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fbf::core {

namespace m = fbf::metrics;

namespace {

/// Cached global-registry handles for the canonical pipeline.* ladder
/// family (DESIGN.md §16).  One registry lookup per process; relaxed
/// sharded adds after that.
struct LadderTelemetry {
  fbf::telemetry::Counter& generated;
  fbf::telemetry::Counter& length_pass;
  fbf::telemetry::Counter& evaluated;
  fbf::telemetry::Counter& pass;
  fbf::telemetry::Counter& verify_calls;
};

LadderTelemetry& ladder_telemetry() {
  auto& registry = fbf::telemetry::Registry::global();
  static LadderTelemetry cached{
      registry.counter("pipeline.candidates_generated"),
      registry.counter("pipeline.length_pass"),
      registry.counter("pipeline.fbf_evaluated"),
      registry.counter("pipeline.fbf_pass"),
      registry.counter("pipeline.verify_calls")};
  return cached;
}

/// Mirrors the ladder delta a filter entry point produced into the
/// global telemetry registry on scope exit.  The caller's counters stay
/// the source of truth — telemetry only *observes* the delta, so match
/// decisions and PipelineCounters are byte-identical with telemetry on,
/// off, or compiled out (property-tested).  The guard snapshots the
/// counters at entry, so the per-query filter_block overload passes its
/// whole span and the sum-of-deltas lands once.
class LadderMirror {
 public:
  explicit LadderMirror(const PipelineCounters& counters)
      : LadderMirror(std::span<const PipelineCounters>(&counters, 1)) {}
  explicit LadderMirror(std::span<const PipelineCounters> counters) {
    if (fbf::telemetry::enabled()) {
      counters_ = counters;
      for (const PipelineCounters& c : counters_) {
        before_.merge(c);
      }
    }
  }
  LadderMirror(const LadderMirror&) = delete;
  LadderMirror& operator=(const LadderMirror&) = delete;
  ~LadderMirror() {
    if (counters_.empty()) {
      return;
    }
    PipelineCounters after;
    for (const PipelineCounters& c : counters_) {
      after.merge(c);
    }
    LadderTelemetry& t = ladder_telemetry();
    if (const auto d = after.candidates_generated - before_.candidates_generated) {
      t.generated.add(d);
    }
    if (const auto d = after.length_pass - before_.length_pass) {
      t.length_pass.add(d);
    }
    if (const auto d = after.fbf_evaluated - before_.fbf_evaluated) {
      t.evaluated.add(d);
    }
    if (const auto d = after.fbf_pass - before_.fbf_pass) {
      t.pass.add(d);
    }
    if (const auto d = after.verify_calls - before_.verify_calls) {
      t.verify_calls.add(d);
    }
  }

 private:
  std::span<const PipelineCounters> counters_;
  PipelineCounters before_;
};

}  // namespace

CandidatePipeline::CandidatePipeline(const PipelineConfig& config)
    : config_(config),
      batched_(PackedSignatureStore::supported(config.field_class,
                                               config.alpha_words)) {
  if (batched_) {
    kernel_ = best_kernel();
    packed_ = PackedSignatureStore(config.field_class, config.alpha_words);
  }
}

CandidatePipeline::CandidatePipeline(const PipelineConfig& config,
                                     std::span<const std::string> candidates,
                                     std::size_t threads)
    : CandidatePipeline(config) {
  append(candidates, threads);
}

void CandidatePipeline::append(std::span<const std::string> candidates,
                               std::size_t threads) {
  if (batched_) {
    packed_.append(candidates, threads);
    size_ = packed_.size();
    return;
  }
  const fbf::util::Stopwatch timer;
  const std::size_t base = size_;
  classic_.resize(base + candidates.size());
  classic_lengths_.resize(base + candidates.size());
  fbf::util::parallel_chunks(
      candidates.size(), threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          classic_[base + i] = make_signature(candidates[i],
                                              config_.field_class,
                                              config_.alpha_words);
          classic_lengths_[base + i] =
              static_cast<std::uint32_t>(candidates[i].size());
        }
      });
  size_ = base + candidates.size();
  classic_build_ms_ += timer.elapsed_ms();
}

void CandidatePipeline::append_signature(const Signature& sig,
                                         std::uint32_t length) {
  if (batched_) {
    packed_.append_signature(sig, length);
    size_ = packed_.size();
    return;
  }
  classic_.push_back(sig);
  classic_lengths_.push_back(length);
  ++size_;
}

const char* CandidatePipeline::kernel_name() const noexcept {
  // One shared kind→name table (core/fbf_kernel.hpp) so a new kernel
  // kind cannot go stale here while benches/tests pick it up.
  return batched_ ? tile_kernel_label(kernel_) : "pair-scalar";
}

double CandidatePipeline::build_ms() const noexcept {
  return batched_ ? packed_.build_ms() : classic_build_ms_;
}

CandidatePipeline::Query CandidatePipeline::make_query(
    std::string_view s) const {
  return make_query(make_signature(s, config_.field_class,
                                   config_.alpha_words),
                    static_cast<std::uint32_t>(s.size()));
}

CandidatePipeline::Query CandidatePipeline::make_query(
    const Signature& sig, std::uint32_t length) const {
  Query q;
  q.sig = sig;
  q.length = length;
  if (batched_) {
    std::uint64_t row[2] = {0, 0};
    pack_signature(sig, config_.field_class, config_.alpha_words, row);
    q.w0 = row[0];
    q.w1 = row[1];
  }
  return q;
}

CandidatePipeline::Query CandidatePipeline::row_query(std::size_t i) const {
  Query q;
  if (batched_) {
    q.w0 = packed_.word(0, i);
    q.w1 = packed_.words() == 2 ? packed_.word(1, i) : 0;
    q.length = packed_.lengths()[i];
  } else {
    q.sig = classic_[i];
    q.length = classic_lengths_[i];
  }
  return q;
}

std::size_t CandidatePipeline::filter(const Query& q, std::size_t begin,
                                      std::size_t end,
                                      const std::uint64_t* eligible,
                                      std::uint64_t* bitmap,
                                      PipelineCounters& counters) const {
  assert(begin % 64 == 0 && "bitmap lanes must stay word-aligned");
  assert(end <= size_);
  if (begin >= end) {
    return 0;
  }
  const LadderMirror mirror(counters);
  return batched_ ? filter_batched(q, begin, end, eligible, bitmap, counters)
                  : filter_per_pair(q, begin, end, eligible, bitmap, counters);
}

std::size_t CandidatePipeline::filter_batched(
    const Query& q, std::size_t begin, std::size_t end,
    const std::uint64_t* eligible, std::uint64_t* bitmap,
    PipelineCounters& counters) const {
  const std::size_t width = end - begin;
  const bool two_words = packed_.words() == 2;
  // begin % 64 == 0 keeps the plane offset a multiple of 8, so the
  // kernel's cache-line over-read stays inside the zero-padded planes.
  const std::uint64_t* p0 = packed_.plane(0) + begin;
  const std::uint64_t* p1 = two_words ? packed_.plane(1) + begin : nullptr;
  const std::uint64_t qw0 = q.w0;
  const std::uint64_t qw1 = q.w1;
  const std::size_t survivors = fbf::core::filter_block(
      &qw0, two_words ? &qw1 : nullptr, 1, p0, p1, width, 2 * config_.k,
      packed_.max_tail_popcount(), /*prune=*/true, bitmap,
      bitmap_words(width), kernel_);

  if (eligible == nullptr && !config_.use_length) {
    counters.candidates_generated += width;
    counters.fbf_evaluated += width;
    counters.fbf_pass += survivors;
    return survivors;
  }
  return apply_pre_gates(q.length, begin, width, eligible, bitmap, counters);
}

std::size_t CandidatePipeline::filter_block(
    std::span<const Query> queries, std::size_t begin, std::size_t end,
    const std::uint64_t* eligible, std::uint64_t* bitmaps,
    std::size_t bitmap_stride, PipelineCounters& counters) const {
  assert(begin % 64 == 0 && "bitmap lanes must stay word-aligned");
  assert(end <= size_);
  if (begin >= end || queries.empty()) {
    return 0;
  }
  const LadderMirror mirror(counters);
  const std::size_t width = end - begin;
  assert(bitmap_stride >= bitmap_words(width));
  if (!batched_) {
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      survivors += filter_per_pair(queries[i], begin, end, eligible,
                                   bitmaps + i * bitmap_stride, counters);
    }
    return survivors;
  }

  const bool two_words = packed_.words() == 2;
  const std::uint64_t* p0 = packed_.plane(0) + begin;
  const std::uint64_t* p1 = two_words ? packed_.plane(1) + begin : nullptr;
  const int tail_bound = packed_.max_tail_popcount();
  std::size_t total = 0;
  // Gather the packed query words SoA-style per register-resident chunk.
  std::uint64_t q0[kMaxBlockQueries];
  std::uint64_t q1[kMaxBlockQueries];
  for (std::size_t base_q = 0; base_q < queries.size();
       base_q += kMaxBlockQueries) {
    const std::size_t m =
        std::min(kMaxBlockQueries, queries.size() - base_q);
    for (std::size_t i = 0; i < m; ++i) {
      q0[i] = queries[base_q + i].w0;
      q1[i] = queries[base_q + i].w1;
    }
    const std::size_t raw = fbf::core::filter_block(
        q0, two_words ? q1 : nullptr, m, p0, p1, width, 2 * config_.k,
        tail_bound, /*prune=*/true, bitmaps + base_q * bitmap_stride,
        bitmap_stride, kernel_);
    if (eligible == nullptr && !config_.use_length) {
      counters.candidates_generated += width * m;
      counters.fbf_evaluated += width * m;
      counters.fbf_pass += raw;
      total += raw;
      continue;
    }
    for (std::size_t i = 0; i < m; ++i) {
      total += apply_pre_gates(queries[base_q + i].length, begin, width,
                               eligible, bitmaps + (base_q + i) * bitmap_stride,
                               counters);
    }
  }
  return total;
}

std::size_t CandidatePipeline::filter_block(
    std::span<const Query> queries, std::size_t begin, std::size_t end,
    const std::uint64_t* eligible, std::uint64_t* bitmaps,
    std::size_t bitmap_stride, std::span<PipelineCounters> counters) const {
  assert(begin % 64 == 0 && "bitmap lanes must stay word-aligned");
  assert(end <= size_);
  assert(counters.size() == queries.size());
  if (begin >= end || queries.empty()) {
    return 0;
  }
  const LadderMirror mirror(counters);
  const std::size_t width = end - begin;
  assert(bitmap_stride >= bitmap_words(width));
  if (!batched_) {
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      survivors += filter_per_pair(queries[i], begin, end, eligible,
                                   bitmaps + i * bitmap_stride, counters[i]);
    }
    return survivors;
  }

  const bool two_words = packed_.words() == 2;
  const std::uint64_t* p0 = packed_.plane(0) + begin;
  const std::uint64_t* p1 = two_words ? packed_.plane(1) + begin : nullptr;
  const int tail_bound = packed_.max_tail_popcount();
  std::size_t total = 0;
  std::uint64_t q0[kMaxBlockQueries];
  std::uint64_t q1[kMaxBlockQueries];
  for (std::size_t base_q = 0; base_q < queries.size();
       base_q += kMaxBlockQueries) {
    const std::size_t m =
        std::min(kMaxBlockQueries, queries.size() - base_q);
    for (std::size_t i = 0; i < m; ++i) {
      q0[i] = queries[base_q + i].w0;
      q1[i] = queries[base_q + i].w1;
    }
    fbf::core::filter_block(
        q0, two_words ? q1 : nullptr, m, p0, p1, width, 2 * config_.k,
        tail_bound, /*prune=*/true, bitmaps + base_q * bitmap_stride,
        bitmap_stride, kernel_);
    for (std::size_t i = 0; i < m; ++i) {
      std::uint64_t* bitmap = bitmaps + (base_q + i) * bitmap_stride;
      PipelineCounters& qc = counters[base_q + i];
      if (eligible == nullptr && !config_.use_length) {
        // Fast path mirror of the aggregate overload, attributed per row.
        std::size_t row = 0;
        for (std::size_t w = 0; w < bitmap_words(width); ++w) {
          row += static_cast<std::size_t>(std::popcount(bitmap[w]));
        }
        qc.candidates_generated += width;
        qc.fbf_evaluated += width;
        qc.fbf_pass += row;
        total += row;
        continue;
      }
      total += apply_pre_gates(queries[base_q + i].length, begin, width,
                               eligible, bitmap, qc);
    }
  }
  return total;
}

// Pre-FBF gate: eligibility first (charged to no counter), then the
// length filter (charging length_pass), then fbf_evaluated for lanes
// that reached the FBF stage — ladder order, bit for bit.  `bitmap`
// holds the raw FBF survivor bits on entry and the gated bits on exit.
std::size_t CandidatePipeline::apply_pre_gates(
    std::uint32_t query_length, std::size_t begin, std::size_t width,
    const std::uint64_t* eligible, std::uint64_t* bitmap,
    PipelineCounters& counters) const {
  const std::uint32_t* len = packed_.lengths() + begin;
  std::size_t survivors = 0;
  for (std::size_t w = 0; w < bitmap_words(width); ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, width - base);
    std::uint64_t pre = lanes == 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << lanes) - 1;
    if (eligible != nullptr) {
      pre &= eligible[w];
    }
    counters.candidates_generated +=
        static_cast<std::uint64_t>(std::popcount(pre));
    if (config_.use_length) {
      std::uint64_t len_bits = 0;
      for (std::size_t b = 0; b < lanes; ++b) {
        len_bits |= static_cast<std::uint64_t>(m::length_filter_pass(
                        query_length, len[base + b], config_.k))
                    << b;
      }
      counters.length_pass +=
          static_cast<std::uint64_t>(std::popcount(len_bits & pre));
      pre &= len_bits;
    }
    counters.fbf_evaluated += static_cast<std::uint64_t>(std::popcount(pre));
    bitmap[w] &= pre;
    survivors += static_cast<std::size_t>(std::popcount(bitmap[w]));
  }
  counters.fbf_pass += survivors;
  return survivors;
}

std::size_t CandidatePipeline::filter_per_pair(
    const Query& q, std::size_t begin, std::size_t end,
    const std::uint64_t* eligible, std::uint64_t* bitmap,
    PipelineCounters& counters) const {
  const std::size_t width = end - begin;
  for (std::size_t w = 0; w < bitmap_words(width); ++w) {
    bitmap[w] = 0;
  }
  std::size_t survivors = 0;
  for (std::size_t j = begin; j < end; ++j) {
    const std::size_t lane = j - begin;
    if (eligible != nullptr &&
        (eligible[lane / 64] >> (lane % 64) & 1) == 0) {
      continue;
    }
    ++counters.candidates_generated;
    if (config_.use_length) {
      if (!m::length_filter_pass(q.length, classic_lengths_[j], config_.k)) {
        continue;
      }
      ++counters.length_pass;
    }
    ++counters.fbf_evaluated;
    if (!fbf_pass(q.sig, classic_[j], config_.k)) {
      continue;
    }
    ++counters.fbf_pass;
    bitmap[lane / 64] |= std::uint64_t{1} << (lane % 64);
    ++survivors;
  }
  return survivors;
}

std::size_t CandidatePipeline::filter_ids(
    const Query& q, std::span<const std::uint32_t> ids,
    std::vector<std::uint32_t>& survivors,
    PipelineCounters& counters) const {
  const LadderMirror mirror(counters);
  counters.candidates_generated += ids.size();
  if (!batched_) {
    std::size_t appended = 0;
    for (const std::uint32_t id : ids) {
      if (config_.use_length) {
        if (!m::length_filter_pass(q.length, classic_lengths_[id],
                                   config_.k)) {
          continue;
        }
        ++counters.length_pass;
      }
      ++counters.fbf_evaluated;
      if (!fbf_pass(q.sig, classic_[id], config_.k)) {
        continue;
      }
      ++counters.fbf_pass;
      survivors.push_back(id);
      ++appended;
    }
    return appended;
  }

  // Gather the candidates' packed plane words into aligned scratch and run
  // the same blocked kernel as the tile sweep (one query, gathered lanes).
  // The scratch tail is zeroed out to the kernel's 8-word granularity so
  // its over-read stays defined; zero lanes are masked off below.
  constexpr std::size_t kGather = 256;
  static_assert(kGather % 64 == 0);
  alignas(64) std::uint64_t g0[kGather];
  alignas(64) std::uint64_t g1[kGather];
  std::uint64_t bitmap[kGather / 64];
  const bool two_words = packed_.words() == 2;
  const std::uint64_t* p0 = packed_.plane(0);
  const std::uint64_t* p1 = two_words ? packed_.plane(1) : nullptr;
  const std::uint32_t* len = packed_.lengths();
  const std::uint64_t qw0 = q.w0;
  const std::uint64_t qw1 = q.w1;
  std::size_t appended = 0;
  for (std::size_t base = 0; base < ids.size(); base += kGather) {
    const std::size_t n = std::min(kGather, ids.size() - base);
    const std::size_t padded = (n + 7) / 8 * 8;
    for (std::size_t i = 0; i < n; ++i) {
      g0[i] = p0[ids[base + i]];
    }
    for (std::size_t i = n; i < padded; ++i) {
      g0[i] = 0;
    }
    if (two_words) {
      for (std::size_t i = 0; i < n; ++i) {
        g1[i] = p1[ids[base + i]];
      }
      for (std::size_t i = n; i < padded; ++i) {
        g1[i] = 0;
      }
    }
    fbf::core::filter_block(&qw0, two_words ? &qw1 : nullptr, 1, g0,
                            two_words ? g1 : nullptr, n, 2 * config_.k,
                            packed_.max_tail_popcount(), /*prune=*/true,
                            bitmap, bitmap_words(n), kernel_);
    for (std::size_t w = 0; w < bitmap_words(n); ++w) {
      const std::size_t lane_base = w * 64;
      const std::size_t lanes = std::min<std::size_t>(64, n - lane_base);
      std::uint64_t pre = lanes == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << lanes) - 1;
      if (config_.use_length) {
        std::uint64_t len_bits = 0;
        for (std::size_t b = 0; b < lanes; ++b) {
          len_bits |= static_cast<std::uint64_t>(m::length_filter_pass(
                          q.length, len[ids[base + lane_base + b]],
                          config_.k))
                      << b;
        }
        counters.length_pass +=
            static_cast<std::uint64_t>(std::popcount(len_bits & pre));
        pre &= len_bits;
      }
      counters.fbf_evaluated +=
          static_cast<std::uint64_t>(std::popcount(pre));
      std::uint64_t bits = bitmap[w] & pre;
      counters.fbf_pass += static_cast<std::uint64_t>(std::popcount(bits));
      while (bits != 0) {
        const std::size_t lane =
            lane_base + static_cast<std::size_t>(std::countr_zero(bits));
        survivors.push_back(ids[base + lane]);
        ++appended;
        bits &= bits - 1;
      }
    }
  }
  return appended;
}

void CandidatePipeline::prefetch(
    std::span<const std::uint32_t> ids) const noexcept {
  using fbf::util::prefetch;
  if (!batched_) {
    for (const std::uint32_t id : ids) {
      prefetch(&classic_[id]);
    }
    return;
  }
  const std::uint64_t* p0 = packed_.plane(0);
  const std::uint64_t* p1 = packed_.words() == 2 ? packed_.plane(1) : nullptr;
  const std::uint32_t* len = packed_.lengths();
  for (const std::uint32_t id : ids) {
    prefetch(p0 + id);
    if (p1 != nullptr) {
      prefetch(p1 + id);
    }
    if (config_.use_length) {
      prefetch(len + id);
    }
  }
}

bool CandidatePipeline::verify(std::string_view a, std::string_view b,
                               PipelineCounters& counters) const {
  if (config_.verifier == Verifier::kNone) {
    return true;  // filter-only methods report survivors as matches
  }
  ++counters.verify_calls;
  if (fbf::telemetry::enabled()) {
    ladder_telemetry().verify_calls.increment();
  }
  return config_.verifier == Verifier::kDl ? m::dl_within(a, b, config_.k)
                                           : m::pdl_within(a, b, config_.k);
}

}  // namespace fbf::core
