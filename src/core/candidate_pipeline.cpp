#include "core/candidate_pipeline.hpp"

#include <algorithm>
#include <cassert>

#include "metrics/damerau.hpp"
#include "metrics/length_filter.hpp"
#include "metrics/pdl.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bitops.hpp"
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

/// Drains one query's final survivor bitmap in ascending lane order,
/// charging fbf_pass per survivor.  The filter stages leave fbf_pass to
/// whoever consumes their bitmaps: the drivers visit every survivor
/// anyway, so counting here costs one add per survivor instead of a
/// popcount per word (outside the kernel, a libgcc call on baseline
/// x86-64).
template <typename Fn>
void drain(const std::uint64_t* bitmap, std::size_t lanes,
           PipelineCounters& counters, Fn&& fn) {
  CandidatePipeline::for_each_survivor(bitmap, lanes, [&](std::size_t lane) {
    ++counters.fbf_pass;
    fn(lane);
  });
}

/// apply_pre_gates' word loop.  Baseline x86-64 has no POPCNT, so
/// std::popcount lowers to a libgcc call there; the target("popcnt") twin
/// below re-lowers this same body to the instruction, picked at run time
/// as util::xor_diff_bits picks its own.
[[gnu::always_inline]] inline void pre_gate_words(
    std::uint32_t query_length, const std::uint32_t* lengths,
    std::size_t width, const std::uint64_t* eligible, bool use_length, int k,
    std::uint64_t* bitmap, PipelineCounters& counters) noexcept {
  for (std::size_t w = 0; w < CandidatePipeline::bitmap_words(width); ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, width - base);
    std::uint64_t pre = lanes == 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << lanes) - 1;
    if (eligible != nullptr) {
      pre &= eligible[w];
    }
    counters.candidates_generated +=
        static_cast<std::uint64_t>(std::popcount(pre));
    if (use_length) {
      std::uint64_t len_bits = 0;
      for (std::size_t b = 0; b < lanes; ++b) {
        len_bits |= static_cast<std::uint64_t>(m::length_filter_pass(
                        query_length, lengths[base + b], k))
                    << b;
      }
      counters.length_pass +=
          static_cast<std::uint64_t>(std::popcount(len_bits & pre));
      pre &= len_bits;
    }
    counters.fbf_evaluated += static_cast<std::uint64_t>(std::popcount(pre));
    bitmap[w] &= pre;
  }
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("popcnt"))) void pre_gate_words_popcnt(
    std::uint32_t query_length, const std::uint32_t* lengths,
    std::size_t width, const std::uint64_t* eligible, bool use_length, int k,
    std::uint64_t* bitmap, PipelineCounters& counters) noexcept {
  pre_gate_words(query_length, lengths, width, eligible, use_length, k,
                 bitmap, counters);
}

/// Kept out of line so apply_pre_gates itself holds no libgcc call.
[[gnu::noinline]] void pre_gate_words_generic(
    std::uint32_t query_length, const std::uint32_t* lengths,
    std::size_t width, const std::uint64_t* eligible, bool use_length, int k,
    std::uint64_t* bitmap, PipelineCounters& counters) noexcept {
  pre_gate_words(query_length, lengths, width, eligible, use_length, k,
                 bitmap, counters);
}
#endif

/// filter_block's survivor count, twinned like pre_gate_words.
[[gnu::always_inline]] inline std::size_t count_bits_words(
    const std::uint64_t* words, std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return total;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("popcnt"))) std::size_t count_bits_popcnt(
    const std::uint64_t* words, std::size_t n) noexcept {
  return count_bits_words(words, n);
}

/// Kept out of line so filter_block itself holds no libgcc call.
[[gnu::noinline]] std::size_t count_bits_generic(const std::uint64_t* words,
                                                 std::size_t n) noexcept {
  return count_bits_words(words, n);
}
#endif

/// Set bits in words [0, n).
std::size_t count_bits(const std::uint64_t* words, std::size_t n) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return fbf::util::cpu_has_popcnt() ? count_bits_popcnt(words, n)
                                     : count_bits_generic(words, n);
#else
  return count_bits_words(words, n);
#endif
}

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

std::size_t CandidatePipeline::run_kernel(std::span<const Query> queries,
                                          const std::uint64_t* p0,
                                          const std::uint64_t* p1,
                                          std::size_t width,
                                          std::uint64_t* bitmaps,
                                          std::size_t bitmap_stride) const {
  assert(queries.size() <= kMaxBlockQueries);
  // The packed query words, SoA, as the kernel reads them.
  std::uint64_t q0[kMaxBlockQueries];
  std::uint64_t q1[kMaxBlockQueries];
  for (std::size_t i = 0; i < queries.size(); ++i) {
    q0[i] = queries[i].w0;
    q1[i] = queries[i].w1;
  }
  return fbf::core::filter_block(q0, p1 != nullptr ? q1 : nullptr,
                                 queries.size(), p0, p1, width, 2 * config_.k,
                                 packed_.max_tail_popcount(), bitmaps,
                                 bitmap_stride, kernel_);
}

std::size_t CandidatePipeline::filter_block(
    std::span<const Query> queries, std::size_t begin, std::size_t end,
    const std::uint64_t* eligible, std::uint64_t* bitmaps,
    std::size_t bitmap_stride, std::span<PipelineCounters> counters) const {
  const LadderMirror mirror(counters);
  const std::size_t counted = filter_rows(queries, begin, end, eligible,
                                          bitmaps, bitmap_stride, counters);
  if (queries.size() == 1 && eligible == nullptr && !config_.use_length) {
    counters[0].fbf_pass += counted;  // no gate dropped a counted survivor
    return counted;
  }
  const std::size_t words = bitmap_words(end > begin ? end - begin : 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t survivors =
        count_bits(bitmaps + i * bitmap_stride, words);
    counters[i].fbf_pass += survivors;
    total += survivors;
  }
  return total;
}

std::size_t CandidatePipeline::filter(const Query& q, std::size_t begin,
                                      std::size_t end,
                                      const std::uint64_t* eligible,
                                      std::uint64_t* bitmap,
                                      PipelineCounters& counters) const {
  return filter_block({&q, 1}, begin, end, eligible, bitmap,
                      bitmap_words(end > begin ? end - begin : 0),
                      {&counters, 1});
}

std::size_t CandidatePipeline::filter_rows(
    std::span<const Query> queries, std::size_t begin, std::size_t end,
    const std::uint64_t* eligible, std::uint64_t* bitmaps,
    std::size_t bitmap_stride, std::span<PipelineCounters> counters) const {
  assert(begin % 64 == 0 && "bitmap lanes must stay word-aligned");
  assert(end <= size_);
  assert(counters.size() == queries.size());
  if (begin >= end || queries.empty()) {
    return 0;
  }
  const std::size_t width = end - begin;
  assert(bitmap_stride >= bitmap_words(width));
  std::size_t counted = 0;
  if (!batched_) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      counted += filter_per_pair(queries[i], begin, nullptr, width, eligible,
                                 bitmaps + i * bitmap_stride, counters[i]);
    }
    return counted;
  }
  // begin % 64 == 0 keeps the plane offset a multiple of 8, so the
  // kernel's cache-line over-read stays inside the zero-padded planes.
  const std::uint64_t* p0 = packed_.plane(0) + begin;
  const std::uint64_t* p1 =
      packed_.words() == 2 ? packed_.plane(1) + begin : nullptr;
  for (std::size_t base = 0; base < queries.size(); base += kMaxBlockQueries) {
    const std::size_t n = std::min(kMaxBlockQueries, queries.size() - base);
    counted += run_kernel(queries.subspan(base, n), p0, p1, width,
                          bitmaps + base * bitmap_stride, bitmap_stride);
    for (std::size_t i = base; i < base + n; ++i) {
      if (eligible == nullptr && !config_.use_length) {
        // No gates: every lane reaches the FBF stage.
        counters[i].candidates_generated += width;
        counters[i].fbf_evaluated += width;
        continue;
      }
      apply_pre_gates(queries[i].length, packed_.lengths() + begin, width,
                      eligible, bitmaps + i * bitmap_stride, counters[i]);
    }
  }
  return counted;
}

void CandidatePipeline::filter_gathered(const Query& q,
                                        std::span<const std::uint32_t> ids,
                                        std::uint64_t* bitmap,
                                        PipelineCounters& counters) const {
  assert(ids.size() <= kGather);
  const std::size_t n = ids.size();
  if (!batched_) {
    filter_per_pair(q, 0, ids.data(), n, nullptr, bitmap, counters);
    return;
  }
  // Gather the candidates' packed plane words (and lengths, when the
  // length filter runs) into aligned scratch and run the tile sweep's
  // kernel over the gathered lanes.  The scratch tail is zeroed out to
  // the kernel's 8-word granularity so its over-read stays defined; the
  // kernel masks lanes past n.
  alignas(64) std::uint64_t g0[kGather];
  alignas(64) std::uint64_t g1[kGather];
  std::uint32_t lengths[kGather];
  const bool two_words = packed_.words() == 2;
  const std::size_t padded = (n + 7) / 8 * 8;
  const std::uint64_t* p0 = packed_.plane(0);
  for (std::size_t i = 0; i < n; ++i) {
    g0[i] = p0[ids[i]];
  }
  std::fill(g0 + n, g0 + padded, 0);
  if (two_words) {
    const std::uint64_t* p1 = packed_.plane(1);
    for (std::size_t i = 0; i < n; ++i) {
      g1[i] = p1[ids[i]];
    }
    std::fill(g1 + n, g1 + padded, 0);
  }
  run_kernel({&q, 1}, g0, two_words ? g1 : nullptr, n, bitmap,
             bitmap_words(n));
  if (!config_.use_length) {
    counters.candidates_generated += n;
    counters.fbf_evaluated += n;
    return;
  }
  const std::uint32_t* len = packed_.lengths();
  for (std::size_t i = 0; i < n; ++i) {
    lengths[i] = len[ids[i]];
  }
  apply_pre_gates(q.length, lengths, n, nullptr, bitmap, counters);
}

// Pre-FBF gates: eligibility first (charged to no counter), then the
// length filter (charging length_pass), then fbf_evaluated for lanes
// that reached the FBF stage — ladder order, bit for bit.  `bitmap`
// holds the raw FBF survivor bits on entry and the gated bits on exit.
void CandidatePipeline::apply_pre_gates(std::uint32_t query_length,
                                        const std::uint32_t* lengths,
                                        std::size_t width,
                                        const std::uint64_t* eligible,
                                        std::uint64_t* bitmap,
                                        PipelineCounters& counters) const {
#if defined(__x86_64__) || defined(__i386__)
  if (fbf::util::cpu_has_popcnt()) {
    pre_gate_words_popcnt(query_length, lengths, width, eligible,
                          config_.use_length, config_.k, bitmap, counters);
  } else {
    pre_gate_words_generic(query_length, lengths, width, eligible,
                           config_.use_length, config_.k, bitmap, counters);
  }
#else
  pre_gate_words(query_length, lengths, width, eligible, config_.use_length,
                 config_.k, bitmap, counters);
#endif
}

std::size_t CandidatePipeline::filter_per_pair(
    const Query& q, std::size_t begin, const std::uint32_t* ids,
    std::size_t width, const std::uint64_t* eligible, std::uint64_t* bitmap,
    PipelineCounters& counters) const {
  std::fill(bitmap, bitmap + bitmap_words(width), 0);
  std::size_t survivors = 0;
  for (std::size_t lane = 0; lane < width; ++lane) {
    if (eligible != nullptr &&
        (eligible[lane / 64] >> (lane % 64) & 1) == 0) {
      continue;
    }
    const std::size_t j = ids != nullptr ? ids[lane] : begin + lane;
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
  const std::size_t before = survivors.size();
  std::uint64_t bitmap[bitmap_words(kGather)];
  for (std::size_t base = 0; base < ids.size(); base += kGather) {
    const std::span<const std::uint32_t> chunk =
        ids.subspan(base, std::min(kGather, ids.size() - base));
    filter_gathered(q, chunk, bitmap, counters);
    drain(bitmap, chunk.size(), counters, [&](std::size_t lane) {
      survivors.push_back(chunk[lane]);
    });
  }
  return survivors.size() - before;
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

bool CandidatePipeline::verify_pair(std::string_view a, std::string_view b,
                                    PipelineCounters& counters) const {
  if (config_.verifier == Verifier::kNone) {
    return true;  // filter-only methods report survivors as matches
  }
  ++counters.verify_calls;
  return config_.verifier == Verifier::kDl ? m::dl_within(a, b, config_.k)
                                           : m::pdl_within(a, b, config_.k);
}

bool CandidatePipeline::verify(std::string_view a, std::string_view b,
                               PipelineCounters& counters) const {
  const LadderMirror mirror(counters);
  return verify_pair(a, b, counters);
}

void CandidatePipeline::sweep(std::span<const Query> queries,
                              std::span<const std::string_view> texts,
                              std::span<const std::string> candidates,
                              std::size_t begin, std::size_t end,
                              const std::uint64_t* eligible,
                              std::span<PipelineCounters> counters,
                              OnMatch on_match) const {
  assert(texts.size() == queries.size());
  assert(counters.size() == queries.size());
  constexpr std::size_t kTileWords = bitmap_words(kSweepTile);
  const LadderMirror mirror(counters);
  std::uint64_t bitmaps[kMaxBlockQueries * kTileWords];
  for (std::size_t q = 0; q < queries.size(); q += kMaxBlockQueries) {
    const std::size_t n = std::min(kMaxBlockQueries, queries.size() - q);
    for (std::size_t t = begin; t < end; t += kSweepTile) {
      const std::size_t t_end = std::min(end, t + kSweepTile);
      filter_rows(queries.subspan(q, n), t, t_end,
                  eligible != nullptr ? eligible + (t - begin) / 64 : nullptr,
                  bitmaps, kTileWords, counters.subspan(q, n));
      for (std::size_t i = q; i < q + n; ++i) {
        drain(bitmaps + (i - q) * kTileWords, t_end - t, counters[i],
              [&](std::size_t lane) {
                const std::size_t j = t + lane;
                if (verify_pair(texts[i], candidates[j], counters[i])) {
                  on_match(i, static_cast<std::uint32_t>(j));
                }
              });
      }
    }
  }
}

void CandidatePipeline::check(std::span<const Query> queries,
                              std::span<const std::string_view> texts,
                              std::span<const std::string> candidates,
                              std::span<const std::vector<std::uint32_t>> ids,
                              std::span<PipelineCounters> counters,
                              OnMatch on_match) const {
  assert(texts.size() == queries.size());
  assert(ids.size() == queries.size());
  assert(counters.size() == queries.size());
  const LadderMirror mirror(counters);
  for (const std::vector<std::uint32_t>& list : ids) {
    prefetch(list);
    for (const std::uint32_t j : list) {
      fbf::util::prefetch(&candidates[j]);
    }
  }
  std::uint64_t bitmap[bitmap_words(kGather)];
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::span<const std::uint32_t> list = ids[i];
    for (std::size_t base = 0; base < list.size(); base += kGather) {
      const std::span<const std::uint32_t> chunk =
          list.subspan(base, std::min(kGather, list.size() - base));
      filter_gathered(queries[i], chunk, bitmap, counters[i]);
      drain(bitmap, chunk.size(), counters[i], [&](std::size_t lane) {
        if (verify_pair(texts[i], candidates[chunk[lane]], counters[i])) {
          on_match(i, chunk[lane]);
        }
      });
    }
  }
}

}  // namespace fbf::core
