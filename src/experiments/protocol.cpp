#include "experiments/protocol.hpp"

#include "util/stats.hpp"

namespace fbf::experiments {

namespace c = fbf::core;
namespace dg = fbf::datagen;

fbf::datagen::PairedDataset build_dataset(dg::FieldKind kind,
                                          const ExperimentConfig& config) {
  return dg::build_paired_dataset(kind, config.n, config.seed, config.edits).value();
}

c::JoinConfig make_join_config(dg::FieldKind kind, c::Method method,
                               const ExperimentConfig& config) {
  c::JoinConfig join;
  join.method = method;
  join.k = config.k;
  join.sim_threshold = config.sim_threshold;
  join.field_class = dg::field_class_of(kind);
  join.alpha_words = config.alpha_words;
  join.threads = config.threads;
  return join;
}

MethodResult run_method(const dg::PairedDataset& dataset, c::Method method,
                        const ExperimentConfig& config) {
  const c::JoinConfig join = make_join_config(dataset.kind, method, config);
  MethodResult result;
  result.method = method;
  std::vector<double> times;
  std::vector<double> gen_times;
  times.reserve(static_cast<std::size_t>(config.repeats));
  gen_times.reserve(static_cast<std::size_t>(config.repeats));
  for (int rep = 0; rep < config.repeats; ++rep) {
    c::JoinStats stats = c::match_strings(dataset.clean, dataset.error, join);
    times.push_back(stats.join_ms);
    gen_times.push_back(stats.signature_gen_ms);
    if (rep == config.repeats - 1) {
      result.stats = std::move(stats);
    }
  }
  result.time_ms = config.trim_minmax
                       ? fbf::util::trimmed_mean_drop_minmax(times)
                       : fbf::util::mean(times);
  result.gen_ms = config.trim_minmax
                      ? fbf::util::trimmed_mean_drop_minmax(gen_times)
                      : fbf::util::mean(gen_times);
  result.type1 = result.stats.type1();
  result.type2 = result.stats.type2(dataset.size());
  return result;
}

}  // namespace fbf::experiments
