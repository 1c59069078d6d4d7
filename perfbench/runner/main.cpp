// fbf_perfbench: the repository benchmark program (see perfbench/README.md).
//
//   fbf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>]
//
// Prints a header line, notes, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits nonzero
// when an output was wrong or a generator fell behind its schedule.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "runner/harness.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "fbf_perfbench: %s\nusage: fbf_perfbench --workload "
               "{point-ln-1m|point-tcp-ln-20k|ingest-probe|join-ln-200k} "
               "--seed N --seconds S --trace {0|1} [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || !perfbench::valid_name(args.workload) ||
      !(args.seconds > 0.0)) {
    return usage("missing or malformed arguments");
  }

  // Refuse to record numbers that would lie: a non-optimized build
  // distorts every ratio, and a build with telemetry compiled out reads
  // every registry counter as zero.
#ifndef NDEBUG
  std::fprintf(stderr, "fbf_perfbench: refusing to run a non-NDEBUG build\n");
  return 2;
#endif
  // Pin the allocator's mmap and trim thresholds: left dynamic, glibc
  // moves them with the run's allocation history, and peak RSS and the
  // cost of large snapshot buffers then differ from run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);

  fbf::telemetry::set_enabled(true);
  if (!fbf::telemetry::enabled()) {
    std::fprintf(stderr,
                 "fbf_perfbench: telemetry is compiled out (FBF_TELEMETRY=OFF); "
                 "registry-backed metrics would read zero\n");
    return 2;
  }
  // The program's own request tracing (trace ids, the span ring, the TCP
  // frame extension) stays off in both runs: end-to-end figures are
  // measured without it, and the traced run's spans are the benchmark's
  // own, matched by ids it derives from the request bytes.
  fbf::telemetry::set_trace_enabled(false);

  Result result;
  if (args.workload == "point-ln-1m") {
    result = perfbench::run_point(args, /*tcp=*/false);
  } else if (args.workload == "point-tcp-ln-20k") {
    result = perfbench::run_point(args, /*tcp=*/true);
  } else if (args.workload == "ingest-probe") {
    result = perfbench::run_ingest_probe(args);
  } else if (args.workload == "join-ln-200k") {
    result = perfbench::run_join(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }

  // Header: one stamp per result, so runs from different commits,
  // machines and kernels are never compared blindly.
  std::string header = "{\"workload\": " + json_string(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"program_tracing\": " +
                       (fbf::telemetry::trace_enabled() ? "\"on\"" : "\"off\"") +
                       ", \"commit\": " + json_string(args.commit) +
                       ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + json_string("g++ " __VERSION__) +
                       ", \"cpu\": " + json_string(cpu_model()) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"cpu_placement\": " +
                       json_string(perfbench::cpu_placement()) +
                       ", \"FBF_FORCE_KERNEL\": " +
                       json_string(env_or("FBF_FORCE_KERNEL", "")) +
                       ", \"FBF_FORCE_GENERATOR\": " +
                       json_string(env_or("FBF_FORCE_GENERATOR", ""));
  for (const auto& [key, value] : result.stamp) {
    header += ", " + json_string(key) + ": " + json_string(value);
  }
  std::printf("header %s}\n", header.c_str());
  for (const std::string& line : result.notes) {
    std::printf("note %s\n", line.c_str());
  }

  const auto& specs = args.trace ? perfbench::per_layer_metrics()
                                 : perfbench::end_to_end_metrics();
  std::string metrics;
  for (const perfbench::MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    double value = it != result.metrics.end() ? it->second : 0.0;
    if (!perfbench::valid_name(spec.name) || !std::isfinite(value)) {
      result.fail(std::string("bad metric ") + spec.name);
      value = 0.0;
    }
    if (!args.trace && !(value > 0.0)) {
      result.fail(std::string("end-to-end metric ") + spec.name +
                  " was not measured");
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
               "\": {\"value\": " + number + ", \"unit\": \"" + spec.unit +
               "\"}";
    std::printf("metric %-30s %14.6f %s\n", spec.name, value, spec.unit);
  }
  if (!result.correct) {
    for (const std::string& line : result.notes) {
      if (line.rfind("FAILED", 0) == 0) {
        std::fprintf(stderr, "fbf_perfbench: %s\n", line.c_str());
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              std::max<std::size_t>(result.attempted, 1), result.failed,
              metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
