// The F-CAD benchmark: runs one named workload for a fixed time, checks its
// outputs, and prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. A line before it carries the run context (host
// calibration loop, nproc, threads, build type, source revision), so a
// noisy-neighbour run can be told apart from a regression.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--revision TEXT]
//
// Exit code 0 when every operation and check passed, 1 when any failed,
// 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  RunResult (*run)(const Args&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"replay_batched_sla", run_replay_batched_sla},
    {"replay_stream_drift", run_replay_stream_drift},
    {"dse_table1", run_dse_table1},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed by every untraced run; none may be 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_ms_p2", "ms"},
    {"ns_per_item", "ns"},
    {"peak_rss_mb", "MiB"},
};

// Printed by every traced run; a layer a workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"serving.workload.gen_ns_per_req", "ns"},
    {"serving.workload.draws_per_req", "count"},
    {"serving.engine.enqueue_ns_per_req", "ns"},
    {"serving.engine.dispatch_ns_per_req", "ns"},
    {"serving.engine.next_event_ns_per_req", "ns"},
    {"serving.engine.advance_ns_per_req", "ns"},
    {"serving.engine.loop_self_ns_per_req", "ns"},
    {"serving.engine.iters_per_req", "count"},
    {"serving.engine.dispatch_yield", "count"},
    {"serving.elastic.tick_ns_per_req", "ns"},
    {"serving.elastic.scale_events", "count"},
    {"serving.elastic.scale_deciles", "count"},
    {"serving.merge_ms", "ms"},
    {"serving.take_stats_ms", "ms"},
    {"serving.checkpoint.merge_ms", "ms"},
    {"serving.checkpoint.bytes", "bytes"},
    {"serving.engine.mean_batch_fill", "ratio"},
    {"serving.engine.requests_per_batch", "count"},
    {"serving.engine.max_queue_depth", "count"},
    {"serving.sim_p99_ms", "sim_ms"},
    {"serving.sla_violation_rate", "ratio"},
    {"dse.rounds_per_search", "count"},
    {"dse.propose_us_per_round", "us"},
    {"dse.accept_us_per_round", "us"},
    {"dse.eval_us_per_round", "us"},
    {"dse.eval_ns_per_candidate", "ns"},
    {"dse.evaluations_per_search", "count"},
    {"dse.fitness_cache.hit_ratio", "ratio"},
    {"dse.outside_rounds_us_per_search", "us"},
    {"dse.design_fitness_mean", "score"},
    {"dse.est_error_pct", "%"},
    {"sim.simulate_us", "us"},
    {"sim.stage_err_max_pct", "%"},
    {"sim.stall_frac", "ratio"},
    {"analysis.profile_ms", "ms"},
    {"arch.reorganize_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.calib_ns", "ns"},
    {"bench.error_rate", "ratio"},
};

/// Fixed host calibration loop: ns per xorshift step, median of three
/// passes. Not gated; it tells a slow host from a slow program.
double calibration_ns() {
  constexpr int kSteps = 1 << 24;
  std::vector<double> passes;
  std::uint64_t x = 88172645463325252ULL;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    passes.push_back(static_cast<double>(now_ns() - t0) / kSteps);
  }
  // Keep the loop observable so it cannot be folded away.
  if (x == 0) std::fprintf(stderr, "calibration degenerate\n");
  return median(passes);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

bool parse_args(int argc, char** argv, Args& args, std::string& revision,
                std::string& error) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(args.seconds) && args.seconds > 0 &&
                     args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    error =
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--out-dir DIR] [--revision TEXT]";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string revision = "unknown";
  std::string error;
  if (!parse_args(argc, argv, args, revision, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (args.workload == w.name) entry = &w;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  const double calib_ns = calibration_ns();
  RunResult result;
  try {
    result = entry->run(args);
  } catch (const std::exception& e) {
    ++result.attempted;
    result.fail(std::string("uncaught exception: ") + e.what());
  }
  if (result.attempted < 1) result.attempted = 1;

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (args.trace) {
    result.metrics["bench.calib_ns"] = calib_ns;
    result.metrics["bench.error_rate"] =
        static_cast<double>(result.failures.size()) /
        static_cast<double>(result.attempted);
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.metrics.find(spec.name);
      metrics.push_back({spec, it == result.metrics.end() ? 0 : it->second});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = result.metrics.find(spec.name);
      const double value = it == result.metrics.end() ? 0 : it->second;
      if (!(value > 0) && result.failures.empty()) {
        result.fail(std::string("end-to-end metric ") + spec.name +
                    " was not measured");
      }
      metrics.push_back({spec, value});
    }
  }
  for (const auto& [name, value] : result.metrics) {
    bool known = false;
    for (const auto& [spec, v] : metrics) known |= name == spec.name;
    if (!known) result.fail("workload reported unlisted metric " + name);
  }
  for (auto& [spec, value] : metrics) {
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + spec.name + " is not finite");
      value = 0;
    }
  }
  const std::int64_t failed = static_cast<std::int64_t>(result.failures.size());
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }

  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"bench.calib_ns\": %.6g, \"nproc\": %ld, "
              "\"build_type\": \"%s\", \"revision\": \"%s\"",
              json_escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              calib_ns, ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              json_escape(revision).c_str());
  for (const auto& [key, value] : result.context) {
    std::printf(", \"%s\": \"%s\"", json_escape(key).c_str(),
                json_escape(value).c_str());
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
