#include "serving/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "serving/clock.hpp"
#include "serving/daemon.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/run_control.hpp"

namespace fcad::serving {
namespace {

/// Peak resident set size of this process in kB (VmHWM from
/// /proc/self/status), 0 where unavailable. Reported in sketch-mode JSON so
/// the CI bench gate can assert the bounded-memory claim directly.
std::int64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::int64_t kb = 0;
    fields >> kb;
    return fields.fail() ? 0 : kb;
  }
  return 0;
}

}  // namespace

StatusOr<ReplayJob> replay_job_from_args(const ArgParser& args) {
  ReplayJob job;
  WorkloadOptions& workload = job.spec.workload;
  FleetOptions& fleet = job.spec.fleet;

  auto requests = args.get_int("replay", 0);
  if (!requests.is_ok()) return requests.status();
  workload.target_requests = *requests;
  auto users = args.get_int("users", 8);
  if (!users.is_ok()) return users.status();
  workload.users = static_cast<int>(*users);
  auto frame_rate = args.get_double("frame-rate", 30.0);
  if (!frame_rate.is_ok()) return frame_rate.status();
  workload.frame_rate_hz = *frame_rate;
  auto seed = args.get_int("seed", 42);
  if (!seed.is_ok()) return seed.status();
  workload.seed = static_cast<std::uint64_t>(*seed);

  auto instances = args.get_int("instances", 8);
  if (!instances.is_ok()) return instances.status();
  fleet.instances = static_cast<int>(*instances);
  auto shards = args.get_int("shards", 8);
  if (!shards.is_ok()) return shards.status();
  fleet.shards = static_cast<int>(*shards);
  auto threads = args.get_int("threads", 0);
  if (!threads.is_ok()) return threads.status();
  fleet.threads = static_cast<int>(*threads);
  auto policy = dispatch_policy_by_name(args.get("policy", "least-loaded"));
  if (!policy.is_ok()) return policy.status();
  fleet.policy = *policy;
  auto timeout_us = args.get_double("timeout-us", 4000.0);
  if (!timeout_us.is_ok()) return timeout_us.status();
  fleet.batch_timeout_us = *timeout_us;
  auto switch_penalty = args.get_double("switch-penalty-us", 500.0);
  if (!switch_penalty.is_ok()) return switch_penalty.status();
  fleet.switch_penalty_us = *switch_penalty;
  auto tail_pct = args.get_double("tail-pct", 99.0);
  if (!tail_pct.is_ok()) return tail_pct.status();
  if (Status s = validate_percentile(*tail_pct); !s.is_ok()) {
    return Status::invalid_argument("--tail-pct: " + s.message());
  }
  fleet.progress_tail_pct = *tail_pct;
  fleet.checkpoint_path = args.get("checkpoint", "");

  auto sla_ms = args.get_double("sla-ms", 100.0 / 3.0);
  if (!sla_ms.is_ok()) return sla_ms.status();
  fleet.sla_bound_us = *sla_ms * 1e3;
  auto clock = clock_kind_by_name(args.get("clock", "virtual"));
  if (!clock.is_ok()) return clock.status();
  fleet.clock = *clock;

  auto scenario = scenario_from_string(args.get("scenario", "none"));
  if (!scenario.is_ok()) {
    return Status::invalid_argument("--scenario: " +
                                    scenario.status().message());
  }
  job.spec.scenario = *scenario;
  auto elastic = elastic_from_string(args.get("elastic", "none"));
  if (!elastic.is_ok()) {
    return Status::invalid_argument("--elastic: " +
                                    elastic.status().message());
  }
  job.spec.elastic = *elastic;

  auto latency_mode = latency_mode_by_name(args.get("latency-mode", "exact"));
  if (!latency_mode.is_ok()) {
    return Status::invalid_argument("--latency-mode: " +
                                    latency_mode.status().message());
  }
  fleet.latency_mode = *latency_mode;
  job.stream = args.has("stream");

  // --process-shard i/N: this invocation owns process i's contiguous shard
  // range of an N-process streaming replay.
  if (const std::string shard_of = args.get("process-shard", "");
      !shard_of.empty()) {
    const std::size_t slash = shard_of.find('/');
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < shard_of.size();
    if (ok) {
      try {
        std::size_t used_i = 0;
        std::size_t used_n = 0;
        const std::string left = shard_of.substr(0, slash);
        const std::string right = shard_of.substr(slash + 1);
        fleet.process_index = std::stoi(left, &used_i);
        fleet.process_count = std::stoi(right, &used_n);
        ok = used_i == left.size() && used_n == right.size();
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) {
      return Status::invalid_argument(
          "--process-shard: expected i/N (e.g. 0/4), got '" + shard_of + "'");
    }
    job.stream = true;  // process sharding only exists on the stream path
  }

  // --merge a,b,...: fold the listed process-shard checkpoints.
  if (const std::string merge = args.get("merge", ""); !merge.empty()) {
    std::size_t start = 0;
    while (start <= merge.size()) {
      const std::size_t comma = merge.find(',', start);
      const std::string path =
          merge.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start);
      if (!path.empty()) job.merge_paths.push_back(path);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (job.merge_paths.empty()) {
      return Status::invalid_argument(
          "--merge: expected a comma-separated checkpoint list");
    }
  }

  auto cancel_at = args.get_double("cancel-at", 0.0);
  if (!cancel_at.is_ok()) return cancel_at.status();
  if (!(*cancel_at >= 0 && *cancel_at <= 1)) {
    return Status::invalid_argument("--cancel-at: must be in [0, 1]");
  }
  job.cancel_at = *cancel_at;
  job.csv_path = args.get("csv", "");
  job.json_path = args.get("json", "");
  job.decisions_path = args.get("decisions", "");
  return job;
}

int run_replay_cli(const ServiceModel& service, const ReplayJob& job) {
  ServeSpec spec = job.spec;
  const WorkloadOptions workload_defaults;
  if (spec.workload.branches == workload_defaults.branches) {
    spec.workload.branches = service.num_branches();
  }
  // The decisions artifact is the per-request record stream.
  if (!job.decisions_path.empty()) spec.fleet.keep_records = true;

  const bool merge_mode = !job.merge_paths.empty();
  if (job.stream && job.via_daemon) {
    std::fprintf(stderr,
                 "error: --stream drives simulate_fleet_stream — it cannot "
                 "go via the daemon\n");
    return 1;
  }

  // Stream and merge modes never materialize the workload; the planned
  // request count (banner, cancel-at threshold) is the generation target.
  std::optional<std::vector<Request>> trace;
  if (!merge_mode && !job.stream) {
    auto trace_or = generate_scenario_workload(spec.workload, spec.scenario);
    if (!trace_or.is_ok()) {
      std::fprintf(stderr, "error: %s\n",
                   trace_or.status().to_string().c_str());
      return 1;
    }
    trace = std::move(trace_or).value();
  }
  const std::int64_t planned =
      trace ? static_cast<std::int64_t>(trace->size())
            : spec.workload.target_requests;

  util::RunControl control;
  control.threads = spec.fleet.threads;
  if (job.cancel_at > 0) {
    const auto cancel_after = static_cast<std::int64_t>(
        job.cancel_at * static_cast<double>(planned));
    control.on_progress = [&control,
                           cancel_after](const util::ProgressEvent& event) {
      if (event.step >= cancel_after) control.cancel.request_cancel();
    };
  }
  const util::RunScope scope(control);

  if (merge_mode) {
    std::printf("=== merging %d replay checkpoint(s): %lld requests, "
                "%d instance(s) x %d shard(s) ===\n",
                static_cast<int>(job.merge_paths.size()),
                static_cast<long long>(planned), spec.fleet.instances,
                spec.fleet.shards);
  } else {
    std::printf("=== sharded fleet replay%s: %lld requests, %d users, "
                "%d instance(s) x %d shard(s), %s threads ===\n",
                job.stream ? " (streaming)" : "",
                static_cast<long long>(planned), spec.workload.users,
                spec.fleet.instances, spec.fleet.shards,
                spec.fleet.threads > 0
                    ? std::to_string(spec.fleet.threads).c_str()
                    : "all");
  }
  if (job.stream && spec.fleet.process_count > 1) {
    std::printf("process shard %d/%d\n", spec.fleet.process_index,
                spec.fleet.process_count);
  }
  if (spec.scenario.enabled()) {
    std::printf("scenario: %s\n",
                scenario_to_string(spec.scenario).c_str());
  }
  if (spec.elastic.enabled()) {
    std::printf("elastic: %s\n", elastic_to_string(spec.elastic).c_str());
  }

  // Wall timing through the serving time-source API (replay.cpp is grep-
  // gated against std::chrono like the rest of src/serving).
  SteadyClock wall;
  const double start_us = wall.now_us();
  StatusOr<ServingStats> stats = Status::internal("replay never ran");
  std::int64_t shed = 0;
  if (merge_mode) {
    stats = merge_replay_checkpoints(service, spec, job.merge_paths);
  } else if (job.via_daemon) {
    const Daemon daemon(service, spec, job.daemon);
    auto result = daemon.run_trace(*trace, &scope);
    if (result.is_ok()) {
      shed = result->shed;
      stats = std::move(result)->stats;
    } else {
      stats = result.status();
    }
  } else if (job.stream) {
    stats = simulate_fleet_stream(service, spec, &scope);
  } else {
    stats = simulate_fleet(service, *trace, spec, &scope);
  }
  const double elapsed_s = (wall.now_us() - start_us) * 1e-6;

  if (!stats.is_ok()) {
    if (stats.status().code() == StatusCode::kCancelled) {
      std::printf("%s\n", stats.status().message().c_str());
      if (!spec.fleet.checkpoint_path.empty()) {
        std::printf("checkpoint kept at %s; rerun the same command to "
                    "resume\n",
                    spec.fleet.checkpoint_path.c_str());
      }
      return 3;
    }
    std::fprintf(stderr, "error: %s\n", stats.status().to_string().c_str());
    return 1;
  }

  std::printf(
      "replayed %lld requests in %.3f s (%.0f req/s simulated; makespan "
      "%.1f s of traffic)\n",
      static_cast<long long>(stats->completed), elapsed_s,
      static_cast<double>(stats->completed) / elapsed_s,
      stats->makespan_us * 1e-6);
  if (job.via_daemon) {
    std::printf("daemon path: %lld request(s) shed by admission control\n",
                static_cast<long long>(shed));
  }
  if (merge_mode) {
    std::printf("merged %d shard(s) from %d checkpoint(s)\n",
                spec.fleet.shards, static_cast<int>(job.merge_paths.size()));
  } else if (stats->resumed_shards > 0) {
    std::printf("resumed %d of %d shard(s) from %s\n", stats->resumed_shards,
                spec.fleet.shards, spec.fleet.checkpoint_path.c_str());
  }
  std::printf("%s\n", serving_report(*stats).c_str());

  if (!job.csv_path.empty()) {
    CsvWriter csv(serving_csv_header({"requests", "shards"}));
    csv.add_row(serving_csv_row({std::to_string(stats->offered),
                                 std::to_string(spec.fleet.shards)},
                                *stats));
    if (!csv.write_file(job.csv_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   job.csv_path.c_str());
      return 1;
    }
  }
  if (!job.decisions_path.empty()) {
    std::vector<RequestRecord> records = stats->records;
    std::sort(records.begin(), records.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.id < b.id;
              });
    CsvWriter csv({"id", "user", "branch", "instance", "arrival_us",
                   "start_us", "finish_us"});
    for (const RequestRecord& r : records) {
      csv.add_row({std::to_string(r.id), std::to_string(r.user),
                   std::to_string(r.branch), std::to_string(r.instance),
                   format_exact(r.arrival_us), format_exact(r.start_us),
                   format_exact(r.finish_us)});
    }
    if (!csv.write_file(job.decisions_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   job.decisions_path.c_str());
      return 1;
    }
  }
  if (!job.json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.key("schema_version").value(1);
    json.key("bench").value(job.json_bench);
    json.key("requests").value(stats->offered);
    json.key("users").value(spec.workload.users);
    json.key("instances").value(spec.fleet.instances);
    json.key("shards").value(spec.fleet.shards);
    json.key("policy").value(to_string(spec.fleet.policy));
    json.key("clock").value(to_string(spec.fleet.clock));
    json.key("via_daemon").value(job.via_daemon);
    json.key("shed").value(shed);
    // Elastic summary keys the CI jq gates consume directly: the canonical
    // spec strings plus event totals and the p99's margin to the SLA bound
    // (negative = inside the bound).
    json.key("scenario").value(scenario_to_string(spec.scenario));
    json.key("elastic").value(elastic_to_string(spec.elastic));
    json.key("scale_events")
        .value(stats->scale_up_events + stats->scale_down_events);
    json.key("reshard_events").value(stats->reshard_splits);
    json.key("sla_p99_delta_us")
        .value(stats->latency.p99 - stats->sla_bound_us);
    // Sketch-only keys, so exact-mode JSON stays byte-identical to before
    // the sketch existed. peak_rss_kb is machine state, not simulation
    // output — determinism comparisons must strip it (CI does).
    if (spec.fleet.latency_mode == LatencyMode::kSketch) {
      json.key("latency_mode").value(to_string(spec.fleet.latency_mode));
      json.key("sketch_compactions").value(stats->sketch_compactions);
      json.key("peak_rss_kb").value(peak_rss_kb());
    }
    json.key("stats");
    serving_stats_json(json, *stats);
    json.end_object();
    if (!json.write_file(job.json_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   job.json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace fcad::serving
