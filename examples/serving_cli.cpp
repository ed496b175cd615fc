// serving_cli — multi-tenant serving simulation of the Table-I avatar
// decoder: search the accelerator once (dse::SearchDriver), then replay
// request traffic from N concurrent users across a fleet of instances and
// report tail latency and SLA compliance per arrival process x dispatch
// policy.
//
//   serving_cli --users 4 --instances 4 --sla-ms 33.3 --seed 42
//   serving_cli --optimize --max-users 64        # SLA-aware DSE
//   serving_cli --optimize --json                # machine-readable winner
//   serving_cli --replay 1000000 --trace-out replay.trace.json
//
// Results are bit-reproducible for a fixed --seed (same CSV across runs);
// --metrics-out / --trace-out export the obs:: metrics registry and a
// Chrome/Perfetto trace without changing any result.
#include <cstdio>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/export.hpp"
#include "serving/fleet.hpp"
#include "serving/replay.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "sim/simulator.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/run_control.hpp"
#include "util/table.hpp"

namespace {

using namespace fcad;

void usage() {
  std::printf(
      "usage: serving_cli [options]\n"
      "traffic:\n"
      "  --users <n>            concurrent user streams (default 2)\n"
      "  --frame-rate <f>       per-user frame rate, Hz (default 30)\n"
      "  --duration <f>         simulated seconds of traffic (default 2)\n"
      "  --arrival <name>       poisson | bursty | both (default both)\n"
      "  --seed <n>             workload + DSE seed (default 42)\n"
      "fleet:\n"
      "  --instances <n>        accelerator instances (default 4)\n"
      "  --shards <n>           static fleet shards, in [1, instances]; the\n"
      "                         replay parallelizes across them (default 1)\n"
      "  --policy <name>        rr | least | affinity | all (default all)\n"
      "  --timeout-us <f>       batching timeout (default 4000)\n"
      "  --switch-penalty-us <f> branch retarget cost per pass (default "
      "500)\n"
      "  --sla-ms <f>           p99 latency bound (default 33.333)\n"
      "hardware search:\n"
      "  --platform <name>      z7045 | zu17eg | zu9cg | ku115 (default "
      "zu9cg)\n"
      "  --batches a,b,...      per-branch batch targets (default 1,2,2)\n"
      "  --population <n>       DSE candidates (default 100)\n"
      "  --iterations <n>       DSE iterations (default 12)\n"
      "  --threads <n>          DSE evaluation threads (default: all cores; "
      "results are identical for any value)\n"
      "  --simulate             service times from the cycle simulator\n"
      "SLA-aware DSE (SearchKind::kTraffic):\n"
      "  --optimize             search batch scaling under the traffic\n"
      "  --max-batch <n>        largest batch multiplier probed (default 8)\n"
      "  --max-users <n>        also maximize served users up to n\n"
      "sharded replay (bit-identical for any --threads):\n"
      "  --replay <n>           replay an n-request Poisson trace across the\n"
      "                         fleet (defaults become users 8, instances 8,\n"
      "                         shards 8)\n"
      "  --checkpoint <file>    per-shard checkpoint; rerun with the same\n"
      "                         flags to resume\n"
      "  --cancel-at <f>        cancel after fraction f of the requests\n"
      "                         completed (exit code 3)\n"
      "  --clock <name>         virtual (instant, default) | steady (pace\n"
      "                         events at their trace timestamps)\n"
      "  --decisions <file>     per-request decision CSV (the replay/live\n"
      "                         parity artifact; exact doubles)\n"
      "  --scenario <spec>      drift scenario: diurnal rate modulation,\n"
      "                         flash crowds, user churn, instance faults\n"
      "                         (diurnal:period=..,amp=..;flash:start=..,\n"
      "                         end=..,rate=..,users=..;churn:user=..,\n"
      "                         join=..,leave=..;fault:instance=..,fail=..,\n"
      "                         recover=..; default none)\n"
      "  --elastic <spec>       elastic fleet policy (scale:max=..,high=..,\n"
      "                         low=..,window_us=..;reshard:frac=..,\n"
      "                         window=..,cells=..; default none)\n"
      "  --latency-mode <m>     exact (default) | sketch: mergeable\n"
      "                         quantile sketches, O(1) memory per shard —\n"
      "                         the billion-request mode\n"
      "  --stream               generate the workload lazily per shard\n"
      "                         (never materialized; needs --replay N)\n"
      "  --process-shard i/N    this process owns shard range i of N\n"
      "                         (implies --stream; needs --checkpoint)\n"
      "  --merge <a,b,...>      fold N --process-shard checkpoints into the\n"
      "                         final stats instead of simulating\n"
      "output:\n"
      "  --csv <file>           write the scenario matrix as CSV\n"
      "  --json                 print a machine-readable JSON report "
      "instead of the tables\n"
      "  --metrics-out <file>   write obs metrics "
      "(counters/gauges/histograms) as JSON\n"
      "  --trace-out <file>     write a Chrome/Perfetto trace (virtual time "
      "for the fleet,\n"
      "                         wall clock for the DSE)\n");
}

struct Scenario {
  serving::ArrivalProcess process;
  serving::DispatchPolicy policy;
  serving::ServingStats stats;
};

/// Unwraps a parsed flag or exits with a clean error message.
template <typename T>
T flag_value(StatusOr<T> value) {
  if (!value.is_ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(*value);
}

/// --replay: sharded large-trace fleet replay (the serving_cli twin of
/// bench_serving --replay, so operators can trace/checkpoint production-
/// scale traces without building the benches). The whole replay — flags,
/// workload, banner, artifacts, exit codes (0 ok, 1 error, 3 cancelled via
/// --cancel-at) — is serving::run_replay_cli, shared with bench_serving and
/// serving_daemon; only the hardware search lives here.
int run_replay(const ArgParser& args) {
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  serving::ReplayJob job = flag_value(serving::replay_job_from_args(args));

  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  if (!model.is_ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().to_string().c_str());
    return 1;
  }
  dse::SearchSpec spec;
  spec.search.population = 100;
  spec.search.iterations = 12;
  spec.search.seed = 42;
  spec.control.threads = job.spec.fleet.threads;
  auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  if (!outcome.is_ok()) {
    std::fprintf(stderr, "error: %s\n", outcome.status().to_string().c_str());
    return 1;
  }
  const dse::SearchResult& search = outcome->search;
  const serving::ServiceModel service =
      serving::service_model_from_eval(search.config, search.eval);

  const int rc = serving::run_replay_cli(service, job);
  if (!obs_scope.finish()) return 1;
  return rc;
}

int run(const ArgParser& args) {
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  const auto users = static_cast<int>(flag_value(args.get_int("users", 2)));
  const double frame_rate = flag_value(args.get_double("frame-rate", 30.0));
  const double duration = flag_value(args.get_double("duration", 2.0));
  const auto seed =
      static_cast<std::uint64_t>(flag_value(args.get_int("seed", 42)));
  const auto instances =
      static_cast<int>(flag_value(args.get_int("instances", 4)));
  const double timeout_us = flag_value(args.get_double("timeout-us", 4000.0));
  // Default retarget cost: streaming another branch's weights in before the
  // pass (order of MBs over the platform DDR => a few hundred microseconds).
  const double switch_penalty_us =
      flag_value(args.get_double("switch-penalty-us", 500.0));
  const double sla_us =
      flag_value(args.get_double("sla-ms", 100.0 / 3.0)) * 1e3;
  const auto shards = static_cast<int>(flag_value(args.get_int("shards", 1)));
  const bool emit_json = args.has("json");

  auto platform = arch::platform_by_name(args.get("platform", "zu9cg"));
  if (!platform.is_ok()) {
    std::fprintf(stderr, "error: %s\n", platform.status().to_string().c_str());
    return 1;
  }

  // Arrival processes and dispatch policies to cover.
  std::vector<serving::ArrivalProcess> processes;
  const std::string arrival = args.get("arrival", "both");
  if (arrival == "both") {
    processes = {serving::ArrivalProcess::kPoisson,
                 serving::ArrivalProcess::kBursty};
  } else {
    auto p = serving::arrival_process_by_name(arrival);
    if (!p.is_ok()) {
      std::fprintf(stderr, "error: %s\n", p.status().to_string().c_str());
      return 1;
    }
    processes = {*p};
  }
  std::vector<serving::DispatchPolicy> policies;
  const std::string policy = args.get("policy", "all");
  if (policy == "all") {
    policies = {serving::DispatchPolicy::kRoundRobin,
                serving::DispatchPolicy::kLeastLoaded,
                serving::DispatchPolicy::kBranchAffinity};
  } else {
    auto p = serving::dispatch_policy_by_name(policy);
    if (!p.is_ok()) {
      std::fprintf(stderr, "error: %s\n", p.status().to_string().c_str());
      return 1;
    }
    policies = {*p};
  }

  // 1. The decoder and the shared spec of its hardware search.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  if (!model.is_ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().to_string().c_str());
    return 1;
  }
  const dse::SearchDriver driver(*model, *platform);

  dse::SearchSpec spec;
  auto batches = args.get_int_list("batches");
  if (!batches.is_ok()) {
    std::fprintf(stderr, "error: %s\n", batches.status().to_string().c_str());
    return 1;
  }
  spec.customization.batch_sizes =
      batches->empty() ? std::vector<int>{1, 2, 2} : *batches;
  spec.search.population =
      static_cast<int>(flag_value(args.get_int("population", 100)));
  spec.search.iterations =
      static_cast<int>(flag_value(args.get_int("iterations", 12)));
  spec.search.seed = seed;
  spec.control.threads =
      static_cast<int>(flag_value(args.get_int("threads", 0)));

  serving::WorkloadOptions workload;
  workload.users = users;
  workload.frame_rate_hz = frame_rate;
  workload.duration_s = duration;
  workload.seed = seed;

  serving::FleetOptions fleet;
  fleet.instances = instances;
  fleet.shards = shards;
  fleet.batch_timeout_us = timeout_us;
  fleet.switch_penalty_us = switch_penalty_us;
  fleet.sla_bound_us = sla_us;

  // 2. SLA-aware DSE mode: search batch scaling under the traffic spec.
  if (args.has("optimize")) {
    if (batches->empty()) {
      // Let the multiplier search own the batch axis: base ratio all-1
      // unless the user pinned explicit per-branch targets.
      spec.customization.batch_sizes.clear();
    }
    spec.kind = dse::SearchKind::kTraffic;
    spec.traffic.workload = workload;
    spec.traffic.fleet = fleet;
    // "all" is a sweep axis, not a policy; fall back to the fleet default.
    spec.traffic.fleet.policy = policy == "all"
                                    ? serving::DispatchPolicy::kLeastLoaded
                                    : policies.front();
    spec.traffic.workload.process = processes.front();
    spec.traffic.max_batch =
        static_cast<int>(flag_value(args.get_int("max-batch", 8)));
    spec.traffic.max_users =
        static_cast<int>(flag_value(args.get_int("max-users", 0)));
    spec.traffic.use_simulator = args.has("simulate");
    auto outcome = driver.run(spec);
    if (!outcome.is_ok()) {
      std::fprintf(stderr, "error: %s\n",
                   outcome.status().to_string().c_str());
      return 1;
    }
    const dse::TrafficSearchResult& result = outcome->traffic;
    std::string batch_str;
    for (int b : result.batch_sizes) {
      if (!batch_str.empty()) batch_str += ",";
      batch_str += std::to_string(b);
    }
    if (emit_json) {
      JsonWriter json;
      json.begin_object();
      json.key("schema_version").value(1);
      json.key("mode").value("traffic");
      json.key("platform").value(platform->name);
      json.key("arrival")
          .value(serving::to_string(spec.traffic.workload.process));
      json.key("policy").value(serving::to_string(spec.traffic.fleet.policy));
      json.key("instances").value(instances);
      json.key("shards").value(shards);
      json.key("users_requested").value(users);
      json.key("users_served").value(result.users_served);
      json.key("sla_met").value(result.sla_met);
      json.key("sla_fitness").value(result.sla_fitness);
      json.key("batch_sizes").begin_array();
      for (int b : result.batch_sizes) json.value(b);
      json.end_array();
      json.key("search").begin_object();
      json.key("fitness").value(result.search.fitness);
      json.key("feasible").value(result.search.feasible);
      json.key("min_fps").value(result.search.eval.min_fps);
      json.end_object();
      json.key("stats");
      serving::serving_stats_json(json, result.stats);
      json.end_object();
      std::printf("%s\n", json.str().c_str());
    } else {
      std::printf(
          "=== SLA-aware DSE (%s arrivals, %s dispatch, %d instance(s)) ===\n"
          "winning batch targets: {%s}   users served: %d (requested %d)   "
          "SLA met: %s\n"
          "sla fitness: %s   hardware fitness: %s   feasible: %s\n\n%s\n",
          serving::to_string(spec.traffic.workload.process),
          serving::to_string(spec.traffic.fleet.policy), instances,
          batch_str.c_str(), result.users_served, users,
          result.sla_met ? "yes" : "NO",
          format_fixed(result.sla_fitness, 3).c_str(),
          format_fixed(result.search.fitness, 1).c_str(),
          result.search.feasible ? "yes" : "no",
          serving::serving_report(result.stats).c_str());
    }
    // Success means the SLA held at (at least) the requested user count —
    // a degraded-but-passing run still signals 2.
    if (!obs_scope.finish()) return 1;
    return result.sla_met && result.users_served >= users ? 0 : 2;
  }

  // 3. Fixed-config mode: search once, then sweep arrival x policy.
  auto outcome = driver.run(spec);
  if (!outcome.is_ok()) {
    std::fprintf(stderr, "error: %s\n", outcome.status().to_string().c_str());
    return 1;
  }
  const dse::SearchResult& search = outcome->search;
  serving::ServiceModel service;
  if (args.has("simulate")) {
    const sim::SimResult simulated =
        sim::simulate(*model, search.config, *platform);
    service = serving::service_model_from_sim(search.config, simulated);
  } else {
    service = serving::service_model_from_eval(search.config, search.eval);
  }
  if (!emit_json) {
    std::printf(
        "=== serving the avatar decoder on %s (%d instance(s), %d users) "
        "===\n"
        "searched config: min %s FPS, %s efficient, feasible: %s\n"
        "service model: uniform-mix saturation %s req/s per instance "
        "(%s passes)\n\n",
        platform->name.c_str(), instances, users,
        format_fixed(search.eval.min_fps, 1).c_str(),
        format_percent(search.eval.efficiency, 1).c_str(),
        search.feasible ? "yes" : "no",
        format_fixed(service.peak_rps(), 0).c_str(),
        args.has("simulate") ? "cycle-simulated" : "analytical");
  }

  workload.branches = model->num_branches();
  std::vector<Scenario> scenarios;
  for (serving::ArrivalProcess process : processes) {
    serving::WorkloadOptions wl = workload;
    wl.process = process;
    auto requests = serving::generate_workload(wl);
    if (!requests.is_ok()) {
      std::fprintf(stderr, "error: %s\n",
                   requests.status().to_string().c_str());
      return 1;
    }
    for (serving::DispatchPolicy p : policies) {
      serving::ServeSpec scenario;
      scenario.fleet = fleet;
      scenario.fleet.policy = p;
      auto stats = serving::simulate_fleet(service, *requests, scenario);
      if (!stats.is_ok()) {
        std::fprintf(stderr, "error: %s\n",
                     stats.status().to_string().c_str());
        return 1;
      }
      scenarios.push_back({process, p, std::move(*stats)});
    }
  }

  if (emit_json) {
    JsonWriter json;
    json.begin_object();
    json.key("schema_version").value(1);
    json.key("mode").value("fixed");
    json.key("platform").value(platform->name);
    json.key("instances").value(instances);
    json.key("shards").value(shards);
    json.key("users").value(users);
    json.key("search").begin_object();
    json.key("fitness").value(search.fitness);
    json.key("feasible").value(search.feasible);
    json.key("min_fps").value(search.eval.min_fps);
    json.key("peak_rps_per_instance").value(service.peak_rps());
    json.end_object();
    json.key("scenarios").begin_array();
    for (const Scenario& s : scenarios) {
      json.begin_object();
      json.key("arrival").value(serving::to_string(s.process));
      json.key("policy").value(serving::to_string(s.policy));
      json.key("stats");
      serving::serving_stats_json(json, s.stats);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
  } else {
    TablePrinter table({"Arrival", "Policy", "p50", "p95", "p99", "Max",
                        "Violations", "Util", "Fill"});
    for (const Scenario& s : scenarios) {
      table.add_row({serving::to_string(s.process),
                     serving::to_string(s.policy),
                     format_fixed(s.stats.latency.p50 * 1e-3, 2) + " ms",
                     format_fixed(s.stats.latency.p95 * 1e-3, 2) + " ms",
                     format_fixed(s.stats.latency.p99 * 1e-3, 2) + " ms",
                     format_fixed(s.stats.latency.max * 1e-3, 2) + " ms",
                     format_percent(s.stats.sla_violation_rate, 2),
                     format_percent(s.stats.fleet_utilization, 1),
                     format_percent(s.stats.mean_batch_fill, 1)});
    }
    std::printf("%s\n", table.to_string().c_str());

    // Detailed report of the best scenario by p99.
    const Scenario* best = &scenarios.front();
    for (const Scenario& s : scenarios) {
      if (s.stats.latency.p99 < best->stats.latency.p99) best = &s;
    }
    std::printf("--- best scenario: %s arrivals, %s dispatch ---\n%s\n",
                serving::to_string(best->process),
                serving::to_string(best->policy),
                serving::serving_report(best->stats).c_str());
  }

  if (args.has("csv")) {
    CsvWriter csv(serving::serving_csv_header({"arrival", "policy"}));
    for (const Scenario& s : scenarios) {
      csv.add_row(serving::serving_csv_row(
          {serving::to_string(s.process), serving::to_string(s.policy)},
          s.stats));
    }
    const std::string path = args.get("csv", "");
    if (!csv.write_file(path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return 1;
    }
    if (!emit_json) std::printf("csv written to %s\n", path.c_str());
  }

  if (!obs_scope.finish()) return 1;
  bool all_met = true;
  for (const Scenario& s : scenarios) all_met &= s.stats.sla_met;
  return all_met ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ArgParser::parse(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().to_string().c_str());
    return 1;
  }
  if (args->has("help")) {
    usage();
    return 0;
  }
  if (args->has("replay")) return run_replay(*args);
  return run(*args);
}
