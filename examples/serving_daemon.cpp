// serving_daemon — the avatar-decoder serving pipeline run as a system, not
// a simulation: search the accelerator once, then serve requests online
// through serving::Daemon (batching, dispatch, tail accounting, admission
// control), in one of three modes:
//
//   serving_daemon --replay 10000 --decisions d.csv --json out.json
//     Trace replay through Daemon::run_trace: simulate_fleet's replay plus
//     the admission gate, so every serving_cli --replay flag applies.
//     Bit-identical artifacts to `serving_cli --replay` on the same flags —
//     the replay/live parity contract (CI diffs the decision CSVs).
//
//   serving_daemon --replay 10000 --parity-check
//     Runs the trace through BOTH the daemon and simulate_fleet in-process
//     and compares every per-request decision and latency. Exit 0 on
//     parity, 1 on any divergence.
//
//   serving_daemon --live --socket /tmp/fcad.sock [--self-drive 200]
//     Live serving on a SteadyClock behind an AF_UNIX socket speaking
//       "req <user> <branch>\n"  ->  "ok <id> <branch> <instance> <us>\n"
//     SIGINT/SIGTERM (or a client "shutdown" line) drains gracefully and
//     prints the session report. --self-drive N runs a built-in client
//     that fires N requests and shuts the daemon down — the CI smoke path.
//
// --admission enables shedding, in both modes, when the rolling p99 over
// the last --admission-window completions exceeds --admission-headroom x
// the SLA bound; shed requests never enter a batch (live clients are
// answered "shed <id>").
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "arch/reorg.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/export.hpp"
#include "serving/clock.hpp"
#include "serving/daemon.hpp"
#include "serving/replay.hpp"
#include "serving/workload.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using namespace fcad;

serving::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_shutdown();
}

void usage() {
  std::printf(
      "usage: serving_daemon [options]\n"
      "modes:\n"
      "  --replay <n>           replay an n-request trace through the daemon\n"
      "                         (simulate_fleet's replay plus admission)\n"
      "  --parity-check         with --replay: also run simulate_fleet and\n"
      "                         compare every decision (exit 1 on mismatch)\n"
      "  --live                 serve an AF_UNIX socket on a steady clock\n"
      "traffic/fleet (replay modes share serving_cli --replay's flags):\n"
      "  --users --frame-rate --seed --instances --shards --threads\n"
      "  --policy --timeout-us --switch-penalty-us --sla-ms --tail-pct\n"
      "scenario / elastic policy:\n"
      "  --scenario <spec>      shape the generated trace and schedule\n"
      "                         instance faults: diurnal:period=..,amp=..;\n"
      "                         flash:start=..,end=..,rate=..,users=..;\n"
      "                         churn:user=..,join=..,leave=..;\n"
      "                         fault:instance=..,fail=..,recover=..\n"
      "                         (faults also apply in --live, in seconds\n"
      "                         since startup)\n"
      "  --elastic <spec>       autoscale/reshard policy:\n"
      "                         scale:max=..,high=..,low=..,window_us=..;\n"
      "                         reshard:frac=..,window=..,cells=..\n"
      "admission control:\n"
      "  --admission            shed load when the rolling p99 drifts toward\n"
      "                         the SLA bound (with --elastic the daemon\n"
      "                         scales up first and sheds only once the\n"
      "                         provisioned pool is exhausted)\n"
      "  --admission-window <n> completions in the rolling window (256)\n"
      "  --admission-headroom <f> shed above f x sla bound (0.9)\n"
      "live mode:\n"
      "  --socket <path>        AF_UNIX socket path (serving_daemon.sock)\n"
      "  --self-drive <n>       built-in client: fire n requests, then shut\n"
      "                         down gracefully\n"
      "output:\n"
      "  --decisions <file>     per-request decision CSV (parity artifact)\n"
      "  --csv <file> --json <file> --metrics-out <file> --trace-out <file>\n");
}

/// Unwraps a parsed flag or exits with a clean error message.
template <typename T>
T flag_value(StatusOr<T> value) {
  if (!value.is_ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(*value);
}

/// One hardware search -> service model (identical parameters to
/// serving_cli --replay / bench_serving --replay, so all three binaries
/// serve the same fleet).
serving::ServiceModel searched_service(int threads) {
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  if (!model.is_ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().to_string().c_str());
    std::exit(1);
  }
  dse::SearchSpec spec;
  spec.search.population = 100;
  spec.search.iterations = 12;
  spec.search.seed = 42;
  spec.control.threads = threads;
  auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  if (!outcome.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 outcome.status().to_string().c_str());
    std::exit(1);
  }
  return serving::service_model_from_eval(outcome->search.config,
                                          outcome->search.eval);
}

serving::DaemonOptions daemon_options_from_args(const ArgParser& args) {
  serving::DaemonOptions options;
  options.admission_enabled = args.has("admission");
  options.admission_window =
      static_cast<int>(flag_value(args.get_int("admission-window", 256)));
  options.admission_headroom =
      flag_value(args.get_double("admission-headroom", 0.9));
  options.socket_path = args.get("socket", "serving_daemon.sock");
  return options;
}

/// --parity-check: the same trace through the daemon's online loop and
/// through simulate_fleet must produce identical per-request decisions and
/// latencies. This is the headline acceptance gate, runnable as one command.
int run_parity_check(const serving::ServiceModel& service,
                     serving::ReplayJob job) {
  job.spec.fleet.keep_records = true;
  const serving::WorkloadOptions workload_defaults;
  if (job.spec.workload.branches == workload_defaults.branches) {
    job.spec.workload.branches = service.num_branches();
  }
  auto trace =
      serving::generate_scenario_workload(job.spec.workload, job.spec.scenario);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().to_string().c_str());
    return 1;
  }

  auto replay = serving::simulate_fleet(service, *trace, job.spec);
  if (!replay.is_ok()) {
    std::fprintf(stderr, "error: %s\n", replay.status().to_string().c_str());
    return 1;
  }
  const serving::Daemon daemon(service, job.spec, {});
  auto live = daemon.run_trace(*trace);
  if (!live.is_ok()) {
    std::fprintf(stderr, "error: %s\n", live.status().to_string().c_str());
    return 1;
  }
  const serving::ServingStats& a = *replay;
  const serving::ServingStats& b = live->stats;

  std::int64_t mismatches = 0;
  if (a.records.size() != b.records.size()) {
    std::fprintf(stderr, "parity: record count %zu vs %zu\n",
                 a.records.size(), b.records.size());
    ++mismatches;
  } else {
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      const serving::RequestRecord& ra = a.records[i];
      const serving::RequestRecord& rb = b.records[i];
      if (ra.id != rb.id || ra.user != rb.user || ra.branch != rb.branch ||
          ra.instance != rb.instance || ra.arrival_us != rb.arrival_us ||
          ra.start_us != rb.start_us || ra.finish_us != rb.finish_us) {
        if (mismatches < 5) {
          std::fprintf(stderr,
                       "parity: record %zu diverges (id %lld vs %lld, "
                       "instance %d vs %d, finish %.6f vs %.6f)\n",
                       i, static_cast<long long>(ra.id),
                       static_cast<long long>(rb.id), ra.instance,
                       rb.instance, ra.finish_us, rb.finish_us);
        }
        ++mismatches;
      }
    }
  }
  if (a.latency.p50 != b.latency.p50 || a.latency.p99 != b.latency.p99 ||
      a.latency.max != b.latency.max || a.completed != b.completed ||
      a.batches != b.batches || a.sla_violations != b.sla_violations) {
    std::fprintf(stderr, "parity: summary stats diverge (p99 %.6f vs %.6f)\n",
                 a.latency.p99, b.latency.p99);
    ++mismatches;
  }
  if (mismatches > 0) {
    std::printf("PARITY FAIL: %lld mismatch(es) over %lld requests\n",
                static_cast<long long>(mismatches),
                static_cast<long long>(a.completed));
    return 1;
  }
  std::printf(
      "PARITY OK: %lld requests, %lld batches — daemon online path and "
      "simulate_fleet agree on every decision and latency (p99 %.1f us)\n",
      static_cast<long long>(a.completed),
      static_cast<long long>(a.batches), a.latency.p99);
  return 0;
}

/// The built-in --self-drive client: fires `n` requests round-robin over
/// users/branches, counts replies, then asks for a graceful shutdown.
void self_drive(const std::string& socket_path, int n, int users,
                int branches) {
  serving::SteadyClock clock;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  // The daemon binds after it finishes the hardware search; retry for ~5 s.
  bool connected = false;
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      connected = true;
      break;
    }
    clock.sleep_until_us(clock.now_us() + 10000);
  }
  if (!connected) {
    std::fprintf(stderr, "self-drive: cannot connect to %s\n",
                 socket_path.c_str());
    ::close(fd);
    return;
  }
  // Send from a second thread while this one reads the replies: the daemon
  // closes a client that lets 64 KiB of replies go unread.
  std::thread sender([fd, n, users, branches] {
    for (int i = 0; i < n; ++i) {
      const std::string line = "req " + std::to_string(i % users) + " " +
                               std::to_string(i % branches) + "\n";
      if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) < 0) break;
    }
  });
  // Count newline-terminated replies until every request was answered (the
  // batching timeout guarantees eventual dispatch, so this terminates).
  std::int64_t replies = 0, ok = 0, shed = 0;
  std::string buffer;
  char buf[4096];
  while (replies < n) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    buffer.append(buf, static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      ++replies;
      if (line.rfind("ok ", 0) == 0) ++ok;
      if (line.rfind("shed ", 0) == 0) ++shed;
    }
    buffer.erase(0, start);
  }
  sender.join();
  std::printf("self-drive: %lld replies (%lld ok, %lld shed)\n",
              static_cast<long long>(replies), static_cast<long long>(ok),
              static_cast<long long>(shed));
  const char* bye = "shutdown\n";
  (void)::send(fd, bye, 9, MSG_NOSIGNAL);
  ::close(fd);
}

int run_live(const ArgParser& args) {
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  serving::ReplayJob job = flag_value(serving::replay_job_from_args(args));
  job.spec.fleet.clock = serving::ClockKind::kSteady;
  job.spec.fleet.shards = 1;  // serve() is one shard per process
  const serving::DaemonOptions options = daemon_options_from_args(args);
  const auto self_requests =
      static_cast<int>(flag_value(args.get_int("self-drive", 0)));

  const serving::ServiceModel service =
      searched_service(job.spec.fleet.threads);
  serving::Daemon daemon(service, job.spec, options);
  g_daemon = &daemon;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("serving_daemon: listening on %s (%d instance(s), %s "
              "dispatch, admission %s, elastic %s) — SIGINT/SIGTERM or a "
              "'shutdown' line drains gracefully\n",
              options.socket_path.c_str(), job.spec.fleet.instances,
              serving::to_string(job.spec.fleet.policy),
              options.admission_enabled ? "on" : "off",
              serving::elastic_to_string(job.spec.elastic).c_str());

  std::thread driver;
  if (self_requests > 0) {
    driver = std::thread([&options, self_requests, &job, &service] {
      self_drive(options.socket_path, self_requests,
                 std::max(1, job.spec.workload.users),
                 service.num_branches());
    });
  }
  auto result = daemon.serve();
  if (driver.joinable()) driver.join();
  g_daemon = nullptr;
  if (!result.is_ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().to_string().c_str());
    return 1;
  }

  std::printf("session drained: %lld served, %lld shed\n%s\n",
              static_cast<long long>(result->stats.completed),
              static_cast<long long>(result->shed),
              serving::serving_report(result->stats).c_str());
  if (!job.json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.key("schema_version").value(1);
    json.key("bench").value("serving_daemon_live");
    json.key("requests").value(result->stats.completed);
    json.key("shed").value(result->shed);
    json.key("admission").value(options.admission_enabled);
    json.key("stats");
    serving::serving_stats_json(json, result->stats);
    json.end_object();
    if (!json.write_file(job.json_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   job.json_path.c_str());
      return 1;
    }
  }
  return obs_scope.finish() ? 0 : 1;
}

int run_replay_mode(const ArgParser& args) {
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  serving::ReplayJob job = flag_value(serving::replay_job_from_args(args));
  job.via_daemon = true;
  job.daemon = daemon_options_from_args(args);
  job.json_bench = "serving_daemon";
  const serving::ServiceModel service =
      searched_service(job.spec.fleet.threads);
  const int rc = args.has("parity-check")
                     ? run_parity_check(service, std::move(job))
                     : serving::run_replay_cli(service, job);
  if (!obs_scope.finish()) return 1;
  return rc;
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
  if (args->has("live")) return run_live(*args);
  if (args->has("replay")) return run_replay_mode(*args);
  usage();
  return 1;
}
