// The serving daemon: the step from "simulator" to "system". Both entry
// points run the fleet's one shard loop (run_shard, fleet.cpp) and its
// admission gate:
//
//  - run_trace(): simulate_fleet's replay with the gate in each shard's
//    ingest loop. With admission off it is IDENTICAL to simulate_fleet on
//    the same trace — the parity contract pinned by tests/daemon_test.cpp.
//
//  - serve(): that loop on a SteadyClock behind a socket receiver thread.
//    It listens on an AF_UNIX socket and serves a line protocol:
//        client -> "req <user> <branch>\n"
//        daemon -> "ok <id> <branch> <instance> <latency_us>\n"   (on
//                  dispatch; latency is arrival -> predicted completion)
//               |  "shed <id>\n"        (rejected by admission control)
//               |  "err <reason>\n"
//    A client line "shutdown\n" — or request_shutdown(), which is safe to
//    call from a signal handler — stops intake, drains every in-flight
//    batch on the batching-timeout schedule, answers the stragglers, and
//    returns the final stats. Client sockets are non-blocking, so no client
//    stalls another: a half-closed one is still answered, then closed; one
//    whose unsent replies pass 64 KiB, or whose line passes 4 KiB, is cut.
//    A connection past the 64 the daemon holds is answered
//    "err too many connections" and closed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "util/run_control.hpp"
#include "util/status.hpp"

namespace fcad::serving {

struct DaemonOptions {
  /// Admission control: once at least `admission_window` requests have
  /// completed, a new request is shed (rejected before batching) while the
  /// rolling p99 over the last `admission_window` completions exceeds
  /// `admission_headroom * spec.fleet.sla_bound_us` — the daemon starts
  /// refusing load *before* the SLA is breached, not after. With an elastic
  /// policy (ServeSpec::elastic) the daemon grows first and drops load last:
  /// shedding engages only once scale-up headroom is exhausted. Validated:
  /// window >= 1 (with admission on), headroom finite and > 0.
  bool admission_enabled = false;
  int admission_window = 256;
  double admission_headroom = 0.9;
  /// serve(): AF_UNIX socket path to listen on (unlinked + rebound).
  std::string socket_path;
};

struct DaemonResult {
  ServingStats stats;     ///< over admitted requests only
  std::int64_t shed = 0;  ///< requests rejected by admission control
};

class Daemon {
 public:
  /// `spec.workload` is unused (the daemon serves whatever arrives);
  /// `spec.fleet` configures the engine, its SLA bound and its clock.
  /// `spec.elastic` and `spec.scenario.faults` apply in both entry points —
  /// arrival shaping in `spec.scenario` is the generator's business and is
  /// ignored here (shape the trace before handing it to run_trace).
  Daemon(ServiceModel service, ServeSpec spec, DaemonOptions options = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// simulate_fleet(trace, spec, scope) with the admission gate on each
  /// shard's arrivals; every FleetOptions field behaves as it does there.
  /// Admission rejects a checkpoint_path or process_count > 1 (a
  /// checkpoint carries no shed count).
  StatusOr<DaemonResult> run_trace(const std::vector<Request>& trace,
                                   const util::RunScope* scope = nullptr) const;

  /// Serves the socket until shutdown. Blocks; returns the session's final
  /// stats after the graceful drain. Requires options.socket_path,
  /// spec.fleet.clock == ClockKind::kSteady, and spec.fleet.shards == 1
  /// (live sharding is a daemon-per-shard deployment, not one process);
  /// rejects checkpoint_path and process_count > 1.
  StatusOr<DaemonResult> serve();

  /// Initiates a graceful shutdown of a concurrent serve(): one write to an
  /// internal pipe, so it is safe from any thread or signal handler. A
  /// no-op when serve() is not running (the next serve() call will see it).
  void request_shutdown();

 private:
  ServiceModel service_;
  ServeSpec spec_;
  DaemonOptions options_;
  int wake_pipe_[2] = {-1, -1};  ///< 's' = shutdown, 'r' = replies ready
};

}  // namespace fcad::serving
