// The shared sharded-replay driver behind `serving_cli --replay`,
// `bench_serving --replay`, and `serving_daemon` replay mode. The three
// binaries used to carry near-identical copies of this glue (flag parsing,
// workload generation, cancel-at wiring, the replay banner, CSV/JSON
// emission); it now lives here once, so their flags, output formats, and
// exit codes can never drift apart — which is what lets CI diff the
// daemon's decisions against the CLI's byte for byte.
//
// The hardware search that produces the ServiceModel stays in the binaries:
// serving must not depend on dse.
#pragma once

#include <string>
#include <vector>

#include "serving/daemon.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "util/args.hpp"
#include "util/status.hpp"

namespace fcad::serving {

/// One replay job: the ServeSpec plus the CLI-facing outputs.
struct ReplayJob {
  ServeSpec spec;
  /// Cancel via RunControl once this fraction (in [0, 1]) of the requests
  /// completed (exit code 3); 0 disables.
  double cancel_at = 0;
  std::string csv_path;        ///< stats row ("" disables)
  std::string json_path;       ///< deterministic JSON report ("" disables)
  /// Per-request decision CSV (id,user,branch,instance,arrival_us,start_us,
  /// finish_us; exact %.17g doubles, sorted by id) — the artifact CI diffs
  /// between the daemon and simulate_fleet for replay/live parity.
  std::string decisions_path;
  std::string json_bench = "serving_replay";  ///< "bench" key in the JSON
  /// Drive the trace through Daemon::run_trace instead of simulate_fleet.
  /// With admission off the outputs are identical.
  bool via_daemon = false;
  DaemonOptions daemon;  ///< the daemon path's admission settings
  /// Streaming replay (simulate_fleet_stream): the workload is generated
  /// lazily per shard instead of materialized up front — the
  /// billion-request path. Incompatible with via_daemon.
  bool stream = false;
  /// Non-empty switches the job to merge mode: fold these `--process-shard`
  /// checkpoints into the final stats (merge_replay_checkpoints) instead of
  /// simulating anything.
  std::vector<std::string> merge_paths;
};

/// Parses the shared --replay flag set (--replay N --users --frame-rate
/// --seed --instances --shards --threads --policy --timeout-us
/// --switch-penalty-us --sla-ms --tail-pct --clock --checkpoint --cancel-at
/// --scenario --elastic --latency-mode --stream --process-shard i/N
/// --merge a,b,... --csv --json --decisions) into a job. --scenario
/// takes the scenario_to_string grammar (diurnal/flash/churn/fault
/// clauses), --elastic the elastic_to_string grammar (scale/reshard
/// clauses); both default to "none". --latency-mode exact|sketch selects
/// the latency accounting; --process-shard i/N restricts a streaming run to
/// process i's shard range; --merge folds the resulting checkpoints.
/// Callers set via_daemon/daemon themselves.
StatusOr<ReplayJob> replay_job_from_args(const ArgParser& args);

/// Runs the job end to end against `service`: generate the workload, replay
/// it (simulate_fleet or Daemon::run_trace), print the banner/report, write
/// the requested artifacts. Returns the process exit code: 0 ok, 1 error,
/// 3 cancelled via cancel_at. The caller owns the obs::ObservationScope.
int run_replay_cli(const ServiceModel& service, const ReplayJob& job);

}  // namespace fcad::serving
