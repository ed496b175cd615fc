// Fleet dispatch (serving step 3): an event-driven simulation of K
// accelerator instances serving a batched multi-tenant request stream.
//
// Each instance is a single server (the branch pipelines share one DDR and
// control plane, so an instance runs one batch pass at a time). The
// dispatcher picks which free instance runs the next ready batch; the
// branch-affinity policy models the weight-stream cost of retargeting an
// instance to a different branch via a per-switch penalty.
//
// Million-request replays shard: `FleetOptions::shards` statically
// partitions the user streams and the instance pool into independent
// per-shard event loops (user u -> shard u mod S; instances split into
// contiguous groups), which run across util::ThreadPool and merge their
// latency/SLA streams in shard-index order — so for a fixed shard count the
// stats are bit-identical for ANY thread count, including 1. Sharded runs
// can also checkpoint (`FleetOptions::checkpoint_path`): every finished
// shard's partial stats (counts, per-branch and per-instance counters, and
// either the exact latency/wait pages and records or the two sketches) are
// serialized atomically in the one binary checkpoint format (v3), and a
// replay cancelled via RunControl resumes from the completed shards instead
// of restarting. The trace, stream, and merge entry points below share one
// validated replay plan and one shard loop (serving/shard_loop.hpp).
#pragma once

#include <string>
#include <vector>

#include "serving/batcher.hpp"
#include "serving/clock.hpp"
#include "serving/elastic.hpp"
#include "serving/scenario.hpp"
#include "serving/service.hpp"
#include "serving/sketch.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "util/run_control.hpp"
#include "util/status.hpp"

namespace fcad::serving {

enum class DispatchPolicy {
  kRoundRobin,     ///< cycle through instances, skipping busy ones
  kLeastLoaded,    ///< free instance with the least accumulated busy time
  kBranchAffinity, ///< prefer a free instance already targeting the branch
};

const char* to_string(DispatchPolicy policy);

/// Lookup by name ("round-robin"/"rr", "least-loaded"/"least",
/// "branch-affinity"/"affinity"); case-insensitive.
StatusOr<DispatchPolicy> dispatch_policy_by_name(const std::string& name);

struct FleetOptions {
  int instances = 1;  ///< K accelerator instances
  DispatchPolicy policy = DispatchPolicy::kLeastLoaded;
  /// Batching timeout: longest a request may wait for its batch to fill
  /// (<= 0 disables; batches then form only when full or at stream end).
  double batch_timeout_us = 4000;
  /// Extra pass time when an instance switches to a different branch than
  /// its previous pass (weight-stream retarget cost).
  double switch_penalty_us = 0;
  /// Latency bound requests are scored against (p99 target).
  double sla_bound_us = 33333.3;  ///< one 30 Hz frame period
  bool keep_records = false;      ///< retain per-request completion records

  /// Static sharding of the replay (1 = the classic single-timeline fleet).
  /// Must stay in [1, instances]. S > 1 models a statically partitioned
  /// fleet: user u's requests go to shard u mod S, which owns its own
  /// contiguous slice of the instance pool, batch aggregator, and
  /// dispatcher. The shard count is part of the model — changing it changes
  /// the stats — but for a fixed count results are bit-identical for any
  /// `threads`.
  int shards = 1;
  /// Thread-pool size for the sharded replay: 0 = one thread per hardware
  /// core, N = exactly N workers. A RunControl::threads override (via the
  /// scope) wins. Never changes results.
  int threads = 0;
  /// Unread: progress ticks carry counts only. Kept only because
  /// perfbench's traced copy of the loop still copies it; goes once
  /// perfbench runs run_shard with an observer (ROADMAP item 1).
  static constexpr double progress_tail_pct = 99;
  /// Checkpoint file ("" disables). Granularity is one shard: every shard
  /// completion atomically rewrites the file (temp + rename) with all
  /// finished shards' partial stats, and a later run with the same service,
  /// workload, and options resumes from it — loaded shards are not
  /// re-simulated, and the merged stats are bit-identical to an
  /// uninterrupted run. The file is binary format v3 in both latency
  /// modes. A checkpoint whose fingerprint does not match the run, or one
  /// in a retired format (text v1, binary v2), is ignored, never
  /// misapplied.
  std::string checkpoint_path;
  /// Time source the per-shard event loops run on. kVirtual jumps between
  /// events (the classic instant replay); kSteady paces every event at its
  /// trace timestamp in real wall time (each shard sleeps between events —
  /// use short traces). The clock only controls *when* events happen, never
  /// their decisions or stats, so it is excluded from the checkpoint
  /// fingerprint.
  ClockKind clock = ClockKind::kVirtual;
  /// kSketch swaps the exact per-request latency streams for mergeable
  /// quantile sketches (relative error <= the sketch alpha, 0.1%): memory
  /// per shard becomes O(1) and each checkpoint shard block carries the
  /// sketches instead of the exact latency pages, so its size no longer
  /// grows with the request count — the billion-request mode. Incompatible
  /// with keep_records. The default keeps exact accounting, bit for bit.
  LatencyMode latency_mode = LatencyMode::kExact;
  /// Multi-process sharding (simulate_fleet_stream only): this process owns
  /// the contiguous shard range [process_index*S/N, (process_index+1)*S/N)
  /// of the S shards and checkpoints its results for a later
  /// merge_replay_checkpoints pass. The defaults (0 of 1) own every shard.
  /// process_count > 1 requires a checkpoint_path — otherwise the partial
  /// results could never be combined.
  int process_index = 0;
  int process_count = 1;
};

/// The aggregate serving spec — workload + fleet + scenario + elastic —
/// consumed by simulate_fleet, serving::Daemon, serving_cli, and
/// bench_serving. `fleet` is the one home of the SLA bound
/// (`fleet.sla_bound_us`) and the clock (`fleet.clock`).
struct ServeSpec {
  WorkloadOptions workload;
  FleetOptions fleet;
  /// Traffic drift shaped over the workload (diurnal/flash/churn) and the
  /// instance fault schedule. generate_scenario_workload and
  /// simulate_fleet_stream apply the arrival shapes; the fault schedule
  /// applies in every mode (trace-driven included).
  ScenarioSpec scenario;
  /// Elastic policies: autoscaling over the provisioned pool
  /// (fleet.instances active initially, autoscale.max_instances the cap)
  /// and shard-local dynamic resharding. Disabled by default — the static
  /// fleet is the `none` elastic spec.
  ElasticSpec elastic;
};

/// Simulates serving the request stream on `spec.fleet.instances` copies of
/// the accelerator described by `service` (spec.workload is ignored by this
/// trace-driven overload). Every request completes (the aggregator drains
/// after the last arrival), so `completed == offered`. Deterministic:
/// identical inputs (including `shards`) produce bit-identical stats at any
/// thread count — and, under `ClockKind::kSteady`, identical stats to the
/// virtual run, just paced in real time.
///
/// When `scope` is set, huge replays become interruptible: the event loops
/// poll it and the call returns StatusCode::kCancelled once the token fires
/// or the deadline passes (finished shards stay checkpointed when a
/// checkpoint path is set). A scope with a progress listener also receives
/// ~20 "fleet" ProgressEvents over the replay: `step` requests completed of
/// `total_steps` offered (best_fitness stays 0), ending with one tick at the
/// final count. Progress is a write-only observer of the shard loop
/// (run_shard, internal serving/shard_loop.hpp), created only when a
/// listener exists, so it never changes the stats.
StatusOr<ServingStats> simulate_fleet(const ServiceModel& service,
                                      const std::vector<Request>& requests,
                                      const ServeSpec& spec,
                                      const util::RunScope* scope = nullptr);

/// Streaming twin for replays too large to materialize: each shard pulls
/// its own lazily generated request stream (serving/stream.hpp) and keeps
/// only the requests it owns, so the full workload vector never exists —
/// peak memory is O(users + shards), independent of request count. Requires
/// `spec.workload.target_requests > 0` (a generated process with a definite
/// end) and produces stats bit-identical to the materialized overload on
/// the same spec, for any thread count. `fleet.process_index/process_count`
/// restrict the run to a contiguous shard range whose results land in the
/// checkpoint; the returned stats then cover only the owned shards, and
/// merge_replay_checkpoints folds the per-process checkpoints into the
/// final fleet-wide result.
StatusOr<ServingStats> simulate_fleet_stream(
    const ServiceModel& service, const ServeSpec& spec,
    const util::RunScope* scope = nullptr);

/// Folds the checkpoints written by N `--process-shard` runs of the SAME
/// spec into the final ServingStats, exactly as if one process had run
/// every shard (shards merge in shard-index order, and sketch merges are
/// associative and byte-stable, so the result is bit-identical to the
/// single-process run). The spec's process_index/process_count are
/// ignored: the merge always owns every shard. Strict, unlike
/// checkpoint resume: an unreadable, retired-format (text v1, binary v2),
/// or mismatched-fingerprint file, an overlapping or missing shard, or a
/// merged request count that does not reach the target is an error, never
/// a silent restart. Works in both latency modes: exact blocks concatenate
/// their latency pages in shard order, sketch blocks merge.
StatusOr<ServingStats> merge_replay_checkpoints(
    const ServiceModel& service, const ServeSpec& spec,
    const std::vector<std::string>& checkpoint_paths);

}  // namespace fcad::serving
