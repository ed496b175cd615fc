// The one shard event loop (internal, like engine.hpp): the validated replay
// plan and run_shard, the loop every serving driver runs — each replay shard
// (fleet.cpp) and Daemon::serve's live session (daemon.cpp). run_shard is a
// template over its arrival source and a write-only observer, so progress
// ticks, live replies and phase timing are direct calls that compile away
// under the default observer.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serving/engine.hpp"
#include "serving/stream.hpp"

namespace fcad::serving {

/// Everything one replay needs, validated once: the fleet options, the
/// derived workload, the elastic shard plans, the shard range this process
/// owns, and the fingerprint that binds checkpoints and sketches to the run.
struct ReplayPlan {
  FleetOptions options;
  /// The generated workload with `branches` derived from the service model
  /// (streaming replays only; a trace replay ignores spec.workload).
  WorkloadOptions workload;
  std::vector<ShardElasticPlan> shards;
  int provisioned_total = 0;
  /// This process's contiguous shard range [shard_lo, shard_hi).
  int shard_lo = 0;
  int shard_hi = 0;
  /// Requests the whole replay offers: the trace size or the stream target.
  std::int64_t offered = 0;
  /// The arrival-sorted per-shard slices of a trace replay (empty for a
  /// streaming replay); run_replay moves each into its shard's stream.
  std::vector<std::vector<Request>> trace_shards;
  std::string fingerprint;
  std::uint64_t sketch_seed = 0;
  /// The admission gate: window size (0 = off), p99 bound.
  int admission_window = 0;
  double admission_bound_us = 0;
};

/// Validates `spec` once for every entry point. `trace` is the materialized
/// workload of a trace replay (partitioned here into the plan's per-shard
/// slices), or nullptr for a streaming replay, whose workload is generated
/// per shard from spec.workload.
StatusOr<ReplayPlan> plan_replay(const ServiceModel& service,
                                 const ServeSpec& spec,
                                 const std::vector<Request>* trace);

/// Runs the owned shard range of `plan` across the thread pool: resumes
/// finished shards from the checkpoint, checkpoints each shard as it
/// finishes, folds cancellation, and merges the owned shards in shard-index
/// order (fleet-wide stats when the plan owns every shard). `shed`, when
/// set, receives the requests the admission gate refused.
StatusOr<ServingStats> run_replay(ReplayPlan plan,
                                  const ServiceModel& service,
                                  const ServeSpec& spec,
                                  const util::RunScope* scope,
                                  std::int64_t* shed = nullptr);

/// Chained phase marks: each ends the phase it names, which began at the
/// previous mark, so a timing observer reads one clock per mark. One loop
/// iteration marks (kIngest kDraw+)* kIngest [kTick] kDispatch kNextEvent
/// [kAdvance].
enum class ShardPhase {
  kIngest,     ///< arrival work: enqueue/shed, and any before a draw run
  kDraw,       ///< one RequestStream::next() inside ShardSource::peek
  kTick,       ///< the elastic controller's tick (only with one)
  kDispatch,   ///< dispatch_ready
  kNextEvent,  ///< next_event_us
  kAdvance,    ///< advance_to (every iteration but the last)
};

/// run_shard's default observer and every observer's base: no-op hooks, so
/// an unobserved shard runs the bare loop. Hooks see the engine const and
/// return nothing — an observer never changes a decision or an output.
struct ShardObserver {
  /// Once, before the loop: the engine, readable until run_shard returns.
  void on_start(const FleetEngine&) {}
  void on_phase(ShardPhase) {}
  /// After the engine's own accounting; latency = finish_us - arrival_us.
  void on_batch(const Batch&, int /*instance*/, double /*dispatch_us*/,
                double /*finish_us*/) {}
  /// A request the admission gate refused.
  void on_shed(const Request&) {}
};

/// A shard's requests shed by the admission gate, and those it completed
/// (also when cancelled: a replay's "cancelled after" count).
struct ShardTally {
  std::int64_t shed = 0;
  std::int64_t completed = 0;
};

/// A shard's arrivals: a request stream filtered down to `user % num_shards
/// == shard`, buffering one request. A trace replay streams the shard's own
/// pre-partitioned slice (every request passes the filter); a streaming
/// replay gives each shard a full copy of the generated stream, so the
/// shard sees exactly the slice the static partition would hand it without
/// the workload ever being materialized.
class ShardSource {
 public:
  ShardSource(std::unique_ptr<RequestStream> stream, int shard,
              int num_shards)
      : stream_(std::move(stream)), shard_(shard), num_shards_(num_shards) {}

  /// Next arrival without consuming it; nullptr once exhausted. Stable
  /// until the next pop(). Every stream draw is marked to `observer`.
  template <typename Observer>
  const Request* peek(Observer&& observer) {
    if (!buffered_) observer.on_phase(ShardPhase::kIngest);
    while (!buffered_) {
      std::optional<Request> r = stream_->next();
      observer.on_phase(ShardPhase::kDraw);
      if (!r) return nullptr;
      if (r->user % num_shards_ == shard_) buffered_ = *r;
    }
    return &*buffered_;
  }
  void pop() { buffered_.reset(); }
  /// Inspect after exhaustion: an error when the stream ended early.
  Status finish_status() const { return stream_->finish_status(); }

 private:
  std::unique_ptr<RequestStream> stream_;
  int shard_;
  int num_shards_;
  std::optional<Request> buffered_;
};

/// One shard's event-driven replay: arrivals pulled from `source` (in
/// non-decreasing time order) over the shard's slice of the instance pool,
/// run through the shared FleetEngine on this shard's own clock —
/// VirtualClock jumps between events (bit-exact, reproducible), SteadyClock
/// paces them at their trace timestamps in real time, so recorded dispatch
/// times and latencies include genuine scheduler jitter — that is the point
/// of wall mode, not a defect. An arrival the plan's admission gate sheds
/// is counted in `tally.shed` and handed to `observer` instead of enqueued.
/// `source` has ShardSource's peek(observer)/pop(). The only failure mode is
/// cancellation via `scope`.
template <typename Source, typename Observer = ShardObserver>
StatusOr<ShardStats> run_shard(const ServiceModel& service, Source& source,
                               Clock& clock, const ReplayPlan& plan,
                               const ElasticSpec& elastic, int shard_index,
                               std::int64_t expected_requests,
                               const util::RunScope* scope, ShardTally& tally,
                               Observer&& observer = {}) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const FleetOptions& options = plan.options;
  const ShardElasticPlan& shard_plan =
      plan.shards[static_cast<std::size_t>(shard_index)];
  FleetEngineConfig config;
  config.policy = options.policy;
  config.batch_timeout_us = options.batch_timeout_us;
  config.switch_penalty_us = options.switch_penalty_us;
  config.sla_bound_us = options.sla_bound_us;
  config.keep_records = options.keep_records;
  config.shard_index = shard_index;
  config.first_instance = shard_plan.first_instance;
  config.instances = shard_plan.provisioned;
  config.initial_active = shard_plan.initial_active;
  config.max_cells = elastic.reshard_enabled() ? elastic.reshard.max_cells : 1;
  config.expected_requests = expected_requests;
  config.latency_mode = options.latency_mode;
  config.sketch_seed = plan.sketch_seed;
  FleetEngine engine(service, config, &clock);

  // The controller exists whenever a policy or fault schedule has work to
  // do; its decisions are functions of shard-local state at virtual-time
  // readings, so its presence never couples shards or threads.
  std::optional<ElasticController> controller;
  if (elastic.enabled() || !shard_plan.faults.empty()) {
    controller.emplace(elastic, shard_plan, options.sla_bound_us);
    engine.set_controller(&*controller);
  }
  std::optional<RollingP99Window> admission;
  if (plan.admission_window > 0) admission.emplace(plan.admission_window);
  const auto on_batch = [&](const Batch& batch, int instance,
                            double dispatch_us, double finish_us) {
    if (admission) {
      for (const Request& r : batch.requests) {
        admission->add(finish_us - r.arrival_us);
      }
    }
    observer.on_batch(batch, instance, dispatch_us, finish_us);
  };
  observer.on_start(std::as_const(engine));

  while (true) {
    if (scope != nullptr && scope->should_stop()) {
      tally.completed = engine.stats().completed;
      return Status::cancelled("fleet shard " + std::to_string(shard_index) +
                               " cancelled");
    }
    // Ingest (or shed) every arrival due by the clock reading. The gate
    // sheds once the window's p99 passes the bound and no scale-up headroom
    // is left: grow first, drop load last.
    while (const Request* r = source.peek(observer)) {
      if (r->arrival_us > engine.now_us()) break;
      if (admission && admission->full() &&
          admission->p99() > plan.admission_bound_us &&
          (!controller || !controller->can_scale_up())) {
        ++tally.shed;
        observer.on_shed(*r);
      } else {
        engine.enqueue(*r);
      }
      source.pop();
    }
    const Request* upcoming = source.peek(observer);
    if (upcoming == nullptr) engine.close();
    observer.on_phase(ShardPhase::kIngest);

    if (controller) {
      controller->tick(engine, engine.now_us());
      observer.on_phase(ShardPhase::kTick);
    }
    engine.dispatch_ready(on_batch);
    observer.on_phase(ShardPhase::kDispatch);

    // Advance to the next event: an arrival, a batching deadline, an
    // elastic boundary (evaluation cadence or fault transition), or — when
    // a batch is ready but every instance is busy — an instance freeing up.
    double t_us = engine.next_event_us();
    observer.on_phase(ShardPhase::kNextEvent);
    if (upcoming != nullptr) {
      t_us = std::min(t_us, upcoming->arrival_us);
    }
    if (controller) {
      t_us = std::min(t_us, controller->next_event_us(engine.now_us()));
    }
    // The controller's evaluation cadence stays finite after the work is
    // done, so only a closed source and a drained engine end the loop; a
    // live source with nothing received yet sleeps at +infinity to wake().
    if (upcoming == nullptr && (engine.drained() || t_us == kInf)) break;
    // Virtual time must advance strictly every iteration — an equal-time
    // event would loop forever on exact readings. A steady clock, by
    // contrast, keeps moving between calls, so the wall reading can
    // legitimately overtake the event schedule; advance_to on a
    // past deadline is then an immediate return and the next iteration
    // processes whatever became due.
    if (options.clock == ClockKind::kVirtual) {
      FCAD_CHECK_MSG(t_us > engine.now_us() && t_us < kInf,
                     "fleet: simulation time did not advance");
    }
    engine.advance_to(t_us);
    observer.on_phase(ShardPhase::kAdvance);
  }

  ShardStats out = engine.take_stats();
  tally.completed = out.completed;
  FCAD_CHECK_MSG(out.completed == out.offered,
                 "fleet: lost requests in flight");
  return out;
}

}  // namespace fcad::serving
