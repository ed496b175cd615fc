// The event-driven serving engine behind the one shard loop (run_shard in
// shard_loop.hpp) that the offline replays and the online daemon share: batch
// aggregation, free-instance dispatch, and exact latency/SLA accounting for
// one shard, all driven through an injected serving::Clock. Decisions are
// functions of clock readings only, so the same trace produces identical
// per-request records under VirtualClock (replay) and under the daemon —
// the parity contract pinned by tests/daemon_test.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serving/batcher.hpp"
#include "serving/clock.hpp"
#include "serving/dispatch.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "serving/sketch.hpp"
#include "serving/stats.hpp"

namespace fcad::serving {

class ElasticController;

/// Why an instance joined or left the active set — selects the counter and
/// trace-instant name recorded for the transition.
enum class ElasticReason { kScaleUp, kScaleDown, kFault, kRecover };

/// Virtual-time lanes: shard event loops sit at tid = shard index, instance
/// timelines at tid = 1000 + global instance id, so Perfetto renders shards
/// first and instances below them, in stable structural order.
obs::LaneId shard_lane(int shard_index);
obs::LaneId instance_lane(int global_instance);

/// Raw accumulation streams of one shard's event loop, merged across shards
/// in shard-index order (concatenation, sums, maxima) — the merge is a pure
/// function of the per-shard results, which is what makes the replay
/// bit-identical for any thread count and resumable from a checkpoint.
struct ShardStats {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t batches = 0;
  std::int64_t sla_violations = 0;
  int max_queue_depth = 0;
  double fill_sum = 0;
  double depth_integral_us = 0;
  double makespan_us = 0;
  /// Exact mode: the full per-request streams. Sketch mode: both vectors
  /// stay empty and the two sketches below carry the distributions in O(1)
  /// memory per shard.
  std::vector<double> latencies;
  std::vector<double> waits;
  LatencyMode latency_mode = LatencyMode::kExact;
  QuantileSketch latency_sketch;
  QuantileSketch wait_sketch;
  std::vector<std::int64_t> branch_completed;
  /// Per-instance counters with *global* instance ids; utilization is
  /// filled at merge time (it depends on the global makespan).
  std::vector<InstanceStats> instances;
  std::vector<RequestRecord> records;
  /// Elastic-policy transitions observed by this shard (all zero on a
  /// static fleet).
  std::int64_t scale_up_events = 0;
  std::int64_t scale_down_events = 0;
  std::int64_t reshard_splits = 0;
  std::int64_t fault_events = 0;
  std::int64_t recover_events = 0;
};

/// One shard's serving engine. The caller owns the event loop: it decides
/// when to enqueue arrivals, when to dispatch, and how far to advance the
/// clock — the engine keeps the aggregation/dispatch/accounting state and
/// never reads a time source other than the injected clock.
///
/// The canonical loop is run_shard in the internal header shard_loop.hpp —
/// every replay and Daemon::serve run it:
///   while (work remains) {
///     enqueue every arrival due by now_us();     // or shed at admission
///     close() after the last arrival;
///     dispatch_ready(on_batch);
///     t = min(next arrival, next_event_us());
///     advance_to(t);                             // jumps or really sleeps
///   }
/// Progress is one of its write-only observers, not engine state.
struct FleetEngineConfig {
  DispatchPolicy policy{};
  double batch_timeout_us = 4000;
  double switch_penalty_us = 0;
  double sla_bound_us = 33333.3;
  /// Unread: progress ticks carry counts only. Kept only because
  /// perfbench's traced copy of the loop still sets it; goes once perfbench
  /// runs run_shard with an observer (ROADMAP item 1).
  double progress_tail_pct = 99;
  bool keep_records = false;
  int shard_index = 0;     ///< obs shard lane (tid = shard index)
  int first_instance = 0;  ///< global id of this engine's first instance
  int instances = 1;       ///< provisioned slice size (active + headroom)
  /// Instances active at time 0 (< 0 means all of them). The remainder of
  /// the provisioned slice is the elastic layer's scale-up headroom.
  int initial_active = -1;
  /// Cap on the user-range cells dynamic resharding may split this shard
  /// into (1 = the classic single-aggregator shard).
  int max_cells = 1;
  /// Upper bound on requests this engine will see (stream reservations). A
  /// live session, whose count is open-ended, passes 0 and grows its
  /// streams as requests arrive.
  std::int64_t expected_requests = 0;
  /// kSketch replaces the exact latency/wait streams with bounded-memory
  /// quantile sketches seeded by `sketch_seed` — the billion-request mode.
  /// The default keeps today's exact accounting.
  LatencyMode latency_mode = LatencyMode::kExact;
  std::uint64_t sketch_seed = 0;
};

class FleetEngine {
 public:
  /// `service` must outlive the engine.
  FleetEngine(const ServiceModel& service, const FleetEngineConfig& config,
              Clock* clock);

  double now_us() { return clock_->now_us(); }

  /// Feeds completion latencies to the elastic controller's reshard
  /// trigger; the controller must outlive the engine's event loop.
  void set_controller(ElasticController* controller) {
    controller_ = controller;
  }

  /// Moves `local_instance` in or out of the dispatchable set at the
  /// current clock reading, bumping the counter and emitting the trace
  /// instant `reason` selects. A deactivated busy instance finishes its
  /// batch in flight and then idles.
  void set_instance_active(int local_instance, bool on, ElasticReason reason);

  double total_busy_us() const;
  int num_cells() const { return static_cast<int>(cells_.size()); }

  /// Splits the splittable cell with the most pending work at the midpoint
  /// of its observed user-id range; future arrivals for the upper half
  /// route to the new cell (pending requests stay put — no migration, so
  /// the split is a pure function of shard state). Returns false when no
  /// cell has seen two distinct users or the max_cells cap is reached.
  bool try_split_cell();

  /// Admits one request into its branch queue at the current clock reading.
  /// `r.arrival_us` must not be in the engine's future relative to earlier
  /// events (arrivals are ingested in time order).
  void enqueue(const Request& r);

  /// Declares the arrival stream finished; the batcher then drains its tail
  /// on the timeout schedule (immediately when no timeout is configured).
  void close();

  /// Dispatches every ready batch a free instance exists for, at the
  /// current clock reading, calling on_batch(batch, instance, dispatch_us,
  /// finish_us) after each batch's accounting — a direct call the shard
  /// loop inlines.
  template <typename OnBatch>
  void dispatch_ready(OnBatch&& on_batch) {
    const double now_us = clock_->now_us();
    double finish_us = 0;
    for (int k; (k = dispatch_next(now_us, finish_us)) >= 0;) {
      on_batch(std::as_const(batch_), k, now_us, finish_us);
    }
  }
  void dispatch_ready() {
    dispatch_ready([](const Batch&, int, double, double) {});
  }

  /// Next engine-internal event: an instance freeing up when a batch is
  /// ready, else the earliest batching deadline, else +infinity. The caller
  /// merges in its own next-arrival time.
  double next_event_us();

  /// Advances the clock to `t_us` (instant under VirtualClock, a real —
  /// wake()-interruptible — sleep under SteadyClock) and accounts queue
  /// depth over the actually elapsed span.
  void advance_to(double t_us);

  /// True once the stream is closed and every admitted request dispatched.
  bool drained() const { return closed_ && pending() == 0; }

  std::size_t pending() const {
    std::size_t total = 0;
    for (const Cell& cell : cells_) total += cell.agg.pending();
    return total;
  }
  const ShardStats& stats() const { return stats_; }

  /// Finalizes per-instance counters and the shard overview trace span,
  /// then moves the accumulated streams out. Call once, after the loop.
  ShardStats take_stats();

 private:
  /// One user-range slice of the shard: users in [lo, next cell's lo) route
  /// here. min/max_seen track the observed id range so a split lands at its
  /// midpoint.
  struct Cell {
    int lo;
    int min_seen;
    int max_seen;
    BatchAggregator agg;
  };

  Cell& route(int user);

  /// One step of dispatch_ready: pops the oldest ready batch into batch_ and
  /// starts it on the instance the policy picks, accounting every request;
  /// returns that instance and sets `finish_us`, or -1 when no ready batch
  /// or no free instance remains.
  int dispatch_next(double now_us, double& finish_us);

  const ServiceModel& service_;
  FleetEngineConfig config_;
  Clock* clock_;
  obs::Tracer* tracer_;
  std::vector<Cell> cells_;
  /// dispatch_ready()'s batch, popped into in place so its request buffer
  /// is allocated once per engine rather than once per batch.
  Batch batch_;
  Dispatcher dispatcher_;
  ShardStats stats_;
  ElasticController* controller_ = nullptr;
  bool closed_ = false;
  double first_arrival_us_;
};

/// Index-ordered merge of per-shard streams into the final ServingStats:
/// concatenation and sums over shards 0..S-1, utilization filled from the
/// global makespan — a pure function of the shard results, never of thread
/// timing. Takes the shards by value: each exact-mode stream (records,
/// then latencies, then waits) is appended in a pre-sized pass that frees
/// each source as it is consumed, and the merged latencies are summarized
/// and freed before the waits are merged, so peak memory stays ~1x one
/// merged stream over the shard streams.
/// In sketch mode the per-shard sketches fold instead (order-independent,
/// byte-stable). Also exports the obs metrics for the run (request/batch/
/// SLA counters always; histograms and gauges under
/// obs::metrics_collection(); sketch counters in sketch mode).
ServingStats merge_shard_stats(std::vector<ShardStats> shards,
                               const ServiceModel& service,
                               double sla_bound_us, int total_instances,
                               int resumed_shards);

}  // namespace fcad::serving
