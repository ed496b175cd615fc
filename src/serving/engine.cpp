#include "serving/engine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "serving/elastic.hpp"

namespace fcad::serving {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

obs::LaneId shard_lane(int shard_index) {
  return obs::LaneId{obs::kServingPid, shard_index};
}

obs::LaneId instance_lane(int global_instance) {
  return obs::LaneId{obs::kServingPid, 1000 + global_instance};
}

FleetEngine::FleetEngine(const ServiceModel& service,
                         const FleetEngineConfig& config, Clock* clock)
    : service_(service),
      config_(config),
      clock_(clock),
      tracer_(obs::tracer()),
      dispatcher_(config.policy, config.instances, service.num_branches(),
                  config.initial_active),
      // Sketch mode disables the tracker (partial_tail reads the sketch), so
      // its O(expected) tail reserve never happens on billion-request runs.
      tail_(config.latency_mode == LatencyMode::kSketch
                ? 0
                : config.expected_requests,
            config.progress_tail_pct),
      first_arrival_us_(kInf) {
  cells_.reserve(static_cast<std::size_t>(std::max(1, config.max_cells)));
  const std::vector<int> capacities = service.capacities();
  cells_.push_back(Cell{0, std::numeric_limits<int>::max(), -1,
                        BatchAggregator(capacities, config.batch_timeout_us)});
  batch_.requests.reserve(static_cast<std::size_t>(
      *std::max_element(capacities.begin(), capacities.end())));
  // Resolved once per engine; every span below carries clock-reading µs, so
  // a virtual-time replay's emitted timeline is identical for any thread
  // count.
  if (tracer_ != nullptr) {
    tracer_->name_lane(shard_lane(config_.shard_index),
                       "serving fleet (virtual time)",
                       "shard " + std::to_string(config_.shard_index));
    for (int k = 0; k < config_.instances; ++k) {
      tracer_->name_lane(instance_lane(config_.first_instance + k),
                         "serving fleet (virtual time)",
                         "instance " +
                             std::to_string(config_.first_instance + k));
    }
  }
  stats_.branch_completed.assign(
      static_cast<std::size_t>(service.num_branches()), 0);
  stats_.latency_mode = config.latency_mode;
  if (config.latency_mode == LatencyMode::kSketch) {
    stats_.latency_sketch = QuantileSketch(config.sketch_seed);
    stats_.wait_sketch = QuantileSketch(config.sketch_seed);
  } else {
    // A hint, not a commitment: capped so a huge expected_requests never
    // front-loads an allocation the exact streams grow into anyway.
    const auto reserve = static_cast<std::size_t>(std::min<std::int64_t>(
        config.expected_requests, std::int64_t{1} << 22));
    stats_.latencies.reserve(reserve);
    stats_.waits.reserve(reserve);
  }
}

FleetEngine::Cell& FleetEngine::route(int user) {
  // Last cell whose lower bound covers the user; cells_ stays sorted by lo
  // and small (max_cells), so the scan from the top is cheap.
  for (std::size_t i = cells_.size(); i-- > 1;) {
    if (cells_[i].lo <= user) return cells_[i];
  }
  return cells_.front();
}

void FleetEngine::enqueue(const Request& r) {
  Cell& cell = route(r.user);
  cell.agg.enqueue(r);
  cell.min_seen = std::min(cell.min_seen, r.user);
  cell.max_seen = std::max(cell.max_seen, r.user);
  ++stats_.offered;
  first_arrival_us_ = std::min(first_arrival_us_, r.arrival_us);
  const int depth = static_cast<int>(pending());
  if (depth > stats_.max_queue_depth) {
    stats_.max_queue_depth = depth;
    // Counter samples only on a new high-water mark, so the event count
    // stays bounded even on million-request replays.
    if (tracer_ != nullptr) {
      tracer_->counter(shard_lane(config_.shard_index), "queue depth",
                       clock_->now_us(), depth);
    }
  }
}

void FleetEngine::close() {
  closed_ = true;
  for (Cell& cell : cells_) cell.agg.close();
}

void FleetEngine::dispatch_ready() {
  const double now_us = clock_->now_us();
  while (true) {
    // Across cells, serve the ready batch whose head-of-line request has
    // waited longest (ties toward the lowest cell index) — the same
    // fairness rule ready_branch applies across branches within a cell.
    std::size_t cell_index = 0;
    int branch = -1;
    double oldest_us = kInf;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const int b = cells_[i].agg.ready_branch(now_us);
      if (b < 0) continue;
      const double head_us = cells_[i].agg.head_arrival_us(b);
      if (branch < 0 || head_us < oldest_us) {
        cell_index = i;
        branch = b;
        oldest_us = head_us;
      }
    }
    if (branch < 0) break;
    const int k = dispatcher_.pick(branch, now_us);
    if (k < 0) break;
    BatchAggregator& aggregator = cells_[cell_index].agg;
    aggregator.pop_ready(now_us, batch_);
    const Batch& batch = batch_;

    const double finish_us = dispatcher_.dispatch(
        k, branch, now_us,
        service_.branches[static_cast<std::size_t>(branch)].pass_us,
        config_.switch_penalty_us,
        static_cast<std::int64_t>(batch.requests.size()));

    if (tracer_ != nullptr) {
      tracer_->complete(
          instance_lane(config_.first_instance + k),
          "batch b" + std::to_string(branch), "serving", now_us,
          finish_us - now_us,
          {{"branch", static_cast<double>(branch)},
           {"requests", static_cast<double>(batch.requests.size())}});
    }
    ++stats_.batches;
    stats_.fill_sum += static_cast<double>(batch.requests.size()) /
                       static_cast<double>(aggregator.capacity(branch));
    stats_.makespan_us = std::max(stats_.makespan_us, finish_us);
    for (const Request& r : batch.requests) {
      const double latency = finish_us - r.arrival_us;
      if (config_.latency_mode == LatencyMode::kSketch) {
        stats_.latency_sketch.add(latency);
        stats_.wait_sketch.add(now_us - r.arrival_us);
      } else {
        stats_.latencies.push_back(latency);
        stats_.waits.push_back(now_us - r.arrival_us);
        tail_.add(latency);
      }
      if (controller_ != nullptr) controller_->on_complete(latency);
      if (latency > config_.sla_bound_us) ++stats_.sla_violations;
      ++stats_.completed;
      ++stats_.branch_completed[static_cast<std::size_t>(r.branch)];
      if (config_.keep_records) {
        stats_.records.push_back({r.id, r.user, r.branch,
                                  config_.first_instance + k, r.arrival_us,
                                  now_us, finish_us});
      }
    }
    if (batch_hook_) batch_hook_(batch, k, now_us, finish_us);
  }
}

double FleetEngine::next_event_us() {
  // When a batch is ready but every instance is busy, the next event is an
  // instance freeing up; otherwise it is the earliest batching deadline.
  const double now_us = clock_->now_us();
  bool has_ready = false;
  for (const Cell& cell : cells_) {
    if (cell.agg.has_ready(now_us)) {
      has_ready = true;
      break;
    }
  }
  if (has_ready) {
    // A steady clock can cross an instance's free time between
    // dispatch_ready() and this call; the freed instance makes the ready
    // batch dispatchable *immediately*, so the next event is "now" —
    // consulting next_free_us() instead would sleep on the remaining busy
    // set (or forever, once the busy heap is empty) while holding
    // dispatchable work. Virtual time cannot hit this branch: its reading
    // is frozen between the two calls, so whatever dispatch_ready() left
    // ready found every instance busy and stays that way.
    if (dispatcher_.any_free(now_us)) return now_us;
    return dispatcher_.next_free_us(now_us);
  }
  double deadline_us = kInf;
  for (const Cell& cell : cells_) {
    if (cell.agg.pending() > 0) {
      deadline_us = std::min(deadline_us, cell.agg.next_deadline_us());
    }
  }
  return deadline_us;
}

void FleetEngine::set_instance_active(int local_instance, bool on,
                                      ElasticReason reason) {
  const double now_us = clock_->now_us();
  dispatcher_.set_active(local_instance, on, now_us);
  const char* name = "?";
  switch (reason) {
    case ElasticReason::kScaleUp:
      ++stats_.scale_up_events;
      name = "scale up";
      break;
    case ElasticReason::kScaleDown:
      ++stats_.scale_down_events;
      name = "scale down";
      break;
    case ElasticReason::kFault:
      ++stats_.fault_events;
      name = "instance fault";
      break;
    case ElasticReason::kRecover:
      ++stats_.recover_events;
      name = "instance recover";
      break;
  }
  if (tracer_ != nullptr) {
    tracer_->instant(shard_lane(config_.shard_index),
                     std::string(name) + " i" +
                         std::to_string(config_.first_instance +
                                        local_instance),
                     "serving", now_us);
  }
}

double FleetEngine::partial_tail() const {
  if (config_.latency_mode == LatencyMode::kSketch) {
    if (stats_.latency_sketch.count() == 0) return 0;
    return stats_.latency_sketch.quantile(config_.progress_tail_pct);
  }
  return tail_.partial();
}

double FleetEngine::total_busy_us() const {
  return dispatcher_.total_busy_us();
}

bool FleetEngine::try_split_cell() {
  if (static_cast<int>(cells_.size()) >= config_.max_cells) return false;
  // Hottest splittable cell: most pending requests, ties toward the lowest
  // index; a cell needs two distinct observed users to have a midpoint.
  std::size_t target = 0;
  std::size_t best_pending = 0;
  bool found = false;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].min_seen >= cells_[i].max_seen) continue;
    const std::size_t cell_pending = cells_[i].agg.pending();
    if (!found || cell_pending > best_pending) {
      target = i;
      best_pending = cell_pending;
      found = true;
    }
  }
  if (!found) return false;
  Cell& old_cell = cells_[target];
  const int mid =
      old_cell.min_seen + (old_cell.max_seen - old_cell.min_seen) / 2;
  Cell fresh{mid + 1, std::numeric_limits<int>::max(), -1,
             BatchAggregator(service_.capacities(),
                             config_.batch_timeout_us)};
  if (closed_) fresh.agg.close();
  // Requests already queued stay in the old cell — only future arrivals
  // route to the new one, so a split never reorders pending work.
  old_cell.max_seen = mid;
  cells_.insert(cells_.begin() + static_cast<std::ptrdiff_t>(target) + 1,
                std::move(fresh));
  ++stats_.reshard_splits;
  if (tracer_ != nullptr) {
    tracer_->instant(shard_lane(config_.shard_index),
                     "reshard split @u" + std::to_string(mid + 1), "serving",
                     clock_->now_us());
  }
  return true;
}

void FleetEngine::advance_to(double t_us) {
  const double before_us = clock_->now_us();
  const double after_us = clock_->sleep_until_us(t_us);
  stats_.depth_integral_us +=
      static_cast<double>(pending()) * (after_us - before_us);
}

ShardStats FleetEngine::take_stats() {
  stats_.instances.reserve(static_cast<std::size_t>(config_.instances));
  for (int k = 0; k < config_.instances; ++k) {
    const InstanceState& inst =
        dispatcher_.instances()[static_cast<std::size_t>(k)];
    InstanceStats is;
    is.instance = config_.first_instance + k;
    is.batches = inst.batches;
    is.requests = inst.requests;
    is.branch_switches = inst.switches;
    is.busy_us = inst.busy_us;
    stats_.instances.push_back(is);
  }
  if (tracer_ != nullptr && stats_.offered > 0) {
    tracer_->complete(
        shard_lane(config_.shard_index), "shard replay", "serving",
        first_arrival_us_,
        std::max(stats_.makespan_us - first_arrival_us_, 0.0),
        {{"requests", static_cast<double>(stats_.completed)},
         {"batches", static_cast<double>(stats_.batches)}});
  }
  return std::move(stats_);
}

ServingStats merge_shard_stats(std::vector<ShardStats> shards,
                               const ServiceModel& service,
                               double sla_bound_us, int total_instances,
                               int resumed_shards) {
  ServingStats stats;
  stats.sla_bound_us = sla_bound_us;
  stats.branch_completed.assign(
      static_cast<std::size_t>(service.num_branches()), 0);
  stats.resumed_shards = resumed_shards;
  const bool sketch_mode =
      !shards.empty() &&
      shards.front().latency_mode == LatencyMode::kSketch;
  stats.latency_mode =
      sketch_mode ? LatencyMode::kSketch : LatencyMode::kExact;
  std::size_t latency_total = 0;
  std::size_t wait_total = 0;
  std::size_t record_total = 0;
  std::size_t instance_total = 0;
  for (const ShardStats& shard : shards) {
    latency_total += shard.latencies.size();
    wait_total += shard.waits.size();
    record_total += shard.records.size();
    instance_total += shard.instances.size();
  }
  stats.records.reserve(record_total);
  QuantileSketch latency_sketch;
  QuantileSketch wait_sketch;
  // Exact-mode histograms are bound up front and fed from the same append
  // passes that build the merged streams — no extra traversal. The registry
  // snapshot is name-sorted, so binding order never shows in the export.
  obs::Histogram* latency_hist = nullptr;
  obs::Histogram* wait_hist = nullptr;
  static const std::vector<double> kLatencyBounds = {
      100,   200,   500,    1000,   2000,   5000,  10000,
      20000, 50000, 100000, 200000, 500000, 1e6};
  if (obs::metrics_collection() && !sketch_mode) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    latency_hist = &reg.histogram("serving.latency_us", kLatencyBounds);
    wait_hist = &reg.histogram("serving.queue_wait_us", kLatencyBounds);
  }
  // Appends one exact stream of every shard in shard order, freeing each
  // source as it is consumed.
  const auto merge_stream = [&shards](std::vector<double> ShardStats::*field,
                                      std::size_t total,
                                      obs::Histogram* hist) {
    std::vector<double> merged;
    merged.reserve(total);
    for (ShardStats& shard : shards) {
      std::vector<double>& source = shard.*field;
      if (hist != nullptr) {
        for (double v : source) hist->observe(v);
      }
      merged.insert(merged.end(), source.begin(), source.end());
      std::vector<double>().swap(source);
    }
    return merged;
  };
  double fill_sum = 0;
  double depth_integral_us = 0;
  double makespan_us = 0;
  bool first_sketch = true;
  for (ShardStats& shard : shards) {
    stats.offered += shard.offered;
    stats.completed += shard.completed;
    stats.batches += shard.batches;
    stats.sla_violations += shard.sla_violations;
    stats.scale_up_events += shard.scale_up_events;
    stats.scale_down_events += shard.scale_down_events;
    stats.reshard_splits += shard.reshard_splits;
    stats.fault_events += shard.fault_events;
    stats.recover_events += shard.recover_events;
    stats.max_queue_depth =
        std::max(stats.max_queue_depth, shard.max_queue_depth);
    fill_sum += shard.fill_sum;
    depth_integral_us += shard.depth_integral_us;
    makespan_us = std::max(makespan_us, shard.makespan_us);
    if (sketch_mode) {
      if (first_sketch) {
        latency_sketch = std::move(shard.latency_sketch);
        wait_sketch = std::move(shard.wait_sketch);
        first_sketch = false;
      } else {
        FCAD_CHECK_MSG(
            latency_sketch.merge(shard.latency_sketch).is_ok() &&
                wait_sketch.merge(shard.wait_sketch).is_ok(),
            "merge_shard_stats: shard sketches disagree on seed/alpha");
      }
    }
    for (std::size_t j = 0; j < shard.branch_completed.size(); ++j) {
      stats.branch_completed[j] += shard.branch_completed[j];
    }
    stats.records.insert(stats.records.end(),
                         std::make_move_iterator(shard.records.begin()),
                         std::make_move_iterator(shard.records.end()));
    std::vector<RequestRecord>().swap(shard.records);
  }

  stats.makespan_us = makespan_us;
  stats.throughput_rps =
      makespan_us > 0
          ? static_cast<double>(stats.completed) / (makespan_us * 1e-6)
          : 0;
  if (sketch_mode) {
    stats.latency = summarize(latency_sketch);
    stats.queue_wait = summarize(wait_sketch);
    stats.sketch_compactions =
        latency_sketch.compactions() + wait_sketch.compactions();
    stats.sketch_buckets = latency_sketch.buckets() + wait_sketch.buckets();
  } else {
    // One merged stream at a time: the latencies are summarized and freed
    // before the waits are built, so peak memory is the shard streams plus
    // one merged stream rather than plus both.
    stats.latency = summarize(
        merge_stream(&ShardStats::latencies, latency_total, latency_hist));
    stats.queue_wait =
        summarize(merge_stream(&ShardStats::waits, wait_total, wait_hist));
  }
  stats.mean_batch_fill =
      stats.batches > 0 ? fill_sum / static_cast<double>(stats.batches) : 0;
  stats.mean_queue_depth =
      makespan_us > 0 ? depth_integral_us / makespan_us : 0;
  stats.sla_violation_rate =
      stats.completed > 0
          ? static_cast<double>(stats.sla_violations) /
                static_cast<double>(stats.completed)
          : 0;
  stats.sla_met = stats.latency.p99 <= sla_bound_us;

  double busy_sum = 0;
  stats.instances.reserve(instance_total);
  for (const ShardStats& shard : shards) {
    for (const InstanceStats& shard_inst : shard.instances) {
      InstanceStats is = shard_inst;
      is.utilization = makespan_us > 0 ? is.busy_us / makespan_us : 0;
      busy_sum += is.utilization;
      stats.instances.push_back(is);
    }
  }
  stats.fleet_utilization = busy_sum / total_instances;

  // Registry export, fed exclusively from this single-threaded shard-index-
  // ordered merge so the exported numbers (histogram buckets included) are
  // bit-identical for any thread count. Totals are cheap and always on; the
  // per-request histogram fills only run under --metrics-out.
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.counter("serving.fleet.requests").add(stats.completed);
    reg.counter("serving.fleet.batches").add(stats.batches);
    reg.counter("serving.fleet.sla_violations").add(stats.sla_violations);
    reg.counter("serving.fleet.resumed_shards").add(stats.resumed_shards);
    reg.counter("serving.elastic.scale_up_events").add(stats.scale_up_events);
    reg.counter("serving.elastic.scale_down_events")
        .add(stats.scale_down_events);
    reg.counter("serving.elastic.reshard_splits").add(stats.reshard_splits);
    reg.counter("serving.elastic.fault_events").add(stats.fault_events);
    reg.counter("serving.elastic.recover_events").add(stats.recover_events);
    if (sketch_mode) {
      // Sketch mode replaces the per-request histograms (which would defeat
      // the bounded-memory point) with sketch health counters.
      reg.counter("serving.sketch.observations")
          .add(latency_sketch.count() + wait_sketch.count());
      reg.counter("serving.sketch.compactions").add(stats.sketch_compactions);
    }
    if (obs::metrics_collection()) {
      if (sketch_mode) {
        reg.gauge("serving.sketch.buckets").set(stats.sketch_buckets);
      }
      reg.gauge("serving.fleet.throughput_rps").set(stats.throughput_rps);
      reg.gauge("serving.fleet.utilization").set(stats.fleet_utilization);
      reg.gauge("serving.fleet.mean_batch_fill").set(stats.mean_batch_fill);
    }
  }
  return stats;
}

}  // namespace fcad::serving
