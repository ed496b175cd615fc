// Serving statistics (serving step 4): exact tail-latency percentiles,
// throughput, utilization, queue depth, and SLA-violation accounting over a
// completed fleet simulation, plus table/CSV rendering and the text
// serialization that lets kTraffic outcomes ride the artifact cache.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serving/sketch.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace fcad::serving {

/// Exact nearest-rank percentile: the smallest sample x such that at least
/// pct% of the samples are <= x (sorted[ceil(pct/100 * N)] 1-indexed).
/// `pct` must be in (0, 100]; requires a non-empty sample set.
double percentile(std::vector<double> samples, double pct);

struct LatencySummary {
  std::int64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Summarizes a (possibly empty) latency sample set; all zeros when empty.
LatencySummary summarize(std::vector<double> samples);

/// Summarizes a quantile sketch: count/mean/max are exact, p50/p95/p99 are
/// within the sketch's relative-error bound of the exact nearest-rank
/// values. All zeros on an empty sketch.
LatencySummary summarize(const QuantileSketch& sketch);

struct InstanceStats {
  int instance = 0;
  std::int64_t batches = 0;
  std::int64_t requests = 0;
  std::int64_t branch_switches = 0;  ///< passes that paid the switch penalty
  double busy_us = 0;
  double utilization = 0;  ///< busy_us / makespan
};

/// Per-request completion record (kept when FleetOptions::keep_records).
struct RequestRecord {
  std::int64_t id = 0;
  int user = 0;
  int branch = 0;
  int instance = 0;
  double arrival_us = 0;
  double start_us = 0;   ///< batch dispatch time
  double finish_us = 0;  ///< batch completion time
};

struct ServingStats {
  std::int64_t offered = 0;    ///< requests in the workload
  std::int64_t completed = 0;  ///< requests that finished (== offered)
  double makespan_us = 0;      ///< last completion time
  double throughput_rps = 0;   ///< completed / makespan
  LatencySummary latency;      ///< arrival -> completion, microseconds
  LatencySummary queue_wait;   ///< arrival -> dispatch, microseconds

  std::int64_t batches = 0;
  double mean_batch_fill = 0;   ///< mean occupancy / capacity over batches
  double mean_queue_depth = 0;  ///< time-averaged pending requests
  int max_queue_depth = 0;

  double sla_bound_us = 0;          ///< latency bound the run was scored at
  std::int64_t sla_violations = 0;  ///< requests with latency > bound
  double sla_violation_rate = 0;
  bool sla_met = false;  ///< p99 latency within the bound

  double fleet_utilization = 0;  ///< mean instance utilization
  /// Elastic-policy events summed over shards (all zero on a static fleet):
  /// autoscaler joins/leaves, cell splits, and fault/recover transitions.
  std::int64_t scale_up_events = 0;
  std::int64_t scale_down_events = 0;
  std::int64_t reshard_splits = 0;
  std::int64_t fault_events = 0;
  std::int64_t recover_events = 0;
  std::vector<InstanceStats> instances;
  /// Requests completed per decoder branch (index = branch id).
  std::vector<std::int64_t> branch_completed;
  std::vector<RequestRecord> records;  ///< empty unless requested

  /// Shards reloaded from a checkpoint instead of simulated (diagnostic of
  /// the producing run — like cache counters, it is not serialized).
  int resumed_shards = 0;

  /// How the latency/queue-wait summaries were computed. kSketch marks them
  /// as sketch estimates (relative error bounded by the sketch alpha) and
  /// fills the two diagnostics below; in the default kExact mode nothing
  /// about the serialized output changes.
  LatencyMode latency_mode = LatencyMode::kExact;
  std::int64_t sketch_compactions = 0;  ///< folds across both sketches
  int sketch_buckets = 0;               ///< bucket spans across both sketches
};

/// Renders an aligned summary table (latency percentiles, throughput, SLA,
/// per-instance utilization) via util/table.
std::string serving_report(const ServingStats& stats);

/// Column names for `serving_csv_row`, prefixed by caller-defined key
/// columns (scenario labels, sweep coordinates, ...).
std::vector<std::string> serving_csv_header(std::vector<std::string> keys);

/// One CSV row of deterministic stats fields, appended after `keys`.
std::vector<std::string> serving_csv_row(std::vector<std::string> keys,
                                         const ServingStats& stats);

/// Appends the deterministic stats fields as one JSON object (the --json
/// twin of serving_csv_row; consumed by the CLIs' machine-readable output).
void serving_stats_json(JsonWriter& json, const ServingStats& stats);

/// Serializes every stats field (doubles bit-exact via %.17g, including the
/// per-instance rows, per-branch counters, and any retained request
/// records) as a line-keyed text block between "serving_stats" and
/// "serving_stats_end" markers. Embedded whole in search-artifact v3 files,
/// which is what lets kTraffic outcomes round-trip through the spec-hash
/// artifact cache. `resumed_shards` is a diagnostic of the producing run
/// and reloads as zero.
void serving_stats_to_text(std::ostream& os, const ServingStats& stats);

/// Parses the block written by serving_stats_to_text, consuming through the
/// terminal "serving_stats_end" marker. A truncated or torn block (missing
/// marker, short instance/record list) is rejected, never silently accepted
/// as a shorter-but-valid stats object. Line-keyed outer parsers (the
/// search-artifact reader) that already consumed the "serving_stats" header
/// line pass `header_consumed`.
StatusOr<ServingStats> serving_stats_from_text(std::istream& in,
                                               bool header_consumed = false);

}  // namespace fcad::serving
