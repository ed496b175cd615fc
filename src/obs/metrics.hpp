// obs::MetricsRegistry — named counters, gauges, and fixed-bucket histograms
// for the DSE engine and the serving fleet.
//
// Design rules that keep the engine's bit-reproducibility intact:
//  - Recording a metric never influences control flow anywhere in the
//    engine; instrumentation is write-only from the instrumented code's
//    point of view.
//  - Counters are atomic and commutative, so totals are deterministic no
//    matter which thread bumps them (per-thread *splits* of a total may
//    still be timing-dependent — e.g. cache hit vs miss — exactly as the
//    pre-existing ad-hoc counters were).
//  - Histograms hold integer bucket counts behind fixed bounds chosen at
//    creation; cross-thread accumulation is commutative. Call sites that
//    need byte-identical exports for any thread count (the fleet replay)
//    fill them from the single-threaded shard-index-ordered merge loop.
//  - snapshot() renders name-sorted, so exports never depend on metric
//    registration order.
//
// Cheap-when-idle: counter/gauge updates are single relaxed atomics and are
// always on (several existing accessors are backed by them). Bulk recording
// (per-request histogram fills, per-round gauge refreshes) is gated behind
// the process-wide collection flag, which --metrics-out flips on; with the
// flag off those code paths skip the work entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace fcad::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written scalar (utilization, best fitness, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Point-in-time view of one histogram: `counts[i]` samples fell in
/// (bounds[i-1], bounds[i]]; the trailing slot counts overflow beyond the
/// last bound. Merging is bucket-wise addition — associative and
/// commutative, pinned by obs_test.
struct HistogramSnapshot {
  std::vector<double> bounds;        ///< ascending upper bucket bounds
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1 slots
  std::int64_t total = 0;
  double sum = 0;
};

/// Bucket-wise sum of two snapshots over identical bounds (FCAD_CHECKed).
HistogramSnapshot merge(const HistogramSnapshot& a,
                        const HistogramSnapshot& b);

/// Fixed-bucket histogram. Samples beyond the last bound land in the
/// overflow slot; the first such sample logs one kWarn through util::log.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  void observe(double v);
  const std::vector<double>& bounds() const { return bounds_; }
  HistogramSnapshot snapshot() const;

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  ///< bounds + overflow
  std::atomic<std::int64_t> total_{0};
  std::atomic<double> sum_{0};
  std::atomic<bool> overflow_warned_{false};
};

/// Name-sorted point-in-time view of a whole registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Named metric store. Lookup interns the metric on first use and returns a
/// stable reference — hot paths resolve once and bump the reference.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First use fixes the bucket bounds; later calls return the existing
  /// histogram (a bounds mismatch logs kWarn and keeps the original).
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds);

  MetricsSnapshot snapshot() const;
  /// Drops every metric (tests and CLI reruns); outstanding references from
  /// earlier lookups become dangling, so only reset between runs.
  void reset();

  /// Process-wide registry — the single home for engine counters
  /// (fitness-cache and artifact-cache hits, resumed shards, ...).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide bulk-collection switch (default off). Guards only the
/// *expensive* recording paths (per-request histogram fills); the always-on
/// counters ignore it.
void set_metrics_collection(bool enabled);
bool metrics_collection();

/// Renders `snapshot` into `json` as one object:
/// {"counters":{...},"gauges":{...},"histograms":{name:{bounds,counts,
/// total,sum}}}.
void metrics_json(JsonWriter& json, const MetricsSnapshot& snapshot);

/// Writes {"schema_version":1, "counters":..., ...} to `path`; false on I/O
/// error.
bool write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot);

}  // namespace fcad::obs
