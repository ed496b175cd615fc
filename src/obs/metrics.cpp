#include "obs/metrics.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/status.hpp"

namespace fcad::obs {
namespace {

std::atomic<bool> g_collection{false};

}  // namespace

HistogramSnapshot merge(const HistogramSnapshot& a,
                        const HistogramSnapshot& b) {
  FCAD_CHECK_MSG(a.bounds == b.bounds,
                 "obs: merging histograms with different bucket bounds");
  FCAD_CHECK(a.counts.size() == b.counts.size());
  HistogramSnapshot out = a;
  for (std::size_t i = 0; i < out.counts.size(); ++i) {
    out.counts[i] += b.counts[i];
  }
  out.total += b.total;
  out.sum += b.sum;
  return out;
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1) {
  FCAD_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "obs: histogram bounds must be ascending");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto slot = static_cast<std::size_t>(it - bounds_.begin());
  if (slot == bounds_.size() &&
      !overflow_warned_.exchange(true, std::memory_order_relaxed)) {
    FCAD_LOG(kWarn).field("histogram", name_).field("value", v)
        << "obs: sample beyond the last bucket bound; counting as overflow";
  }
  counts_[slot].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS add: the sum is diagnostic (mean estimation); bucket counts
  // are the deterministic payload.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    out.counts.push_back(c.load(std::memory_order_relaxed));
  }
  out.total = total_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(name, bounds);
  } else if (slot->bounds() != bounds) {
    FCAD_LOG(kWarn).field("histogram", name)
        << "obs: histogram re-registered with different bounds; keeping "
           "the original buckets";
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->snapshot());
  }
  return out;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void set_metrics_collection(bool enabled) {
  g_collection.store(enabled, std::memory_order_relaxed);
}

bool metrics_collection() {
  return g_collection.load(std::memory_order_relaxed);
}

void metrics_json(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    json.key(name).begin_object();
    json.key("bounds").begin_array();
    for (double b : h.bounds) json.value(b);
    json.end_array();
    json.key("counts").begin_array();
    for (std::int64_t c : h.counts) json.value(c);
    json.end_array();
    json.key("total").value(h.total);
    json.key("sum").value(h.sum);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

bool write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(1);
  json.key("metrics");
  metrics_json(json, snapshot);
  json.end_object();
  return json.write_file(path);
}

}  // namespace fcad::obs
