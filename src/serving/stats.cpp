#include "serving/stats.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/format.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace fcad::serving {

namespace {

/// 0-based index of the nearest-rank pick: ceil(pct/100 * n), 1-indexed.
std::size_t nearest_rank_index(std::size_t n, double pct) {
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::max<std::size_t>(rank, 1) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
  FCAD_CHECK_MSG(!samples.empty(), "percentile: empty sample set");
  FCAD_CHECK_MSG(pct > 0 && pct <= 100, "percentile: pct out of (0, 100]");
  // One order statistic, so nth_element's O(n) beats a full sort.
  const std::size_t index = nearest_rank_index(samples.size(), pct);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  s.count = static_cast<std::int64_t>(samples.size());
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  // Chained selection instead of a full sort: each nth_element leaves every
  // larger order statistic in the suffix from its rank on, so the next
  // (higher) rank is selected from that suffix only — half the samples for
  // p95, a twentieth for p99 and the max. The picks are the sorted order's,
  // value for value.
  const std::size_t n = samples.size();
  const std::size_t i50 = nearest_rank_index(n, 50);
  const std::size_t i95 = nearest_rank_index(n, 95);
  const std::size_t i99 = nearest_rank_index(n, 99);
  const auto at = [&samples](std::size_t i) {
    return samples.begin() + static_cast<std::ptrdiff_t>(i);
  };
  // Each pick is read before the next selection reorders its suffix.
  std::nth_element(samples.begin(), at(i50), samples.end());
  s.p50 = samples[i50];
  std::nth_element(at(i50), at(i95), samples.end());
  s.p95 = samples[i95];
  std::nth_element(at(i95), at(i99), samples.end());
  s.p99 = samples[i99];
  s.max = *std::max_element(at(i99), samples.end());
  return s;
}

LatencySummary summarize(const QuantileSketch& sketch) {
  LatencySummary s;
  if (sketch.count() == 0) return s;
  s.count = sketch.count();
  s.mean = sketch.sum() / static_cast<double>(sketch.count());
  s.p50 = sketch.quantile(50);
  s.p95 = sketch.quantile(95);
  s.p99 = sketch.quantile(99);
  s.max = sketch.max();
  return s;
}

namespace {

std::string ms(double us) { return format_fixed(us * 1e-3, 3) + " ms"; }

}  // namespace

std::string serving_report(const ServingStats& stats) {
  TablePrinter t({"Metric", "Value"});
  t.add_row({"requests offered", format_int(stats.offered)});
  t.add_row({"requests completed", format_int(stats.completed)});
  t.add_row({"makespan", ms(stats.makespan_us)});
  t.add_row({"throughput", format_fixed(stats.throughput_rps, 1) + " req/s"});
  t.add_separator();
  t.add_row({"latency mean", ms(stats.latency.mean)});
  t.add_row({"latency p50", ms(stats.latency.p50)});
  t.add_row({"latency p95", ms(stats.latency.p95)});
  t.add_row({"latency p99", ms(stats.latency.p99)});
  t.add_row({"latency max", ms(stats.latency.max)});
  t.add_row({"queue wait p99", ms(stats.queue_wait.p99)});
  if (stats.latency_mode == LatencyMode::kSketch) {
    t.add_row({"latency accounting",
               "sketch (" + std::to_string(stats.sketch_buckets) +
                   " buckets, " + format_int(stats.sketch_compactions) +
                   " compactions)"});
  }
  t.add_separator();
  t.add_row({"batches dispatched", format_int(stats.batches)});
  for (std::size_t j = 0; j < stats.branch_completed.size(); ++j) {
    t.add_row({"  branch " + std::to_string(j) + " completed",
               format_int(stats.branch_completed[j])});
  }
  t.add_row({"mean batch fill", format_percent(stats.mean_batch_fill, 1)});
  t.add_row({"mean queue depth", format_fixed(stats.mean_queue_depth, 2)});
  t.add_row({"max queue depth", format_int(stats.max_queue_depth)});
  t.add_separator();
  t.add_row({"SLA bound", ms(stats.sla_bound_us)});
  t.add_row({"SLA violations",
             format_int(stats.sla_violations) + " (" +
                 format_percent(stats.sla_violation_rate, 2) + ")"});
  t.add_row({"SLA met (p99 <= bound)", stats.sla_met ? "yes" : "no"});
  t.add_separator();
  const bool elastic = stats.scale_up_events > 0 ||
                       stats.scale_down_events > 0 ||
                       stats.reshard_splits > 0 || stats.fault_events > 0 ||
                       stats.recover_events > 0;
  if (elastic) {
    t.add_row({"scale up / down events",
               format_int(stats.scale_up_events) + " / " +
                   format_int(stats.scale_down_events)});
    t.add_row({"reshard splits", format_int(stats.reshard_splits)});
    t.add_row({"faults / recoveries",
               format_int(stats.fault_events) + " / " +
                   format_int(stats.recover_events)});
    t.add_separator();
  }
  t.add_row({"fleet utilization", format_percent(stats.fleet_utilization, 1)});
  for (const auto& inst : stats.instances) {
    t.add_row({"  instance " + std::to_string(inst.instance),
               format_percent(inst.utilization, 1) + " busy, " +
                   format_int(inst.batches) + " batches, " +
                   format_int(inst.branch_switches) + " switches"});
  }
  return t.to_string();
}

std::vector<std::string> serving_csv_header(std::vector<std::string> keys) {
  for (const char* col :
       {"offered", "completed", "throughput_rps", "latency_mean_us",
        "latency_p50_us", "latency_p95_us", "latency_p99_us", "latency_max_us",
        "queue_wait_p99_us", "batches", "mean_batch_fill", "mean_queue_depth",
        "max_queue_depth", "sla_bound_us", "sla_violation_rate", "sla_met",
        "fleet_utilization", "scale_up_events", "scale_down_events",
        "reshard_splits", "fault_events", "recover_events"}) {
    keys.emplace_back(col);
  }
  return keys;
}

std::vector<std::string> serving_csv_row(std::vector<std::string> keys,
                                         const ServingStats& stats) {
  const auto num = [](double v) { return format_fixed(v, 4); };
  keys.push_back(std::to_string(stats.offered));
  keys.push_back(std::to_string(stats.completed));
  keys.push_back(num(stats.throughput_rps));
  keys.push_back(num(stats.latency.mean));
  keys.push_back(num(stats.latency.p50));
  keys.push_back(num(stats.latency.p95));
  keys.push_back(num(stats.latency.p99));
  keys.push_back(num(stats.latency.max));
  keys.push_back(num(stats.queue_wait.p99));
  keys.push_back(std::to_string(stats.batches));
  keys.push_back(num(stats.mean_batch_fill));
  keys.push_back(num(stats.mean_queue_depth));
  keys.push_back(std::to_string(stats.max_queue_depth));
  keys.push_back(num(stats.sla_bound_us));
  keys.push_back(num(stats.sla_violation_rate));
  keys.push_back(stats.sla_met ? "1" : "0");
  keys.push_back(num(stats.fleet_utilization));
  keys.push_back(std::to_string(stats.scale_up_events));
  keys.push_back(std::to_string(stats.scale_down_events));
  keys.push_back(std::to_string(stats.reshard_splits));
  keys.push_back(std::to_string(stats.fault_events));
  keys.push_back(std::to_string(stats.recover_events));
  return keys;
}

void serving_stats_json(JsonWriter& json, const ServingStats& stats) {
  json.begin_object();
  json.key("offered").value(stats.offered);
  json.key("completed").value(stats.completed);
  json.key("throughput_rps").value(stats.throughput_rps);
  json.key("mean_us").value(stats.latency.mean);
  json.key("p50_us").value(stats.latency.p50);
  json.key("p95_us").value(stats.latency.p95);
  json.key("p99_us").value(stats.latency.p99);
  json.key("max_us").value(stats.latency.max);
  json.key("queue_wait_p99_us").value(stats.queue_wait.p99);
  json.key("batches").value(stats.batches);
  json.key("mean_batch_fill").value(stats.mean_batch_fill);
  json.key("sla_bound_us").value(stats.sla_bound_us);
  json.key("sla_met").value(stats.sla_met);
  json.key("sla_violation_rate").value(stats.sla_violation_rate);
  json.key("fleet_utilization").value(stats.fleet_utilization);
  json.key("scale_up_events").value(stats.scale_up_events);
  json.key("scale_down_events").value(stats.scale_down_events);
  json.key("reshard_splits").value(stats.reshard_splits);
  json.key("fault_events").value(stats.fault_events);
  json.key("recover_events").value(stats.recover_events);
  // Emitted only in sketch mode: exact-mode JSON must stay byte-identical
  // to pre-sketch output (the CI 1M replay diffs it literally).
  if (stats.latency_mode == LatencyMode::kSketch) {
    json.key("latency_mode").value(to_string(stats.latency_mode));
    json.key("sketch_compactions").value(stats.sketch_compactions);
    json.key("sketch_buckets").value(stats.sketch_buckets);
  }
  json.key("branch_completed").begin_array();
  for (std::int64_t n : stats.branch_completed) json.value(n);
  json.end_array();
  json.end_object();
}

namespace {

void write_summary(std::ostream& os, const char* key,
                   const LatencySummary& s) {
  os << key << " " << s.count << " " << format_exact(s.mean) << " "
     << format_exact(s.p50) << " " << format_exact(s.p95) << " "
     << format_exact(s.p99) << " " << format_exact(s.max) << "\n";
}

bool read_summary(std::istringstream& fields, LatencySummary& s) {
  fields >> s.count >> s.mean >> s.p50 >> s.p95 >> s.p99 >> s.max;
  return !fields.fail();
}

Status truncated(const std::string& what) {
  return Status::invalid_argument("serving stats: truncated " + what +
                                  " list");
}

void write_instance_line(std::ostream& os, const InstanceStats& inst) {
  os << "instance " << inst.instance << " " << inst.batches << " "
     << inst.requests << " " << inst.branch_switches << " "
     << format_exact(inst.busy_us) << " " << format_exact(inst.utilization)
     << "\n";
}

bool parse_instance_line(const std::string& line, InstanceStats& inst) {
  std::istringstream fields(line);
  std::string key;
  fields >> key >> inst.instance >> inst.batches >> inst.requests >>
      inst.branch_switches >> inst.busy_us >> inst.utilization;
  return key == "instance" && !fields.fail();
}

void write_record_line(std::ostream& os, const RequestRecord& rec) {
  os << "record " << rec.id << " " << rec.user << " " << rec.branch << " "
     << rec.instance << " " << format_exact(rec.arrival_us) << " "
     << format_exact(rec.start_us) << " " << format_exact(rec.finish_us)
     << "\n";
}

bool parse_record_line(const std::string& line, RequestRecord& rec) {
  std::istringstream fields(line);
  std::string key;
  fields >> key >> rec.id >> rec.user >> rec.branch >> rec.instance >>
      rec.arrival_us >> rec.start_us >> rec.finish_us;
  return key == "record" && !fields.fail();
}

}  // namespace

void serving_stats_to_text(std::ostream& os, const ServingStats& stats) {
  os << "serving_stats\n";
  os << "offered " << stats.offered << "\n";
  os << "completed " << stats.completed << "\n";
  os << "makespan_us " << format_exact(stats.makespan_us) << "\n";
  os << "throughput_rps " << format_exact(stats.throughput_rps) << "\n";
  write_summary(os, "latency", stats.latency);
  write_summary(os, "queue_wait", stats.queue_wait);
  os << "batches " << stats.batches << "\n";
  os << "mean_batch_fill " << format_exact(stats.mean_batch_fill) << "\n";
  os << "mean_queue_depth " << format_exact(stats.mean_queue_depth) << "\n";
  os << "max_queue_depth " << stats.max_queue_depth << "\n";
  os << "sla_bound_us " << format_exact(stats.sla_bound_us) << "\n";
  os << "sla_violations " << stats.sla_violations << "\n";
  os << "sla_violation_rate " << format_exact(stats.sla_violation_rate)
     << "\n";
  os << "sla_met " << (stats.sla_met ? 1 : 0) << "\n";
  os << "fleet_utilization " << format_exact(stats.fleet_utilization) << "\n";
  os << "scale_up_events " << stats.scale_up_events << "\n";
  os << "scale_down_events " << stats.scale_down_events << "\n";
  os << "reshard_splits " << stats.reshard_splits << "\n";
  os << "fault_events " << stats.fault_events << "\n";
  os << "recover_events " << stats.recover_events << "\n";
  // Written only in sketch mode so the default exact-mode block stays
  // byte-identical to every previously produced artifact.
  if (stats.latency_mode == LatencyMode::kSketch) {
    os << "latency_mode " << to_string(stats.latency_mode) << "\n";
    os << "sketch_compactions " << stats.sketch_compactions << "\n";
    os << "sketch_buckets " << stats.sketch_buckets << "\n";
  }
  os << "branch_completed " << stats.branch_completed.size();
  for (std::int64_t n : stats.branch_completed) os << " " << n;
  os << "\n";
  os << "instances " << stats.instances.size() << "\n";
  for (const InstanceStats& inst : stats.instances) {
    write_instance_line(os, inst);
  }
  os << "records " << stats.records.size() << "\n";
  for (const RequestRecord& rec : stats.records) {
    write_record_line(os, rec);
  }
  os << "serving_stats_end\n";
}

StatusOr<ServingStats> serving_stats_from_text(std::istream& in,
                                               bool header_consumed) {
  std::string line;
  if (!header_consumed) {
    // Skip blank lines, then require the block header.
    while (std::getline(in, line) && line.empty()) {
    }
    if (line != "serving_stats") {
      return Status::invalid_argument(
          "serving stats: missing 'serving_stats' header");
    }
  }

  ServingStats stats;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "serving_stats_end") {
      saw_end = true;
      break;
    }
    if (key == "latency" || key == "queue_wait") {
      LatencySummary& target =
          key == "latency" ? stats.latency : stats.queue_wait;
      if (!read_summary(fields, target)) {
        return Status::invalid_argument("serving stats: malformed " + key +
                                        " line");
      }
      continue;
    }
    if (key == "offered") {
      fields >> stats.offered;
    } else if (key == "completed") {
      fields >> stats.completed;
    } else if (key == "makespan_us") {
      fields >> stats.makespan_us;
    } else if (key == "throughput_rps") {
      fields >> stats.throughput_rps;
    } else if (key == "batches") {
      fields >> stats.batches;
    } else if (key == "mean_batch_fill") {
      fields >> stats.mean_batch_fill;
    } else if (key == "mean_queue_depth") {
      fields >> stats.mean_queue_depth;
    } else if (key == "max_queue_depth") {
      fields >> stats.max_queue_depth;
    } else if (key == "sla_bound_us") {
      fields >> stats.sla_bound_us;
    } else if (key == "sla_violations") {
      fields >> stats.sla_violations;
    } else if (key == "sla_violation_rate") {
      fields >> stats.sla_violation_rate;
    } else if (key == "sla_met") {
      int met = 0;
      fields >> met;
      stats.sla_met = met == 1;
    } else if (key == "fleet_utilization") {
      fields >> stats.fleet_utilization;
    } else if (key == "scale_up_events") {
      fields >> stats.scale_up_events;
    } else if (key == "scale_down_events") {
      fields >> stats.scale_down_events;
    } else if (key == "reshard_splits") {
      fields >> stats.reshard_splits;
    } else if (key == "fault_events") {
      fields >> stats.fault_events;
    } else if (key == "recover_events") {
      fields >> stats.recover_events;
    } else if (key == "latency_mode") {
      std::string name;
      fields >> name;
      auto mode = latency_mode_by_name(name);
      if (!mode.is_ok()) {
        return Status::invalid_argument(
            "serving stats: unknown latency_mode '" + name + "'");
      }
      stats.latency_mode = mode.value();
    } else if (key == "sketch_compactions") {
      fields >> stats.sketch_compactions;
    } else if (key == "sketch_buckets") {
      fields >> stats.sketch_buckets;
    } else if (key == "branch_completed") {
      std::size_t n = 0;
      fields >> n;
      for (std::size_t j = 0; j < n && !fields.fail(); ++j) {
        std::int64_t count = 0;
        fields >> count;
        stats.branch_completed.push_back(count);
      }
    } else if (key == "instances") {
      std::size_t n = 0;
      fields >> n;
      if (fields.fail()) {
        return Status::invalid_argument(
            "serving stats: malformed instances line");
      }
      for (std::size_t i = 0; i < n; ++i) {
        InstanceStats inst;
        if (!std::getline(in, line) || !parse_instance_line(line, inst)) {
          return truncated("instance");
        }
        stats.instances.push_back(inst);
      }
      continue;
    } else if (key == "records") {
      std::size_t n = 0;
      fields >> n;
      if (fields.fail()) {
        return Status::invalid_argument(
            "serving stats: malformed records line");
      }
      for (std::size_t i = 0; i < n; ++i) {
        RequestRecord rec;
        if (!std::getline(in, line) || !parse_record_line(line, rec)) {
          return truncated("record");
        }
        stats.records.push_back(rec);
      }
      continue;
    } else {
      return Status::invalid_argument("serving stats: unknown field '" + key +
                                      "'");
    }
    if (fields.fail()) {
      return Status::invalid_argument("serving stats: malformed " + key +
                                      " line");
    }
  }
  if (!saw_end) {
    return Status::invalid_argument(
        "serving stats: truncated (missing serving_stats_end marker)");
  }
  return stats;
}

}  // namespace fcad::serving
