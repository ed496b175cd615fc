#include "obs/trace.hpp"

#include <cstdio>

#include "util/json.hpp"
#include "util/log.hpp"

namespace fcad::obs {
namespace {

std::atomic<Tracer*> g_tracer{nullptr};

const char* phase_tag(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kComplete: return "X";
    case TraceEvent::Phase::kInstant: return "i";
    case TraceEvent::Phase::kCounter: return "C";
  }
  return "?";
}

void event_json(JsonWriter& json, const LaneId& lane,
                const TraceEvent& event) {
  json.begin_object();
  json.key("name").value(event.name);
  if (!event.cat.empty()) json.key("cat").value(event.cat);
  json.key("ph").value(phase_tag(event.phase));
  json.key("ts").value(event.ts_us);
  if (event.phase == TraceEvent::Phase::kComplete) {
    json.key("dur").value(event.dur_us);
  }
  if (event.phase == TraceEvent::Phase::kInstant) {
    json.key("s").value("t");
  }
  json.key("pid").value(lane.pid);
  json.key("tid").value(lane.tid);
  if (event.phase == TraceEvent::Phase::kCounter) {
    json.key("args").begin_object();
    json.key("value").value(event.value);
    json.end_object();
  } else if (!event.args.empty()) {
    json.key("args").begin_object();
    for (const auto& [key, value] : event.args) {
      json.key(key).value(value);
    }
    json.end_object();
  }
  json.end_object();
}

void metadata_json(JsonWriter& json, const LaneId& lane, const char* name,
                   const std::string& value) {
  json.begin_object();
  json.key("name").value(name);
  json.key("ph").value("M");
  json.key("pid").value(lane.pid);
  json.key("tid").value(lane.tid);
  json.key("args").begin_object();
  json.key("name").value(value);
  json.end_object();
  json.end_object();
}

}  // namespace

Tracer::Tracer() : start_(std::chrono::steady_clock::now()) {}

Tracer::Lane& Tracer::lane_ref(LaneId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = lanes_[id];
  if (!slot) slot = std::make_unique<Lane>();
  return *slot;
}

void Tracer::name_lane(LaneId lane, const std::string& process,
                       const std::string& thread) {
  Lane& l = lane_ref(lane);
  const std::lock_guard<std::mutex> lock(l.mutex);
  if (l.process.empty()) l.process = process;
  if (l.thread.empty()) l.thread = thread;
}

void Tracer::append(LaneId id, TraceEvent event) {
  Lane& lane = lane_ref(id);
  const std::lock_guard<std::mutex> lock(lane.mutex);
  if (static_cast<std::int64_t>(lane.events.size()) >= kLaneCapacity) {
    if (lane.dropped == 0) {
      FCAD_LOG(kWarn)
              .field("pid", id.pid)
              .field("tid", id.tid)
              .field("capacity", kLaneCapacity)
          << "obs: trace lane full; dropping further events";
    }
    ++lane.dropped;
    return;
  }
  lane.events.push_back(std::move(event));
}

void Tracer::complete(LaneId lane, std::string name, std::string cat,
                      double ts_us, double dur_us,
                      std::vector<std::pair<std::string, double>> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.args = std::move(args);
  append(lane, std::move(event));
}

void Tracer::instant(LaneId lane, std::string name, std::string cat,
                     double ts_us) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.ts_us = ts_us;
  append(lane, std::move(event));
}

void Tracer::counter(LaneId lane, std::string name, double ts_us,
                     double value) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kCounter;
  event.name = std::move(name);
  event.ts_us = ts_us;
  event.value = value;
  append(lane, std::move(event));
}

double Tracer::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

std::int64_t Tracer::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t n = 0;
  for (const auto& [id, lane] : lanes_) {
    const std::lock_guard<std::mutex> lane_lock(lane->mutex);
    n += static_cast<std::int64_t>(lane->events.size());
  }
  return n;
}

std::int64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t n = 0;
  for (const auto& [id, lane] : lanes_) {
    const std::lock_guard<std::mutex> lane_lock(lane->mutex);
    n += lane->dropped;
  }
  return n;
}

std::string Tracer::to_json(int pid_filter) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  for (const auto& [id, lane] : lanes_) {
    if (pid_filter >= 0 && id.pid != pid_filter) continue;
    const std::lock_guard<std::mutex> lane_lock(lane->mutex);
    if (!lane->process.empty()) {
      metadata_json(json, id, "process_name", lane->process);
    }
    if (!lane->thread.empty()) {
      metadata_json(json, id, "thread_name", lane->thread);
    }
    for (const TraceEvent& event : lane->events) {
      event_json(json, id, event);
    }
    if (lane->dropped > 0) {
      TraceEvent note;
      note.phase = TraceEvent::Phase::kInstant;
      note.name = "dropped " + std::to_string(lane->dropped) +
                  " event(s) beyond lane capacity";
      note.cat = "obs";
      note.ts_us =
          lane->events.empty() ? 0 : lane->events.back().ts_us;
      event_json(json, id, note);
    }
  }
  json.end_array();
  json.end_object();
  return json.str();
}

bool Tracer::write_file(const std::string& path) const {
  const std::string text = to_json();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
      std::fputc('\n', out) != EOF;
  return std::fclose(out) == 0 && ok;
}

void install_tracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

Tracer* tracer() { return g_tracer.load(std::memory_order_acquire); }

}  // namespace fcad::obs
