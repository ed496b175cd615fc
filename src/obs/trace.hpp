// obs::Tracer — span timelines in the Chrome/Perfetto `trace_event` JSON
// format (load the file at https://ui.perfetto.dev or chrome://tracing).
//
// Two time domains share one file, separated by process id:
//  - Serving lanes (kServingPid) carry *virtual simulation time*: the
//    fleet's event loops already advance an exact microsecond clock, which
//    maps 1:1 onto trace_event's µs `ts`. Because each shard/instance lane
//    is appended by exactly one event-loop and timestamps are simulated,
//    the serving timeline is identical for any thread count.
//  - DSE lanes (kDsePid / kPoolPid) carry wall-clock µs since tracer
//    construction: pipeline stages, strategy rounds, fitness evaluations,
//    artifact-cache probes, and thread-pool task execution.
//
// Determinism contract: tracing is write-only — no engine control flow ever
// reads the tracer, so results are bit-identical with tracing on or off
// (pinned by parallel_determinism_test). Zero-overhead-when-disabled: the
// ambient tracer is a single atomic pointer, nullptr by default; every
// instrumentation site loads it once and skips all work on null.
//
// Bounded memory: each lane keeps at most `kLaneCapacity` events; later
// events are counted as dropped (deterministically, in append order) and
// the export annotates the lane. A million-request replay therefore
// produces a Perfetto-loadable file of bounded size.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fcad::obs {

/// Process rows grouping related lanes in the trace viewer.
inline constexpr int kServingPid = 1;  ///< virtual simulation time
inline constexpr int kDsePid = 2;      ///< wall clock: pipeline + search
inline constexpr int kPoolPid = 3;     ///< wall clock: thread-pool tasks

/// One horizontal track: `pid` selects the process row, `tid` orders lanes
/// inside it. Lane identity is structural (shard index, global instance id,
/// pool worker index), never a runtime thread id — so traces are comparable
/// across runs and thread counts.
struct LaneId {
  int pid = 0;
  int tid = 0;
  bool operator<(const LaneId& other) const {
    return pid != other.pid ? pid < other.pid : tid < other.tid;
  }
};

struct TraceEvent {
  enum class Phase { kComplete, kInstant, kCounter };
  Phase phase = Phase::kComplete;
  std::string name;
  std::string cat;
  double ts_us = 0;
  double dur_us = 0;  ///< kComplete only
  double value = 0;   ///< kCounter only
  /// Small numeric payload rendered as the event's `args` object.
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  /// Events kept per lane before deterministic dropping kicks in.
  static constexpr std::int64_t kLaneCapacity = 20000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Names a lane's process/thread rows (idempotent; first caller wins).
  void name_lane(LaneId lane, const std::string& process,
                 const std::string& thread);

  void complete(LaneId lane, std::string name, std::string cat, double ts_us,
                double dur_us,
                std::vector<std::pair<std::string, double>> args = {});
  void instant(LaneId lane, std::string name, std::string cat, double ts_us);
  void counter(LaneId lane, std::string name, double ts_us, double value);

  /// Wall-clock µs since tracer construction — the `ts` base for kWall
  /// lanes.
  double wall_now_us() const;

  std::int64_t events() const;
  std::int64_t dropped() const;

  /// Chrome trace JSON: lanes in LaneId order, events in append order, so
  /// output bytes are a pure function of what was recorded. `pid_filter`
  /// restricts the export to one process row (e.g. kServingPid, whose
  /// virtual-time lanes are byte-identical across thread counts); -1 keeps
  /// every lane.
  std::string to_json(int pid_filter = -1) const;
  bool write_file(const std::string& path) const;

 private:
  struct Lane {
    std::string process;
    std::string thread;
    std::vector<TraceEvent> events;
    std::int64_t dropped = 0;
    std::mutex mutex;
  };

  Lane& lane_ref(LaneId id);
  void append(LaneId id, TraceEvent event);

  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;  ///< guards the lane map's shape
  std::map<LaneId, std::unique_ptr<Lane>> lanes_;
};

/// Ambient tracer for instrumentation sites that sit too deep for explicit
/// plumbing (thread pool, fleet event loops). nullptr = tracing disabled.
void install_tracer(Tracer* tracer);
Tracer* tracer();

/// RAII wall-clock span; safe on a null tracer (no-op).
class WallSpan {
 public:
  WallSpan(Tracer* tracer, LaneId lane, std::string name, std::string cat)
      : tracer_(tracer),
        lane_(lane),
        name_(std::move(name)),
        cat_(std::move(cat)),
        start_us_(tracer != nullptr ? tracer->wall_now_us() : 0) {}
  ~WallSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(lane_, std::move(name_), std::move(cat_), start_us_,
                        tracer_->wall_now_us() - start_us_);
    }
  }
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

 private:
  Tracer* tracer_;
  LaneId lane_;
  std::string name_;
  std::string cat_;
  double start_us_;
};

}  // namespace fcad::obs
