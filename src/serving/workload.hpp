// Multi-tenant workload generation (serving step 1): request arrival
// processes over N concurrent users of the telepresence decoder.
//
// Each user produces frame events at a mean rate (e.g. 30 Hz camera capture);
// every frame event emits one decode request *per branch* of the reorganized
// model, since geometry / texture / warp streams are decoded independently by
// the multi-pipeline accelerator. Arrivals are driven by util/rng so a fixed
// seed reproduces the exact same workload on every platform.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace fcad::serving {

/// One decode request: a single branch inference for one user frame.
struct Request {
  std::int64_t id = 0;    ///< dense index in arrival order
  int user = 0;           ///< originating user stream
  int branch = 0;         ///< decoder branch this request exercises
  double arrival_us = 0;  ///< arrival time, microseconds from epoch 0
};

/// kBursty: each user alternates exponentially distributed on/off phases
/// (0.2 s mean each); during "on" the frame rate doubles, during "off" the
/// stream is silent (camera occluded / user muted), so the long-run mean
/// rate stays frame_rate_hz and poisson-vs-bursty comparisons offer the
/// same load, just burstier. The phase constants live beside their one
/// reader, the generator in stream.cpp.
enum class ArrivalProcess {
  kPoisson,  ///< per-user exponential inter-arrival times
  kBursty,   ///< on/off modulated Poisson (talking-head bursts)
};

const char* to_string(ArrivalProcess process);

/// Lookup by name ("poisson", "bursty"); case-insensitive.
StatusOr<ArrivalProcess> arrival_process_by_name(const std::string& name);

struct WorkloadOptions {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  int users = 8;               ///< concurrent user streams
  int branches = 1;            ///< requests emitted per frame event
  double frame_rate_hz = 30;   ///< mean per-user frame-event rate
  double duration_s = 1.0;     ///< generation horizon
  std::uint64_t seed = 1;

  /// When > 0: generate exactly this many requests — the knob for
  /// million-request replay traces — instead of bounding the horizon by
  /// `duration_s` (which is then ignored). Per-user streams
  /// are drawn lazily in global time order, so the result is deterministic
  /// for a fixed seed and each user's arrivals match what the
  /// duration-bounded generator would produce.
  std::int64_t target_requests = 0;
};

/// Validates every WorkloadOptions field, each error naming its field:
/// users/branches >= 1, target_requests >= 0, a finite positive rate, and a
/// finite horizon (> 0 unless target_requests bounds the stream instead).
Status validate_workload_options(const WorkloadOptions& options);

/// Generates the request stream, sorted by arrival time with dense ids.
/// Fails on any validate_workload_options violation. Deterministic for a
/// fixed seed.
StatusOr<std::vector<Request>> generate_workload(const WorkloadOptions& options);

/// One user's (possibly modulated) Poisson arrival stream, drawn lazily —
/// the single copy of the draw sequence behind generate_workload and the
/// scenario generator (scenario.cpp): both must draw a user's candidate
/// events from the same decorrelated fork so per-user arrivals stay
/// deterministic whichever generator consumes them. `rate_hz` applies
/// during "on" phases; a non-positive `off_mean_s` disables modulation
/// (plain Poisson).
struct UserStream {
  UserStream(Rng rng_in, double rate_hz, double on_mean_s, double off_mean_s,
             double factor);

  /// Next event time, or a value >= `horizon_us` once a draw overshoots the
  /// horizon (the stream is then finished; do not call again).
  double next(double horizon_us = std::numeric_limits<double>::infinity());

  Rng rng;
  double rate_hz;
  double on_mean_s;
  double off_mean_s;
  double burst_factor;
  bool modulated;
  double t_us = 0;
  bool on = true;
  double phase_end_us = 0;
};

}  // namespace fcad::serving
