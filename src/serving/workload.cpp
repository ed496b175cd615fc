#include "serving/workload.hpp"

#include <cctype>
#include <cmath>
#include <limits>

#include "serving/stream.hpp"

namespace fcad::serving {
namespace {

/// Exponential draw with mean `mean` (inverse-CDF on a uniform in [0,1)).
double next_exponential(Rng& rng, double mean) {
  // 1 - u is in (0, 1], so the log argument never hits zero.
  return -mean * std::log(1.0 - rng.next_double());
}

}  // namespace

UserStream::UserStream(Rng rng_in, double rate_hz, double on_mean_s,
                       double off_mean_s, double factor)
    : rng(std::move(rng_in)),
      rate_hz(rate_hz),
      on_mean_s(on_mean_s),
      off_mean_s(off_mean_s),
      burst_factor(factor),
      modulated(off_mean_s > 0) {
  phase_end_us = modulated ? next_exponential(rng, on_mean_s) * 1e6
                           : std::numeric_limits<double>::infinity();
}

double UserStream::next(double horizon_us) {
  while (true) {
    const double rate = on ? rate_hz * (modulated ? burst_factor : 1.0) : 0.0;
    if (rate <= 0) {
      // Silent phase: jump straight to its end.
      t_us = phase_end_us;
    } else {
      t_us += next_exponential(rng, 1.0 / rate) * 1e6;
    }
    // The horizon check precedes the phase handling on purpose — it pins
    // the original generator's behavior, where a draw crossing the
    // horizon ends the stream even when a phase boundary lies before it.
    if (t_us >= horizon_us) return t_us;
    if (modulated && t_us >= phase_end_us) {
      // The draw crossed a phase boundary; restart it inside the new
      // phase.
      t_us = phase_end_us;
      on = !on;
      phase_end_us =
          t_us + next_exponential(rng, on ? on_mean_s : off_mean_s) * 1e6;
      continue;
    }
    return t_us;
  }
}

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
  }
  return "?";
}

StatusOr<ArrivalProcess> arrival_process_by_name(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "poisson") return ArrivalProcess::kPoisson;
  if (lower == "bursty") return ArrivalProcess::kBursty;
  return Status::not_found("unknown arrival process '" + name + "'");
}

Status validate_workload_options(const WorkloadOptions& options) {
  if (options.users < 1) {
    return Status::invalid_argument("workload: users must be >= 1");
  }
  if (options.branches < 1) {
    return Status::invalid_argument("workload: branches must be >= 1");
  }
  if (options.target_requests < 0) {
    return Status::invalid_argument("workload: target_requests must be >= 0");
  }
  if (!std::isfinite(options.frame_rate_hz) || options.frame_rate_hz <= 0) {
    return Status::invalid_argument(
        "workload: frame_rate_hz must be finite and > 0");
  }
  // The horizon is ignored in target mode, but a non-finite value is never
  // a horizon anyone meant.
  if (!std::isfinite(options.duration_s)) {
    return Status::invalid_argument("workload: duration_s must be finite");
  }
  if (options.target_requests == 0 && options.duration_s <= 0) {
    return Status::invalid_argument("workload: duration_s must be > 0");
  }
  return Status::ok();
}

StatusOr<std::vector<Request>> generate_workload(
    const WorkloadOptions& options) {
  // The pull-based stream (stream.cpp) is the single copy of the generator;
  // this entry point just drains it into a vector.
  auto stream = make_request_stream(options);
  if (!stream.is_ok()) return stream.status();
  return drain_request_stream(**stream, options.target_requests);
}

}  // namespace fcad::serving
