// Scenario generators (serving step 8a): deterministic traffic drift on top
// of any generated workload.
//
// A ScenarioSpec composes four orthogonal shapes over a base WorkloadOptions:
//
//   * diurnal  — a sinusoidal multiplier on the per-user frame rate,
//                multiplier(t) = 1 + amplitude * sin(2*pi*(t/period + phase)),
//   * flash    — step windows [start, end) that multiply the rate and/or add
//                extra short-lived user streams for the window's duration,
//   * churn    — scheduled user arrivals/departures (a user only emits frame
//                events inside [join, leave)),
//   * faults   — an instance fail-at/recover-at schedule, consumed by the
//                elastic layer (it does not change arrivals).
//
// Time-varying rates are realized by Lewis–Shedler thinning: each user draws
// candidate events from the SAME decorrelated rng fork the plain generator
// would use, at the peak rate, then accepts a candidate with probability
// multiplier(t)/peak using a separate acceptance rng. A scenario that does
// not shape arrivals bypasses thinning entirely, so the output is
// bit-identical to generate_workload on the same options.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serving/workload.hpp"
#include "util/status.hpp"

namespace fcad::serving {

/// Sinusoidal rate modulation. Disabled while `period_s <= 0`.
struct DiurnalSpec {
  double period_s = 0;    ///< full cycle length; <= 0 disables the shape
  double amplitude = 0.5; ///< multiplier swings in [1-a, 1+a]; must be in [0,1)
  double phase = 0;       ///< cycle offset in [0,1) turns
};

/// A step spike window: rate multiplier and extra users over [start, end).
struct FlashCrowdSpec {
  double start_s = 0;
  double end_s = 0;
  double rate_multiplier = 1;  ///< applied to every active user in the window
  int extra_users = 0;         ///< transient streams that exist only in-window
};

/// A scheduled join/leave for one base user stream.
struct ChurnEvent {
  int user = 0;
  double join_s = 0;
  double leave_s = std::numeric_limits<double>::infinity();
};

/// One instance failing at `fail_s` and recovering at `recover_s`
/// (virtual-time seconds). `instance` is a global instance index.
struct InstanceFault {
  int instance = 0;
  double fail_s = 0;
  double recover_s = 0;
};

struct ScenarioSpec {
  DiurnalSpec diurnal;
  std::vector<FlashCrowdSpec> flash;
  std::vector<ChurnEvent> churn;
  std::vector<InstanceFault> faults;

  /// True when the spec changes the arrival stream (diurnal/flash/churn);
  /// faults alone leave arrivals untouched.
  bool shapes_arrivals() const {
    return diurnal.period_s > 0 || !flash.empty() || !churn.empty();
  }
  /// True when any shape (including faults) is present.
  bool enabled() const { return shapes_arrivals() || !faults.empty(); }
  /// Total transient users added across flash windows; their user ids sit
  /// directly above the base range.
  int extra_users() const;
};

/// Validates ranges: a finite diurnal period, and when it is > 0 amplitude
/// in [0,1) and phase in [0,1); flash windows need a finite end > start >=
/// 0, a finite rate_multiplier > 0, extra_users >= 0, and at least one
/// effect; churn needs user >= 0 and leave > join >= 0; faults need
/// instance >= 0 and a finite recover_s > fail_s >= 0 (a fault that never
/// recovers could silence a shard's whole instance slice and stall the
/// replay, so it is rejected up front). NaN fails every check.
Status validate_scenario(const ScenarioSpec& spec);

/// Instantaneous rate multiplier at virtual time `t_us` for a base user:
/// diurnal(t) times the product of every flash window containing t.
double scenario_rate_multiplier(const ScenarioSpec& spec, double t_us);

/// Canonical one-line form, reparseable by scenario_from_string. Clauses are
/// `;`-separated, keys `,`-separated:
///   diurnal:period=<s>,amp=<a>,phase=<p>
///   flash:start=<s>,end=<s>,rate=<m>,users=<n>
///   churn:user=<u>,join=<s>,leave=<s|inf>
///   fault:instance=<k>,fail=<s>,recover=<s>
/// An empty/none spec prints as "none".
std::string scenario_to_string(const ScenarioSpec& spec);

/// Parses the scenario_to_string grammar ("none"/"" -> empty spec) and
/// validates the result. Stricter than validate_scenario about what a
/// clause asks for: NaN values, a diurnal period <= 0 (which would drop the
/// clause), and non-integral user/instance counts are rejected, each error
/// naming its field.
StatusOr<ScenarioSpec> scenario_from_string(const std::string& text);

/// Generates `options` shaped by `spec`. With a trivial spec this defers to
/// generate_workload (bit-identical output). Extra flash users get ids
/// `options.users + j` and their own decorrelated rng forks, so enabling a
/// flash window never perturbs base users' arrival draws.
/// With `target_requests > 0` events are merged lazily in global time order
/// until the branch fan-out covers the target, matching generate_workload's
/// contract under drift.
StatusOr<std::vector<Request>> generate_scenario_workload(
    const WorkloadOptions& options, const ScenarioSpec& spec);

}  // namespace fcad::serving
