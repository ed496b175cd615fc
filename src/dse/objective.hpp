// dse::Objective — the pluggable, composable optimization objective of the
// unified search API. An Objective is an ordered list of weighted terms
// (throughput, resource balance, feasibility, SLA terms, ...) scored against
// an ObjectiveInput; every SearchDriver entry point optimizes one Objective,
// so custom scenarios plug in a new composition instead of a new engine
// function.
//
// Floating-point contract: terms accumulate in insertion order, so the
// canned compositions `batch_fitness()` and `sla()` reproduce the legacy
// fitness_score() / sla_fitness_score() values bit-for-bit (pinned by
// objective_test.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dse/fitness.hpp"

namespace fcad::dse {

/// Everything a scored candidate exposes to the objective. The hardware
/// fields are always filled by the search; the serving fields only by
/// traffic-driven runs (`has_serving` distinguishes "no replay happened"
/// from "zero users survived the SLA").
struct ObjectiveInput {
  std::vector<double> fps;         ///< per-branch throughput
  std::vector<double> priorities;  ///< per-branch customization priorities
  int unmet_targets = 0;           ///< branches missing their batch target
                                   ///< (+1 when the global budget is blown)
  /// Hardware totals of the evaluated configuration, so objectives (and
  /// frontier extraction, dse/frontier.hpp) can trade throughput against
  /// resource cost.
  double min_fps = 0;   ///< slowest-branch throughput
  int dsps = 0;         ///< DSP slices consumed
  int brams = 0;        ///< BRAM18K blocks consumed
  double bw_gbps = 0;   ///< DDR bandwidth consumed
  /// Precision penalty of the evaluated datapath (Datapath::accuracy_proxy,
  /// >= 0, higher is worse); lets frontiers trade throughput vs precision.
  double accuracy_proxy = 0;
  bool has_serving = false;
  int users_served = 0;            ///< user streams served within the SLA
  double p99_latency_us = 0;       ///< serving tail latency
  double sla_violation_rate = 0;   ///< fraction of requests over the bound
};

class Objective {
 public:
  using TermFn = std::function<double(const ObjectiveInput&)>;

  struct Term {
    std::string name;
    double weight = 1.0;
    TermFn value;
  };

  Objective() = default;

  /// Appends a term; score() adds `weight * value(input)` per term in
  /// insertion order.
  Objective& add(std::string name, double weight, TermFn value);

  bool empty() const { return terms_.empty(); }
  const std::vector<Term>& terms() const { return terms_; }

  double score(const ObjectiveInput& input) const;

  /// "throughput + 0.05*balance + 1e+07*feasibility" — for reports/logs.
  std::string describe() const;

  // ---- canned terms ------------------------------------------------------
  static Term throughput();   ///< sum_j fps_j * priority_j
  static Term balance();      ///< -Var(fps) (weight carries alpha)
  static Term feasibility();  ///< -unmet_targets (weight carries the demerit)
  static Term min_throughput();  ///< slowest-branch FPS
  /// Resource-cost terms enter negated (objectives maximize), so "fewer
  /// DSPs" and "less bandwidth" are higher term values — which is also the
  /// orientation dse::extract_frontier expects.
  static Term dsp_cost();        ///< -DSPs consumed
  static Term bandwidth_cost();  ///< -GB/s consumed
  /// Precision cost, negated like the resource terms: higher (closer to 0)
  /// means a more accurate datapath.
  static Term accuracy_proxy();  ///< -accuracy penalty
  static Term users_served(); ///< served user streams
  /// Sub-unit tie-break bonus within the bound, hard demerit over it
  /// (the piecewise headroom shaping of sla_fitness_score).
  static Term latency_headroom(const SlaParams& params);
  static Term sla_violations(); ///< -violation rate (weight carries the scale)

  // ---- canned compositions (legacy equivalents, bit-for-bit) -------------
  /// throughput + alpha*balance + demerit*feasibility
  /// == fitness_score(fps, priorities, unmet_targets, params).
  static Objective batch_fitness(const FitnessParams& params = {});
  /// users + headroom + violation_weight*violations
  /// == sla_fitness_score(users, p99, rate, params).
  static Objective sla(const SlaParams& params = {});

 private:
  std::vector<Term> terms_;
};

}  // namespace fcad::dse
