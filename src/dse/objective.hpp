// dse::Objective — the one fitness of every search (Algorithm 1, line 12):
// an ordered list of weighted terms (throughput, resource balance,
// feasibility, SLA terms, ...) scored against an ObjectiveInput. Every
// candidate of every SearchKind is scored through Objective::score, so
// custom scenarios plug in a new composition instead of a new engine
// function. The paper's S(Perf, U) - alpha * Var(Perf), with a demerit per
// missed batch target, is the canned composition batch_fitness().
//
// Floating-point contract: terms accumulate in insertion order, so a
// composition's score is reproducible bit for bit (pinned by
// objective_test.cpp).
#pragma once

#include <string>
#include <vector>

namespace fcad::arch {
struct AcceleratorEval;
}  // namespace fcad::arch

namespace fcad::dse {

/// Population variance of `values` (sigma^2 of Sec. VI-B).
double variance(const std::vector<double>& values);

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
  double sla_bound_us = 0;         ///< p99 bound the replay was scored at
  double sla_violation_rate = 0;   ///< fraction of requests over the bound
};

/// The hardware half of an ObjectiveInput, read off an evaluated
/// configuration: per-branch FPS and the resource totals. `priorities` are
/// per-branch; `unmet_targets` counts branches that missed their batch
/// target (+1 when the global budget is blown). Serving fields stay unset.
ObjectiveInput objective_input(const arch::AcceleratorEval& eval,
                               std::vector<double> priorities,
                               int unmet_targets);

class Objective {
 public:
  /// A plain function, so a term cannot capture state: spec_hash keys an
  /// Objective by term names and weights, and anything a term captured
  /// would change scores without changing the artifact key. Captureless
  /// lambdas convert.
  using TermFn = double (*)(const ObjectiveInput&);

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
  /// Relative p99 headroom h = 1 - p99 / sla_bound_us: the sub-unit
  /// tie-break bonus min(h, 0.999) within the bound, a hard demerit (1e6 per
  /// unit of h) over it.
  static Term latency_headroom();
  static Term sla_violations(); ///< -violation rate (weight carries the scale)

  // ---- canned compositions ----------------------------------------------
  /// throughput + alpha*balance + 1e7*feasibility: the paper's fitness
  /// S(Perf, U) - alpha * Var(Perf), with a large constant demerit per
  /// branch that missed its batch target, and the default of every hardware
  /// search. `alpha` is the variance penalty weight.
  static Objective batch_fitness(double alpha = 0.05);
  /// users + headroom + 1e3*violations: the default serving score of
  /// kTraffic. Maximizes users served subject to the replay's p99 bound
  /// (the telepresence SLA: every stream decoded within its frame budget at
  /// p99). Users dominate; the headroom bonus breaks ties among configs
  /// serving the same user count; p99 overshoot and violation mass are
  /// penalized hard enough that a config meeting the bound always beats
  /// one that misses it.
  static Objective sla();

 private:
  std::vector<Term> terms_;
};

}  // namespace fcad::dse
