#include "dse/objective.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "arch/evaluate.hpp"
#include "util/status.hpp"

namespace fcad::dse {
namespace {

/// Demerit per unit of relative p99 overshoot over the SLA bound.
constexpr double kOverBoundDemerit = 1e6;
/// Weight of the SLA-violation rate in Objective::sla.
constexpr double kViolationWeight = 1e3;
/// Batch-fitness demerit per branch that missed its batch target: large
/// enough that infeasible candidates still rank against each other but
/// never beat a feasible one.
constexpr double kInfeasibleDemerit = 1e7;

}  // namespace

double variance(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0;
  for (double v : values) var += (v - mean) * (v - mean);
  return var / static_cast<double>(values.size());
}

ObjectiveInput objective_input(const arch::AcceleratorEval& eval,
                               std::vector<double> priorities,
                               int unmet_targets) {
  ObjectiveInput input;
  input.fps.reserve(eval.branches.size());
  for (const arch::BranchEval& be : eval.branches) input.fps.push_back(be.fps);
  input.priorities = std::move(priorities);
  input.unmet_targets = unmet_targets;
  input.min_fps = eval.min_fps;
  input.dsps = eval.dsps;
  input.brams = eval.brams;
  input.bw_gbps = eval.bw_gbps;
  input.accuracy_proxy = eval.accuracy_proxy;
  return input;
}

Objective& Objective::add(std::string name, double weight, TermFn value) {
  FCAD_CHECK_MSG(value != nullptr,
                 "Objective term '" + name + "' has no value function");
  terms_.push_back(Term{std::move(name), weight, value});
  return *this;
}

double Objective::score(const ObjectiveInput& input) const {
  FCAD_CHECK_MSG(!terms_.empty(), "scoring an empty Objective");
  double score = 0;
  for (const Term& term : terms_) {
    score += term.weight * term.value(input);
  }
  return score;
}

std::string Objective::describe() const {
  std::string out;
  for (const Term& term : terms_) {
    if (!out.empty()) out += " + ";
    if (term.weight != 1.0) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g*", term.weight);
      out += buffer;
    }
    out += term.name;
  }
  return out.empty() ? "<empty>" : out;
}

Objective::Term Objective::throughput() {
  return {"throughput", 1.0, [](const ObjectiveInput& in) {
            FCAD_CHECK(in.fps.size() == in.priorities.size());
            double sum = 0;
            for (std::size_t j = 0; j < in.fps.size(); ++j) {
              sum += in.fps[j] * in.priorities[j];
            }
            return sum;
          }};
}

Objective::Term Objective::balance() {
  return {"balance", 1.0,
          [](const ObjectiveInput& in) { return -variance(in.fps); }};
}

Objective::Term Objective::feasibility() {
  return {"feasibility", 1.0, [](const ObjectiveInput& in) {
            FCAD_CHECK(in.unmet_targets >= 0);
            return -static_cast<double>(in.unmet_targets);
          }};
}

Objective::Term Objective::min_throughput() {
  return {"min-fps", 1.0,
          [](const ObjectiveInput& in) { return in.min_fps; }};
}

Objective::Term Objective::dsp_cost() {
  return {"dsps", 1.0, [](const ObjectiveInput& in) {
            return -static_cast<double>(in.dsps);
          }};
}

Objective::Term Objective::bandwidth_cost() {
  return {"bandwidth", 1.0,
          [](const ObjectiveInput& in) { return -in.bw_gbps; }};
}

Objective::Term Objective::accuracy_proxy() {
  return {"accuracy", 1.0, [](const ObjectiveInput& in) {
            FCAD_CHECK(in.accuracy_proxy >= 0);
            return -in.accuracy_proxy;
          }};
}

Objective::Term Objective::users_served() {
  return {"users", 1.0, [](const ObjectiveInput& in) {
            FCAD_CHECK(in.users_served >= 0);
            return static_cast<double>(in.users_served);
          }};
}

Objective::Term Objective::latency_headroom() {
  return {"latency-headroom", 1.0, [](const ObjectiveInput& in) {
            FCAD_CHECK(in.sla_bound_us > 0);
            const double headroom = 1.0 - in.p99_latency_us / in.sla_bound_us;
            if (headroom >= 0) return std::min(headroom, 0.999);
            return kOverBoundDemerit * headroom;
          }};
}

Objective::Term Objective::sla_violations() {
  return {"violations", 1.0, [](const ObjectiveInput& in) {
            return -in.sla_violation_rate;
          }};
}

Objective Objective::batch_fitness(double alpha) {
  // Weighted-FPS sum, minus the variance penalty, minus the infeasibility
  // demerits.
  Objective objective;
  Term t = throughput();
  objective.add(t.name, 1.0, t.value);
  t = balance();
  objective.add(t.name, alpha, t.value);
  t = feasibility();
  objective.add(t.name, kInfeasibleDemerit, t.value);
  return objective;
}

Objective Objective::sla() {
  // Users, plus the headroom shaping, minus the violation mass.
  Objective objective;
  Term t = users_served();
  objective.add(t.name, 1.0, t.value);
  t = latency_headroom();
  objective.add(t.name, 1.0, t.value);
  t = sla_violations();
  objective.add(t.name, kViolationWeight, t.value);
  return objective;
}

}  // namespace fcad::dse
