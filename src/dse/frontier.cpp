#include "dse/frontier.hpp"

namespace fcad::dse {
namespace {

ObjectiveInput input_from_search(const SearchResult& result) {
  return objective_input(result.eval,
                         std::vector<double>(result.eval.branches.size(), 1.0),
                         result.feasible ? 0 : 1);
}

}  // namespace

std::vector<FrontierPoint> extract_frontier(
    const std::vector<ObjectiveInput>& candidates,
    const Objective::Term& term_a, const Objective::Term& term_b) {
  FCAD_CHECK_MSG(term_a.value && term_b.value,
                 "extract_frontier: term without a value function");
  std::vector<FrontierPoint> points;
  points.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    FrontierPoint point;
    point.index = i;
    point.a = term_a.weight * term_a.value(candidates[i]);
    point.b = term_b.weight * term_b.value(candidates[i]);
    point.feasible = candidates[i].unmet_targets == 0;
    points.push_back(point);
  }
  for (FrontierPoint& p : points) {
    if (!p.feasible) continue;
    bool dominated = false;
    for (const FrontierPoint& q : points) {
      if (q.index == p.index || !q.feasible) continue;
      const bool no_worse = q.a >= p.a && q.b >= p.b;
      const bool strictly_better = q.a > p.a || q.b > p.b;
      if (no_worse && strictly_better) {
        dominated = true;
        break;
      }
    }
    p.on_frontier = !dominated;
  }
  return points;
}

std::vector<ObjectiveInput> frontier_candidates(const SearchOutcome& outcome) {
  std::vector<ObjectiveInput> candidates;
  switch (outcome.kind) {
    case SearchKind::kSweep:
      candidates.reserve(outcome.sweep.size());
      for (const SweepPoint& point : outcome.sweep) {
        candidates.push_back(input_from_search(point.result));
      }
      break;
    case SearchKind::kTraffic: {
      ObjectiveInput input = input_from_search(outcome.traffic.search);
      input.has_serving = true;
      input.users_served = outcome.traffic.users_served;
      input.p99_latency_us = outcome.traffic.stats.latency.p99;
      input.sla_bound_us = outcome.traffic.stats.sla_bound_us;
      input.sla_violation_rate = outcome.traffic.stats.sla_violation_rate;
      candidates.push_back(input);
      break;
    }
    case SearchKind::kOptimize:
    case SearchKind::kMaxBatch:
    case SearchKind::kConvergence:
      candidates.push_back(input_from_search(outcome.search));
      break;
  }
  return candidates;
}

std::vector<FrontierPoint> extract_frontier(const SearchOutcome& outcome,
                                            const Objective::Term& term_a,
                                            const Objective::Term& term_b) {
  return extract_frontier(frontier_candidates(outcome), term_a, term_b);
}

}  // namespace fcad::dse
