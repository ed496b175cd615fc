// Generalized Pareto-frontier extraction (dse/frontier.hpp): term-pair
// frontiers over explicit candidate sets and over SearchOutcomes, the
// degenerate shapes (single point, all-dominated, infeasible), and
// equivalence with the sweep path's built-in (min FPS, DSPs) marking.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/platform.hpp"
#include "dse/frontier.hpp"
#include "nn/zoo/avatar_decoder.hpp"

namespace fcad::dse {
namespace {

/// A hardware-ish candidate: throughput per branch, resource totals, and an
/// unmet-target count (0 = feasible).
ObjectiveInput candidate(std::vector<double> fps, int dsps, int unmet = 0) {
  ObjectiveInput input;
  input.fps = std::move(fps);
  input.priorities.assign(input.fps.size(), 1.0);
  input.unmet_targets = unmet;
  input.min_fps = input.fps.empty()
                      ? 0
                      : *std::min_element(input.fps.begin(), input.fps.end());
  input.dsps = dsps;
  return input;
}

/// A serving candidate for the (SLA, DSPs) pair.
ObjectiveInput serving_candidate(int users, double p99_us, int dsps) {
  ObjectiveInput input = candidate({30.0}, dsps);
  input.has_serving = true;
  input.users_served = users;
  input.p99_latency_us = p99_us;
  input.sla_bound_us = 33333.3;  // one 30 Hz frame period
  return input;
}

TEST(FrontierTest, ThroughputVersusFeasibility) {
  // a: fast but infeasible-by-2; b: slower, infeasible-by-1; c: slowest but
  // feasible. Under (throughput up, feasibility up — fewer unmet targets)
  // no candidate dominates another; the feasible-only rule then leaves c as
  // the single frontier point.
  const std::vector<ObjectiveInput> candidates = {
      candidate({100, 100}, 500, /*unmet=*/2),
      candidate({60, 60}, 500, /*unmet=*/1),
      candidate({30, 30}, 500, /*unmet=*/0),
  };
  const auto points = extract_frontier(candidates, Objective::throughput(),
                                       Objective::feasibility());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].a, 200.0);  // sum fps * priority
  EXPECT_EQ(points[0].b, -2.0);   // -unmet
  EXPECT_FALSE(points[0].feasible);
  EXPECT_FALSE(points[0].on_frontier);  // infeasible never makes the frontier
  EXPECT_FALSE(points[1].on_frontier);
  EXPECT_TRUE(points[2].on_frontier);
}

TEST(FrontierTest, SlaVersusDsps) {
  // Four serving candidates: more users cost more DSPs (a genuine
  // trade-off), one config is strictly dominated, one misses the SLA hard.
  const std::vector<ObjectiveInput> candidates = {
      serving_candidate(/*users=*/8, /*p99=*/20000, /*dsps=*/2000),
      serving_candidate(/*users=*/4, /*p99=*/15000, /*dsps=*/900),
      serving_candidate(/*users=*/4, /*p99=*/15000, /*dsps=*/1400),  // dom.
      serving_candidate(/*users=*/2, /*p99=*/10000, /*dsps=*/400),
  };
  const auto points = extract_frontier(candidates, Objective::users_served(),
                                       Objective::dsp_cost());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_TRUE(points[0].on_frontier);   // most users
  EXPECT_TRUE(points[1].on_frontier);   // same users, fewer DSPs than [2]
  EXPECT_FALSE(points[2].on_frontier);  // dominated by [1] on DSPs
  EXPECT_TRUE(points[3].on_frontier);   // cheapest
  EXPECT_EQ(points[0].b, -2000.0);

  // The latency-headroom SLA term works as an axis too: the same frontier
  // machinery, different trade-off.
  const auto by_headroom = extract_frontier(
      candidates, Objective::latency_headroom(), Objective::dsp_cost());
  EXPECT_TRUE(by_headroom[3].on_frontier);  // best headroom, cheapest
  EXPECT_FALSE(by_headroom[2].on_frontier);
}

TEST(FrontierTest, DegenerateSinglePoint) {
  const std::vector<ObjectiveInput> one = {candidate({50}, 1000)};
  const auto points = extract_frontier(one, Objective::min_throughput(),
                                       Objective::dsp_cost());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].on_frontier);

  // A single infeasible point: scored, never on the frontier.
  const std::vector<ObjectiveInput> bad = {candidate({50}, 1000, 1)};
  const auto none = extract_frontier(bad, Objective::min_throughput(),
                                     Objective::dsp_cost());
  ASSERT_EQ(none.size(), 1u);
  EXPECT_FALSE(none[0].on_frontier);
  EXPECT_TRUE(extract_frontier(std::vector<ObjectiveInput>{},
                               Objective::min_throughput(),
                               Objective::dsp_cost())
                  .empty());
}

TEST(FrontierTest, AllDominatedByOnePoint) {
  // One candidate beats everything on both axes: the frontier is exactly it.
  const std::vector<ObjectiveInput> candidates = {
      candidate({100}, 500),  // dominates all below
      candidate({90}, 600),
      candidate({50}, 700),
      candidate({10}, 800),
  };
  const auto points = extract_frontier(candidates, Objective::min_throughput(),
                                       Objective::dsp_cost());
  EXPECT_TRUE(points[0].on_frontier);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_FALSE(points[i].on_frontier) << i;
  }
}

TEST(FrontierTest, DuplicatePointsShareTheFrontier) {
  // Two identical candidates: neither strictly dominates the other, so both
  // stay on the frontier (matching the sweep path's historical behavior).
  const std::vector<ObjectiveInput> candidates = {
      candidate({50}, 500),
      candidate({50}, 500),
  };
  const auto points = extract_frontier(candidates, Objective::min_throughput(),
                                       Objective::dsp_cost());
  EXPECT_TRUE(points[0].on_frontier);
  EXPECT_TRUE(points[1].on_frontier);
}

TEST(FrontierTest, TermWeightsNeverChangeTheFrontier) {
  const std::vector<ObjectiveInput> candidates = {
      candidate({100}, 800),
      candidate({50}, 400),
      candidate({40}, 600),  // dominated by [1]
  };
  Objective::Term heavy_a = Objective::min_throughput();
  heavy_a.weight = 1000.0;
  Objective::Term heavy_b = Objective::dsp_cost();
  heavy_b.weight = 0.001;
  const auto unweighted = extract_frontier(
      candidates, Objective::min_throughput(), Objective::dsp_cost());
  const auto weighted = extract_frontier(candidates, heavy_a, heavy_b);
  ASSERT_EQ(unweighted.size(), weighted.size());
  for (std::size_t i = 0; i < unweighted.size(); ++i) {
    EXPECT_EQ(unweighted[i].on_frontier, weighted[i].on_frontier) << i;
  }
  EXPECT_EQ(weighted[0].a, 1000.0 * 100.0);
}

TEST(FrontierTest, SweepOutcomeMatchesBuiltInParetoMarking) {
  // End to end: the sweep path marks pareto_optimal through the same
  // extraction, so re-extracting (min FPS, DSPs) from the outcome must
  // reproduce the flags — and another term pair is free to disagree.
  const auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());
  SearchSpec spec;
  spec.kind = SearchKind::kSweep;
  spec.search.population = 20;
  spec.search.iterations = 4;
  spec.search.seed = 17;
  spec.customization.batch_sizes = {1, 1, 1};
  auto outcome = SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());

  const auto points = extract_frontier(*outcome, Objective::min_throughput(),
                                       Objective::dsp_cost());
  ASSERT_EQ(points.size(), outcome->sweep.size());
  int on_frontier = 0;
  for (const FrontierPoint& point : points) {
    EXPECT_EQ(point.on_frontier,
              outcome->sweep[point.index].pareto_optimal)
        << point.index;
    EXPECT_EQ(point.a, outcome->sweep[point.index].result.eval.min_fps);
    on_frontier += point.on_frontier;
  }
  EXPECT_GE(on_frontier, 1);

  // A different pair over the same outcome: bandwidth instead of DSPs.
  const auto by_bw = extract_frontier(*outcome, Objective::min_throughput(),
                                      Objective::bandwidth_cost());
  EXPECT_EQ(by_bw.size(), points.size());
}

TEST(FrontierTest, NonSweepOutcomeYieldsItsWinner) {
  SearchOutcome outcome;
  outcome.kind = SearchKind::kOptimize;
  outcome.search.feasible = true;
  outcome.search.eval.min_fps = 42;
  outcome.search.eval.dsps = 777;
  const auto candidates = frontier_candidates(outcome);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].min_fps, 42);
  EXPECT_EQ(candidates[0].dsps, 777);
  const auto points = extract_frontier(outcome, Objective::min_throughput(),
                                       Objective::dsp_cost());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].on_frontier);
}

}  // namespace
}  // namespace fcad::dse
