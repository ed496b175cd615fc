// SearchDriver run-control plumbing (progress observers, cooperative
// cancellation, deadlines, thread overrides) and strategy selection: every
// SearchKind runs under any registered strategy via SearchSpec::strategy.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"

namespace fcad::dse {
namespace {

const arch::ReorganizedModel& decoder_model() {
  static const arch::ReorganizedModel model = [] {
    auto m = arch::reorganize(nn::zoo::avatar_decoder());
    FCAD_CHECK(m.is_ok());
    return std::move(m).value();
  }();
  return model;
}

SearchSpec fast_spec() {
  SearchSpec spec;
  spec.customization.batch_sizes = {1, 2, 2};
  spec.search.population = 20;
  spec.search.iterations = 5;
  spec.search.seed = 31;
  return spec;
}

// ------------------------------------------------------------ run control --

TEST(RunControlTest, ProgressEventsArriveOncePerIteration) {
  SearchSpec spec = fast_spec();
  std::vector<ProgressEvent> events;
  spec.control.on_progress = [&](const ProgressEvent& event) {
    events.push_back(event);
  };
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].stage, "search");
    EXPECT_EQ(events[static_cast<std::size_t>(i)].step, i + 1);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].total_steps, 5);
  }
  // The best-fitness stream is monotonically non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].best_fitness, events[i - 1].best_fitness);
  }
}

TEST(RunControlTest, CancellationStopsALongSearchPromptly) {
  SearchSpec spec = fast_spec();
  spec.search.iterations = 1000;  // would take minutes if not cancelled
  std::atomic<int> seen{0};
  spec.control.on_progress = [&](const ProgressEvent&) {
    if (++seen >= 2) spec.control.cancel.request_cancel();
  };
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_TRUE(outcome->cancelled);
  EXPECT_TRUE(outcome->search.stopped_early);
  // Stopped right after the cancelling iteration, with the best-so-far
  // result intact.
  EXPECT_EQ(outcome->search.trace.best_fitness.size(), 2u);
  EXPECT_FALSE(outcome->search.config.branches.empty());
}

TEST(RunControlTest, CancelledBeforeStartProducesEmptyBestEffort) {
  SearchSpec spec = fast_spec();
  spec.control.cancel.request_cancel();
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_TRUE(outcome->cancelled);
  EXPECT_TRUE(outcome->search.trace.best_fitness.empty());
}

TEST(RunControlTest, DeadlineBoundsTheRun) {
  SearchSpec spec = fast_spec();
  spec.search.iterations = 1000;
  spec.control.deadline_s = 1e-9;  // expires before the first iteration
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_TRUE(outcome->cancelled);
  EXPECT_LT(outcome->search.trace.best_fitness.size(), 1000u);
}

TEST(RunControlTest, ThreadOverrideKeepsResultsIdentical) {
  SearchSpec spec = fast_spec();
  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto baseline = driver.run(spec);
  ASSERT_TRUE(baseline.is_ok());
  spec.control.threads = 2;
  auto threaded = driver.run(spec);
  ASSERT_TRUE(threaded.is_ok());
  EXPECT_EQ(baseline->search.fitness, threaded->search.fitness);
  EXPECT_EQ(baseline->search.trace.best_fitness,
            threaded->search.trace.best_fitness);
}

TEST(RunControlTest, CancellationReachesTrafficCandidates) {
  SearchSpec spec;
  spec.kind = SearchKind::kTraffic;
  spec.search.population = 20;
  spec.search.iterations = 200;
  spec.search.seed = 42;
  spec.traffic.workload.users = 2;
  spec.traffic.workload.duration_s = 0.25;
  spec.traffic.max_batch = 4;
  spec.control.cancel.request_cancel();  // cancelled from the very start
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_TRUE(outcome->cancelled);
}

// ------------------------------------------------------ strategy in spec --
// SearchSpec::strategy must reach the inner searches of every kind. The
// "random" strategy is cheap and clearly distinguishable from the swarm
// (different RNG discipline), so a differing-but-valid outcome under the
// same seed is the signal that the selection took effect.

TEST(StrategyInSpecTest, EveryKindRunsUnderEveryBuiltinStrategy) {
  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  for (const char* strategy : {"particle-swarm", "random", "annealing"}) {
    SearchSpec spec = fast_spec();
    spec.strategy = strategy;

    spec.kind = SearchKind::kOptimize;
    auto optimize = driver.run(spec);
    ASSERT_TRUE(optimize.is_ok()) << strategy;
    EXPECT_FALSE(optimize->search.config.branches.empty()) << strategy;

    spec.kind = SearchKind::kMaxBatch;
    spec.batch_branch = 0;
    spec.batch_probe_limit = 2;
    auto max_batch = driver.run(spec);
    ASSERT_TRUE(max_batch.is_ok()) << strategy;
    EXPECT_GE(max_batch->max_batch, 1) << strategy;

    spec.kind = SearchKind::kSweep;
    spec.sweep.datapaths = {"pipelined-int8"};
    spec.sweep.frequencies_mhz = {200};
    auto sweep = driver.run(spec);
    ASSERT_TRUE(sweep.is_ok()) << strategy;
    ASSERT_EQ(sweep->sweep.size(), 1u) << strategy;

    spec.kind = SearchKind::kConvergence;
    spec.convergence_runs = 2;
    auto convergence = driver.run(spec);
    ASSERT_TRUE(convergence.is_ok()) << strategy;
    EXPECT_EQ(convergence->convergence.runs, 2) << strategy;

    spec.kind = SearchKind::kTraffic;
    spec.traffic.workload.users = 2;
    spec.traffic.workload.duration_s = 0.25;
    spec.traffic.workload.seed = 42;
    spec.traffic.max_batch = 2;
    auto traffic = driver.run(spec);
    ASSERT_TRUE(traffic.is_ok()) << strategy;
    EXPECT_FALSE(traffic->traffic.batch_sizes.empty()) << strategy;
  }
}

TEST(StrategyInSpecTest, StrategySelectionChangesTheSearch) {
  // Same seed, different strategies: the searches must actually differ
  // (random sampling draws a different candidate sequence than the swarm).
  SearchSpec spec = fast_spec();
  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto swarm = driver.run(spec);
  ASSERT_TRUE(swarm.is_ok());
  spec.strategy = "random";
  auto random = driver.run(spec);
  ASSERT_TRUE(random.is_ok());
  EXPECT_NE(swarm->search.distribution.c_frac,
            random->search.distribution.c_frac);
}

TEST(StrategyInSpecTest, UnknownStrategyRejectedForEveryKind) {
  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  for (SearchKind kind :
       {SearchKind::kOptimize, SearchKind::kMaxBatch, SearchKind::kSweep,
        SearchKind::kConvergence, SearchKind::kTraffic}) {
    SearchSpec spec = fast_spec();
    spec.kind = kind;
    spec.strategy = "no-such-strategy";
    auto outcome = driver.run(spec);
    ASSERT_FALSE(outcome.is_ok()) << to_string(kind);
    EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
  }
}

}  // namespace
}  // namespace fcad::dse
