// The pluggable strategy layer: every registered strategy runs under the
// shared round loop (same budget, same objective, same evaluation path),
// finds feasible designs, reports a complete monotone trace, and is
// deterministic for a fixed seed. Plus the registry contract itself:
// lookup, unknown names, custom registration reachable from SearchSpec.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "arch/platform.hpp"
#include "dse/search_driver.hpp"
#include "dse/strategy.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/rng.hpp"

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

Customization decoder_customization() {
  Customization c;
  c.datapath = "pipelined-int8";
  c.batch_sizes = {1, 2, 2};
  c.priorities = {1, 1, 1};
  return c;
}

CrossBranchOptions fast_options(std::uint64_t seed = 21) {
  CrossBranchOptions opt;
  opt.population = 25;
  opt.iterations = 5;
  opt.seed = seed;
  opt.freq_mhz = 200.0;
  return opt;
}

SearchResult run_named(const std::string& name,
                       const CrossBranchOptions& opt) {
  auto result = run_search_strategy(
      name, decoder_model(),
      ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), opt);
  FCAD_CHECK_MSG(result.is_ok(), result.status().message());
  return std::move(result).value();
}

class StrategyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyTest, FindsFeasibleDesign) {
  const SearchResult result = run_named(GetParam(), fast_options());
  EXPECT_TRUE(result.feasible) << GetParam();
  EXPECT_GT(result.eval.min_fps, 5.0);
  EXPECT_LE(result.eval.dsps, 2520);
  EXPECT_LE(result.eval.brams, 1824);
}

TEST_P(StrategyTest, TraceMonotoneAndComplete) {
  const SearchResult result = run_named(GetParam(), fast_options());
  ASSERT_EQ(result.trace.best_fitness.size(), 5u);
  for (std::size_t i = 1; i < result.trace.best_fitness.size(); ++i) {
    EXPECT_GE(result.trace.best_fitness[i], result.trace.best_fitness[i - 1]);
  }
  EXPECT_GT(result.trace.evaluations, 0);
}

TEST_P(StrategyTest, Deterministic) {
  const SearchResult a = run_named(GetParam(), fast_options(5));
  const SearchResult b = run_named(GetParam(), fast_options(5));
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values("particle-swarm", "random",
                                           "annealing"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

TEST(StrategyComparisonTest, SwarmAtLeastMatchesRandom) {
  // Under the same evaluation budget and seed family, the guided searches
  // should not lose to blind sampling by a meaningful margin.
  const double swarm = run_named("particle-swarm", fast_options()).fitness;
  const double random = run_named("random", fast_options()).fitness;
  EXPECT_GE(swarm, random * 0.98);
}

TEST(StrategyTest, EvaluateDistributionSharesObjective) {
  // evaluate_distribution on the swarm winner's rd reproduces its fitness.
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  const CrossBranchOptions opt = fast_options();
  const SearchResult result = run_named("particle-swarm", opt);
  SearchTrace trace;
  const Customization cust = decoder_customization();
  const DistributionEval ce = evaluate_distribution(
      decoder_model(),
      build_branch_tables(decoder_model(), cust.resolved_datapath()), budget,
      result.distribution, cust, opt, trace);
  EXPECT_DOUBLE_EQ(ce.fitness, result.fitness);
}

TEST(StrategyTest, CrossBranchSearchIsTheParticleSwarmStrategy) {
  // Algorithm 1's classic entry point and the registered strategy are the
  // same code path, bit for bit.
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  const SearchResult classic = cross_branch_search(
      decoder_model(), budget, decoder_customization(), fast_options());
  const SearchResult registered = run_named("particle-swarm", fast_options());
  EXPECT_EQ(classic.fitness, registered.fitness);
  EXPECT_EQ(classic.trace.best_fitness, registered.trace.best_fitness);
  EXPECT_EQ(classic.distribution.c_frac, registered.distribution.c_frac);
}

// ---------------------------------------------------------------- registry --

TEST(StrategyRegistryTest, BuiltinsRegistered) {
  const std::vector<std::string> names = registered_strategy_names();
  for (const char* expected : {"particle-swarm", "random", "annealing"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(StrategyRegistryTest, UnknownNameRejectedWithKnownNamesListed) {
  auto factory = strategy_factory("no-such-strategy");
  ASSERT_FALSE(factory.is_ok());
  EXPECT_EQ(factory.status().code(), StatusCode::kNotFound);
  EXPECT_NE(factory.status().message().find("particle-swarm"),
            std::string::npos);
}

TEST(StrategyRegistryTest, EmptyNameResolvesToDefault) {
  EXPECT_TRUE(strategy_factory("").is_ok());
}

TEST(StrategyRegistryTest, DuplicateRegistrationRejected) {
  EXPECT_FALSE(register_strategy("particle-swarm", [] {
                 return std::unique_ptr<Strategy>();
               }).is_ok());
  EXPECT_FALSE(register_strategy("", [] {
                 return std::unique_ptr<Strategy>();
               }).is_ok());
}

/// A deliberately minimal custom strategy: one round of pure random
/// proposals. Registered once for the whole test binary.
class OneShotRandomStrategy : public Strategy {
 public:
  void begin(const StrategyContext& ctx) override {
    rng_ = Rng(ctx.options.seed);
  }
  int max_rounds(const StrategyContext&) const override { return 1; }
  std::vector<ResourceDistribution> propose(const StrategyContext& ctx,
                                            int) override {
    std::vector<ResourceDistribution> batch;
    for (int i = 0; i < ctx.options.population; ++i) {
      ResourceDistribution rd;
      const auto branches =
          static_cast<std::size_t>(ctx.model.num_branches());
      rd.c_frac = rng_.next_simplex(branches);
      rd.m_frac = rng_.next_simplex(branches);
      rd.bw_frac = rng_.next_simplex(branches);
      batch.push_back(std::move(rd));
    }
    return batch;
  }
  void accept(const StrategyContext&, int round,
              const std::vector<ResourceDistribution>& proposed,
              const std::vector<DistributionEval>& evals,
              SearchResult& result) override {
    for (std::size_t i = 0; i < proposed.size(); ++i) {
      if (evals[i].fitness > result.fitness) {
        result.fitness = evals[i].fitness;
        result.config = evals[i].config;
        result.distribution = proposed[i];
        result.feasible = evals[i].feasible;
        result.trace.convergence_iteration = round + 1;
      }
    }
    result.trace.best_fitness.push_back(result.fitness);
  }

 private:
  Rng rng_{0};
};

TEST(StrategyRegistryTest, CustomStrategySelectableFromSearchSpec) {
  static const bool registered = [] {
    Status s = register_strategy("one-shot-random", [] {
      return std::make_unique<OneShotRandomStrategy>();
    });
    FCAD_CHECK_MSG(s.is_ok(), s.message());
    return true;
  }();
  ASSERT_TRUE(registered);

  SearchSpec spec;
  spec.strategy = "one-shot-random";
  spec.customization = decoder_customization();
  spec.search = fast_options();
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome->search.trace.best_fitness.size(), 1u);
  EXPECT_GT(outcome->search.trace.evaluations, 0);
  EXPECT_FALSE(outcome->search.config.branches.empty());
}

TEST(StrategyRegistryTest, UnknownStrategyInSpecRejectedByDriver) {
  SearchSpec spec;
  spec.strategy = "definitely-not-registered";
  spec.customization = decoder_customization();
  spec.search = fast_options();
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_FALSE(outcome.is_ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace fcad::dse
