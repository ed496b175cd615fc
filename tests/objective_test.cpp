// dse::Objective: term composition, and the canned compositions pinned bit
// for bit — every search scores through Objective::score, so a drift in
// these scores would change every search result.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "arch/platform.hpp"
#include "dse/cross_branch.hpp"
#include "dse/objective.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/rng.hpp"

namespace fcad::dse {
namespace {

// FNV-1a-style fold of a score's bit pattern into a running 64-bit digest.
std::uint64_t fold_bits(std::uint64_t digest, double score) {
  std::uint64_t bits;
  std::memcpy(&bits, &score, sizeof bits);
  return (digest ^ bits) * 0x100000001b3ULL;
}

constexpr std::uint64_t kFoldSeed = 0xcbf29ce484222325ULL;

TEST(ObjectiveTest, BatchFitnessMatchesPinnedGolden) {
  // The digest was captured from the paper's fitness written out directly
  // (sum_j fps_j * P_j - alpha * Var(fps) - 1e7 * unmet) over the same 200
  // seeded inputs.
  Rng rng(2024);
  std::uint64_t digest = kFoldSeed;
  for (int trial = 0; trial < 200; ++trial) {
    ObjectiveInput input;
    const int branches = 1 + static_cast<int>(rng.next_range(0, 5));
    for (int b = 0; b < branches; ++b) {
      input.fps.push_back(rng.next_range(0.0, 500.0));
      input.priorities.push_back(rng.next_range(0.1, 8.0));
    }
    input.unmet_targets = trial % 4;
    const double alpha = rng.next_range(0.0, 1.0);
    digest = fold_bits(digest, Objective::batch_fitness(alpha).score(input));
  }
  EXPECT_EQ(digest, 0x27e2fec852a86e5bULL);
}

TEST(ObjectiveTest, SlaMatchesPinnedGolden) {
  // Captured like the batch digest, from the default SLA score (users +
  // clamped headroom or 1e6 * overshoot - 1e3 * violations) over the same
  // 200 seeded inputs, when the bound was a parameter of Objective::sla.
  Rng rng(77);
  std::uint64_t digest = kFoldSeed;
  for (int trial = 0; trial < 200; ++trial) {
    ObjectiveInput input;
    input.has_serving = true;
    input.users_served = static_cast<int>(rng.next_range(0, 64));
    // Cover headroom > 0, ~0, and deep over-bound alike.
    input.p99_latency_us = rng.next_range(0.0, 120000.0);
    input.sla_violation_rate = rng.next_range(0.0, 0.5);
    input.sla_bound_us = rng.next_range(10000.0, 50000.0);
    digest = fold_bits(digest, Objective::sla().score(input));
  }
  EXPECT_EQ(digest, 0x0be952b68e0fd2a6ULL);
}

TEST(ObjectiveTest, TermsAccumulateWithWeightsInOrder) {
  Objective objective;
  objective.add("constant", 2.0, [](const ObjectiveInput&) { return 3.0; });
  objective.add("users", 0.5, [](const ObjectiveInput& in) {
    return static_cast<double>(in.users_served);
  });
  ObjectiveInput input;
  input.users_served = 8;
  EXPECT_DOUBLE_EQ(objective.score(input), 2.0 * 3.0 + 0.5 * 8.0);
}

TEST(ObjectiveTest, DescribeListsTermsAndWeights) {
  const std::string description = Objective::batch_fitness(0.05).describe();
  EXPECT_EQ(description, "throughput + 0.05*balance + 1e+07*feasibility");
  EXPECT_EQ(Objective().describe(), "<empty>");
}

TEST(ObjectiveTest, ScoringAnEmptyObjectiveIsAnInvariantViolation) {
  EXPECT_THROW(Objective().score(ObjectiveInput{}), InternalError);
}

TEST(ObjectiveTest, ExplicitBatchFitnessReproducesDefaultSearchExactly) {
  // A search with an explicitly spelled-out batch_fitness() must be
  // indistinguishable from one left at the default objective.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  Customization cust;
  cust.batch_sizes = {1, 2, 2};
  ASSERT_TRUE(cust.normalize(3).is_ok());

  CrossBranchOptions options;
  options.population = 24;
  options.iterations = 4;
  options.seed = 99;
  const SearchResult implicit =
      cross_branch_search(*model, budget, cust, options);
  options.objective = Objective::batch_fitness(0.05);
  const SearchResult composed =
      cross_branch_search(*model, budget, cust, options);

  EXPECT_EQ(implicit.fitness, composed.fitness);
  EXPECT_EQ(implicit.feasible, composed.feasible);
  EXPECT_EQ(implicit.trace.best_fitness, composed.trace.best_fitness);
  EXPECT_EQ(implicit.trace.convergence_iteration,
            composed.trace.convergence_iteration);
  ASSERT_EQ(implicit.config.branches.size(), composed.config.branches.size());
  for (std::size_t b = 0; b < implicit.config.branches.size(); ++b) {
    EXPECT_EQ(implicit.config.branches[b].batch,
              composed.config.branches[b].batch);
    EXPECT_EQ(implicit.config.branches[b].units,
              composed.config.branches[b].units);
  }
}

TEST(ObjectiveTest, CustomCompositionSteersTheSearch) {
  // An objective that only values branch balance (no throughput term) must
  // still drive a well-formed search; its winner scores no better than the
  // throughput-aware default under the default metric.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  Customization cust;
  ASSERT_TRUE(cust.normalize(3).is_ok());

  CrossBranchOptions options;
  options.population = 24;
  options.iterations = 4;
  options.seed = 5;
  const SearchResult default_winner =
      cross_branch_search(*model, budget, cust, options);

  Objective balance_only;
  Objective::Term balance = Objective::balance();
  balance_only.add(balance.name, 1.0, balance.value);
  Objective::Term feasibility = Objective::feasibility();
  balance_only.add(feasibility.name, 1e7, feasibility.value);
  options.objective = balance_only;
  const SearchResult balanced_winner =
      cross_branch_search(*model, budget, cust, options);

  ASSERT_EQ(balanced_winner.config.branches.size(), 3u);
  EXPECT_TRUE(balanced_winner.feasible);
  // Scored under the default objective, the specialist cannot beat the
  // generalist that optimized it.
  EXPECT_LE(Objective::batch_fitness().score(
                objective_input(balanced_winner.eval, cust.priorities, 0)),
            default_winner.fitness);
}

}  // namespace
}  // namespace fcad::dse
