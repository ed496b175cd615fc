// The pluggable cross-branch search strategy layer. Every search algorithm
// — the paper's particle swarm (Algorithm 1), pure random sampling, the
// parallel annealing ensemble, or a user-registered custom strategy — is a
// dse::Strategy driven by one shared round loop (run_strategy):
//
//   begin(ctx)                       once, seed RNG / build the population
//   repeat up to max_rounds(ctx):
//     propose(ctx, round)            candidate resource distributions
//     [framework] evaluate           parallel, fitness-memoized, bit-stable
//     accept(ctx, round, ...)        update internal state + the incumbent
//   finish(ctx, result)              post-loop trace fixups
//
// The framework owns everything a strategy should not reimplement: the
// thread-pool fan-out over candidates, the per-search branch tables
// (dse/in_branch.hpp) and FitnessCache, the RunControl contract
// (cancellation/deadline polling between rounds, one ProgressEvent per
// round), evaluation accounting, the final quantized evaluation of the
// winner into SearchResult::eval, and wall-clock timing. Candidate evaluation
// order never affects results: evaluations are pure functions of the
// proposed distribution and accept() sees them in proposal order.
//
// Strategies register by name (register_strategy) and are selected with
// SearchSpec::strategy, so every SearchKind — optimize, traffic, max-batch,
// sweep, convergence — can run under any registered strategy.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dse/cross_branch.hpp"
#include "dse/run_control.hpp"

namespace fcad::dse {

/// Everything one strategy run sees. The customization is already
/// normalized; options carry the evaluation budget (iterations x population
/// candidate evaluations) every strategy must respect so comparisons stay
/// compute-fair.
struct StrategyContext {
  const arch::ReorganizedModel& model;
  const ResourceBudget& budget;
  const Customization& customization;
  const CrossBranchOptions& options;
};

/// One search algorithm over resource distributions. Instances are stateful
/// and single-run: the registry hands out a fresh instance per search, so
/// implementations are free to keep RNGs and populations as members without
/// synchronization.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Resets state for a fresh run (RNG from ctx.options.seed, population).
  virtual void begin(const StrategyContext& ctx) = 0;

  /// Upper bound on propose/accept rounds for this context's budget.
  virtual int max_rounds(const StrategyContext& ctx) const = 0;

  /// Candidate distributions for `round`. Returning an empty batch ends the
  /// search early (budget exhausted before max_rounds).
  virtual std::vector<ResourceDistribution> propose(const StrategyContext& ctx,
                                                    int round) = 0;

  /// The scored batch, in proposal order. Implementations update internal
  /// state and fold improvements into `result` (config/distribution/
  /// fitness/feasible and the trace fields the strategy owns); the loop
  /// fills `result.eval` from the final config after finish().
  virtual void accept(const StrategyContext& ctx, int round,
                      const std::vector<ResourceDistribution>& proposed,
                      const std::vector<DistributionEval>& evals,
                      SearchResult& result) = 0;

  /// Post-loop trace fixup (the annealing ensemble rebuilds its
  /// per-iteration curve here). Default: no-op.
  virtual void finish(const StrategyContext& ctx, SearchResult& result);
};

/// Runs `strategy` under the shared round loop. When `scope` is set, the
/// loop polls it between rounds (cooperative cancellation / deadline) and
/// emits one ProgressEvent per round.
SearchResult run_strategy(Strategy& strategy, const StrategyContext& ctx,
                          const RunScope* scope = nullptr);

// ---- registry -------------------------------------------------------------

using StrategyFactory = std::function<std::unique_ptr<Strategy>()>;

/// The built-in strategy names: "particle-swarm" (Algorithm 1), "random",
/// "annealing". SearchSpec::strategy defaults to kDefaultStrategy.
inline constexpr const char* kDefaultStrategy = "particle-swarm";

/// Registers a strategy under `name`; fails on duplicates or empty names.
/// Thread-safe. Registered strategies are selectable by every SearchKind via
/// SearchSpec::strategy.
Status register_strategy(const std::string& name, StrategyFactory factory);

/// Factory lookup; "" resolves to kDefaultStrategy. kNotFound lists the
/// registered names so CLI typos are self-explanatory.
StatusOr<StrategyFactory> strategy_factory(const std::string& name);

/// Registered names, sorted (the built-ins plus any custom registrations).
std::vector<std::string> registered_strategy_names();

/// Convenience: resolve `name` and run it once under the shared loop.
StatusOr<SearchResult> run_search_strategy(const std::string& name,
                                           const arch::ReorganizedModel& model,
                                           const ResourceBudget& budget,
                                           const Customization& customization,
                                           const CrossBranchOptions& options,
                                           const RunScope* scope = nullptr);

}  // namespace fcad::dse
