// Cross-branch search vocabulary: options, traces, results, and the shared
// candidate evaluation (in-branch greedy configuration + fitness) every
// search strategy optimizes. The search algorithms themselves live behind
// the pluggable dse::Strategy interface (dse/strategy.hpp); Algorithm 1 —
// the particle-swarm search over resource distribution schemes, where each
// of P candidates is a per-branch split of {Cmax, Mmax, BWmax} — is the
// registered "particle-swarm" strategy, reachable directly through
// cross_branch_search() below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/evaluate.hpp"
#include "dse/design_space.hpp"
#include "dse/in_branch.hpp"
#include "dse/objective.hpp"
#include "dse/run_control.hpp"

namespace fcad::dse {

struct CrossBranchOptions {
  int iterations = 20;    ///< N of Sec. VII
  int population = 200;   ///< P of Sec. VII
  std::uint64_t seed = 1;
  /// Candidate evaluations per iteration run on a util::ThreadPool of this
  /// size (0 = one thread per hardware core, 1 = fully serial). Results are
  /// bit-identical for any value: RNG streams are drawn outside the parallel
  /// region and reductions happen in candidate order.
  int threads = 0;
  /// Accelerator clock (from the target platform).
  double freq_mhz = 200.0;
  /// Candidate objective, the one fitness of this search and of every
  /// registered strategy (dse/strategy.hpp). Defaults to the paper's batch
  /// fitness; the variance weight alpha is set here, through
  /// Objective::batch_fitness(alpha). Must not be empty.
  Objective objective = Objective::batch_fitness();
  /// Stage name used in ProgressEvents emitted by this search.
  std::string progress_label = "search";
};

struct SearchTrace {
  std::vector<double> best_fitness;  ///< global best after each iteration
  /// First iteration (1-based) after which the global best stopped
  /// improving (the paper's convergence-iteration metric).
  int convergence_iteration = 0;
  std::int64_t evaluations = 0;  ///< in-branch optimizations performed
  /// Fitness-memoization traffic: candidates whose discrete configuration
  /// was already resident this search (hits) vs the distinct configurations
  /// (misses) — the same split for any thread count.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

struct SearchResult {
  arch::AcceleratorConfig config;       ///< Config_global^best
  arch::AcceleratorEval eval;           ///< evaluation of that config
  ResourceDistribution distribution;    ///< rd_global^best
  double fitness = 0;
  bool feasible = false;  ///< all batch targets met within the budget
  SearchTrace trace;
  double seconds = 0;  ///< wall-clock DSE time
  /// Cancelled or hit the deadline before finishing all iterations; the
  /// result is the best seen up to that point.
  bool stopped_early = false;
};

/// Runs Algorithm 1 (the registered "particle-swarm" strategy under the
/// shared strategy loop). `customization` must already be normalized. When
/// `scope` is set, the loop polls it between iterations (cooperative
/// cancellation / deadline) and emits one ProgressEvent per iteration.
SearchResult cross_branch_search(const arch::ReorganizedModel& model,
                                 const ResourceBudget& budget,
                                 const Customization& customization,
                                 const CrossBranchOptions& options,
                                 const RunScope* scope = nullptr);

/// Evaluation of one resource-distribution candidate: in-branch greedy
/// configuration (Algorithm 2) per branch + fitness. The shared strategy
/// loop (dse/strategy.hpp) scores every proposed candidate through this one
/// function, so all strategies optimize exactly the same objective as
/// Algorithm 1. The full arch::AcceleratorEval of a candidate is not kept:
/// the loop evaluates the winner once, into SearchResult::eval.
struct DistributionEval {
  arch::AcceleratorConfig config;
  double fitness = 0;
  bool feasible = false;
};

class FitnessCache;

/// Pure function of (model, budget, rd, customization, options); safe to
/// call concurrently from pool workers. `tables` are the model's branch
/// tables on the customization's datapath (build_branch_tables). When
/// `cache` is non-null, the post-quantization fitness is memoized by
/// discrete-config hash (see dse/fitness_cache.hpp); the cache must belong
/// to this search context.
DistributionEval evaluate_distribution(const arch::ReorganizedModel& model,
                                       const std::vector<BranchTable>& tables,
                                       const ResourceBudget& budget,
                                       const ResourceDistribution& rd,
                                       const Customization& customization,
                                       const CrossBranchOptions& options,
                                       SearchTrace& trace,
                                       FitnessCache* cache = nullptr);

/// The demand-proportional warm-start distribution used to seed Algorithm
/// 1's swarm (compute ∝ owned MACs x batch, memory ∝ minimum-parallelism
/// BRAM floor, bandwidth ∝ stream bytes).
ResourceDistribution demand_proportional_distribution(
    const arch::ReorganizedModel& model, const Customization& customization);

}  // namespace fcad::dse
