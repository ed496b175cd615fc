// The unified DSE entry point: every optimization scenario — the plain
// cross-branch search, SLA-aware traffic search, maximum-batch probing, the
// datapath x frequency sweep, and the repeated-search convergence study
// — is one SearchDriver::run(SearchSpec) call. The spec carries the shared
// pieces exactly once (customization, swarm options, a pluggable Objective,
// and a RunControl with progress/cancellation/deadline/threads), replacing
// the five bespoke request structs of the legacy dse/engine.hpp facade.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "dse/cross_branch.hpp"
#include "dse/objective.hpp"
#include "dse/run_control.hpp"
#include "dse/strategy.hpp"
#include "serving/fleet.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"

namespace fcad::dse {

enum class SearchKind {
  kOptimize,     ///< one cross-branch search (Algorithm 1)
  kTraffic,      ///< SLA-aware serving search (batch scaling under load)
  kMaxBatch,     ///< largest feasible batch target for one branch
  kSweep,        ///< datapath x frequency x batch-scale grid, Pareto-marked
  kConvergence,  ///< statistics over repeated independent searches
};

const char* to_string(SearchKind kind);

/// Traffic description for SearchKind::kTraffic. `workload.branches` must
/// stay at its default (it is derived from the model). Candidates are scored
/// by Objective::sla at `fleet.sla_bound_us` unless SearchSpec::objective
/// overrides the scoring.
struct TrafficSpec {
  /// Arrival process over `users` streams. Leave `branches` alone.
  serving::WorkloadOptions workload;
  /// Fleet shape, batching timeout, and the p99 bound (`sla_bound_us`).
  serving::FleetOptions fleet;
  int max_batch = 8;  ///< largest uniform batch multiplier probed (doubling)
  /// When > workload.users: additionally maximize the served user count up
  /// to this cap (doubling + bisection per candidate config).
  int max_users = 0;
  /// Score candidates on the cycle-level simulator's service times instead
  /// of the analytical estimate (slower, closer to the board).
  bool use_simulator = false;
};

/// Grid for SearchKind::kSweep: `datapaths` holds canonical arch::Datapath
/// names ("pipelined-int8", "staged-int8x4", ...; see arch/datapath.hpp).
/// `batch_scales` multiplies every branch's batch target per point (default
/// {1}: no scaling), making the sweep a joint precision x microarchitecture
/// x batch grid.
struct SweepGrid {
  std::vector<std::string> datapaths = {"pipelined-int8", "pipelined-int16"};
  std::vector<double> frequencies_mhz = {150, 200, 300};
  std::vector<int> batch_scales = {1};  ///< per-point batch multipliers (>= 1)
};

/// Statistics over repeated independent searches (different seeds).
struct ConvergenceStats {
  int runs = 0;
  double mean_iterations = 0;  ///< iterations until the global best settled
  double min_iterations = 0;
  double max_iterations = 0;
  double mean_seconds = 0;
  double mean_fitness = 0;
  double fitness_spread = 0;  ///< max - min final fitness across runs
};

/// Winner of a kTraffic run.
struct TrafficSearchResult {
  SearchResult search;           ///< winning hardware search result
  std::vector<int> batch_sizes;  ///< per-branch batch targets of the winner
  int users_served = 0;  ///< largest user count meeting the SLA (0: none)
  serving::ServingStats stats;  ///< serving stats at the scored user count
  /// p99 within fleet.sla_bound_us *at users_served* — which may be below
  /// the requested workload.users when the traffic had to be degraded.
  bool sla_met = false;
  double sla_fitness = 0;  ///< serving-objective score of the winner
};

/// One kSweep grid point.
struct SweepPoint {
  /// Canonical datapath name of the point ("pipelined-int8", ...).
  std::string datapath;
  double freq_mhz = 200.0;
  int batch_scale = 1;  ///< batch multiplier applied to every branch target
  SearchResult result;
  /// On the grid's default frontier, marked via dse::extract_frontier: min
  /// FPS up vs DSPs down when every datapath on the axis is pipelined on DSP
  /// multipliers, else min FPS up vs accuracy penalty down (where 0-DSP
  /// LUT-fabric int4 would otherwise dominate the resource axis). Other term
  /// pairs can be extracted from the same outcome (dse/frontier.hpp).
  bool pareto_optimal = false;
};

/// One search request. `kind` selects the scenario; the fields below the
/// fold only apply to their kind and are ignored otherwise.
struct SearchSpec {
  SearchKind kind = SearchKind::kOptimize;
  /// Search algorithm, by registry name (dse/strategy.hpp): "particle-swarm"
  /// (Algorithm 1, the default), "random", "annealing", or any custom
  /// strategy registered with register_strategy(). Every kind — including
  /// the inner searches of kTraffic/kMaxBatch/kSweep/kConvergence — runs
  /// under the selected strategy; unknown names are rejected by run().
  /// "" selects the default.
  std::string strategy = "particle-swarm";
  /// User customization (datapath, batch targets, priorities).
  /// Normalized by the driver; arity mismatches are rejected.
  Customization customization;
  /// Swarm parameters. `freq_mhz` and `threads` are resolved by the driver
  /// (from the platform and `control`, respectively).
  CrossBranchOptions search;
  /// Candidate objective. Empty uses the kind's default: `search.objective`
  /// (Objective::batch_fitness() unless set) everywhere except kTraffic,
  /// whose serving candidates score with Objective::sla at
  /// `fleet.sla_bound_us`. For kTraffic a non-empty objective replaces the
  /// *serving* score; the inner hardware searches keep `search.objective`.
  Objective objective;
  /// Progress observer, cancellation token, deadline, thread override.
  RunControl control;

  TrafficSpec traffic;         ///< kTraffic
  int batch_branch = 0;        ///< kMaxBatch: branch whose batch is probed
  int batch_probe_limit = 16;  ///< kMaxBatch: doubling/bisection ceiling
  SweepGrid sweep;             ///< kSweep
  int convergence_runs = 10;   ///< kConvergence
};

/// Result of SearchDriver::run. Only the member matching the spec's kind is
/// populated (kOptimize/kMaxBatch also fill `search` with the winning /
/// last-probed search).
struct SearchOutcome {
  SearchKind kind = SearchKind::kOptimize;
  /// The run was cancelled or hit its deadline; populated members hold the
  /// best results produced up to that point.
  bool cancelled = false;
  SearchResult search;           ///< kOptimize, kMaxBatch
  TrafficSearchResult traffic;   ///< kTraffic
  int max_batch = 0;             ///< kMaxBatch (0: even batch 1 infeasible)
  std::vector<SweepPoint> sweep; ///< kSweep
  ConvergenceStats convergence;  ///< kConvergence
};

/// Runs any SearchSpec against one reorganized model + platform budget.
/// Holds a reference to the model: it must outlive the driver. Stateless
/// otherwise — run() may be called repeatedly (and from different threads,
/// with distinct specs).
class SearchDriver {
 public:
  SearchDriver(const arch::ReorganizedModel& model, arch::Platform platform)
      : model_(model), platform_(std::move(platform)) {}

  StatusOr<SearchOutcome> run(const SearchSpec& spec) const;

  const arch::ReorganizedModel& model() const { return model_; }
  const arch::Platform& platform() const { return platform_; }

 private:
  /// Resolved per-run context shared by every kind: the normalized
  /// customization, driver-adjusted options, the selected strategy's
  /// factory (a fresh instance per inner search), and the run scope.
  struct RunContext {
    const Customization& customization;
    const CrossBranchOptions& options;
    const StrategyFactory& strategy;
    const RunScope& scope;

    /// One inner search under this run's strategy; `opt`/`cust` carry the
    /// per-candidate overrides (probed batch, sweep grid point, ...).
    SearchResult search(const arch::ReorganizedModel& model,
                        const ResourceBudget& budget,
                        const Customization& cust,
                        const CrossBranchOptions& opt) const;
  };

  StatusOr<SearchOutcome> run_optimize(const SearchSpec& spec,
                                       const RunContext& run) const;
  StatusOr<SearchOutcome> run_max_batch(const SearchSpec& spec,
                                        const RunContext& run) const;
  StatusOr<SearchOutcome> run_convergence(const SearchSpec& spec,
                                          const RunContext& run) const;
  StatusOr<SearchOutcome> run_sweep(const SearchSpec& spec,
                                    const RunContext& run) const;
  StatusOr<SearchOutcome> run_traffic(const SearchSpec& spec,
                                      const RunContext& run) const;

  const arch::ReorganizedModel& model_;
  arch::Platform platform_;
};

}  // namespace fcad::dse
