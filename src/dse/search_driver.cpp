#include "dse/search_driver.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "dse/frontier.hpp"
#include "serving/service.hpp"
#include "sim/simulator.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace fcad::dse {

const char* to_string(SearchKind kind) {
  switch (kind) {
    case SearchKind::kOptimize:
      return "optimize";
    case SearchKind::kTraffic:
      return "traffic";
    case SearchKind::kMaxBatch:
      return "max-batch";
    case SearchKind::kSweep:
      return "sweep";
    case SearchKind::kConvergence:
      return "convergence";
  }
  return "unknown";
}

SearchResult SearchDriver::RunContext::search(
    const arch::ReorganizedModel& model, const ResourceBudget& budget,
    const Customization& cust, const CrossBranchOptions& opt) const {
  const std::unique_ptr<Strategy> instance = strategy();
  return run_strategy(*instance, StrategyContext{model, budget, cust, opt},
                      &scope);
}

StatusOr<SearchOutcome> SearchDriver::run(const SearchSpec& spec) const {
  const RunScope scope(spec.control);

  auto strategy = strategy_factory(spec.strategy);
  if (!strategy.is_ok()) return strategy.status();

  Customization customization = spec.customization;
  if (Status s = customization.normalize(model_.num_branches()); !s.is_ok()) {
    return s;
  }
  CrossBranchOptions options = spec.search;
  options.freq_mhz = platform_.freq_mhz;
  options.threads = scope.threads(spec.search.threads);
  // An empty spec objective keeps the kind's default. kTraffic scores
  // *serving* candidates with the spec objective; its inner hardware
  // searches keep the `search.objective` batch fitness.
  if (spec.kind != SearchKind::kTraffic && !spec.objective.empty()) {
    options.objective = spec.objective;
  }

  const RunContext run{customization, options, *strategy, scope};
  switch (spec.kind) {
    case SearchKind::kOptimize:
      return run_optimize(spec, run);
    case SearchKind::kMaxBatch:
      return run_max_batch(spec, run);
    case SearchKind::kConvergence:
      return run_convergence(spec, run);
    case SearchKind::kSweep:
      return run_sweep(spec, run);
    case SearchKind::kTraffic:
      return run_traffic(spec, run);
  }
  return Status::invalid_argument("SearchSpec: unknown kind");
}

StatusOr<SearchOutcome> SearchDriver::run_optimize(
    const SearchSpec& spec, const RunContext& run) const {
  (void)spec;
  SearchOutcome outcome;
  outcome.kind = SearchKind::kOptimize;
  const ResourceBudget budget = ResourceBudget::from_platform(platform_);
  outcome.search =
      run.search(model_, budget, run.customization, run.options);
  outcome.cancelled = outcome.search.stopped_early;
  return outcome;
}

StatusOr<SearchOutcome> SearchDriver::run_max_batch(
    const SearchSpec& spec, const RunContext& run) const {
  if (spec.batch_branch < 0 || spec.batch_branch >= model_.num_branches()) {
    return Status::invalid_argument("SearchSpec.batch_branch: bad index");
  }
  if (spec.batch_probe_limit < 1) {
    return Status::invalid_argument(
        "SearchSpec.batch_probe_limit must be >= 1");
  }
  SearchOutcome outcome;
  outcome.kind = SearchKind::kMaxBatch;
  const ResourceBudget budget = ResourceBudget::from_platform(platform_);

  int probes = 0;
  // Runs one search with `batch` as the probed branch's target. A feasible
  // probe becomes the outcome's winning search (the final winner is always
  // the probe at the reported max_batch: `lo` only ever advances to a
  // just-proven-feasible batch). A probe truncated by cancellation or the
  // deadline can still *prove* feasibility, but an infeasible verdict from
  // one is unreliable — the caller sees `aborted` and we stop probing.
  bool aborted = false;
  auto feasible_at = [&](int batch) {
    Customization cust = run.customization;
    cust.batch_sizes[static_cast<std::size_t>(spec.batch_branch)] = batch;
    CrossBranchOptions opt = run.options;
    opt.progress_label = "max-batch probe b=" + std::to_string(batch);
    SearchResult result = run.search(model_, budget, cust, opt);
    ++probes;
    run.scope.emit({"max-batch", probes, 0, result.fitness});
    outcome.cancelled |= result.stopped_early;
    const bool feasible = result.feasible;
    if (feasible || outcome.search.config.branches.empty()) {
      outcome.search = std::move(result);  // winner, or base diagnostics
    }
    aborted = outcome.cancelled && !feasible;
    return feasible;
  };

  // Exponential probe upward, then bisect the first infeasible gap.
  if (!feasible_at(1)) {
    outcome.max_batch = 0;
    return outcome;
  }
  int lo = 1;  // feasible
  int hi = 1;
  while (hi < spec.batch_probe_limit && !aborted) {
    if (run.scope.should_stop()) {
      outcome.cancelled = true;
      break;
    }
    hi = std::min(spec.batch_probe_limit, hi * 2);
    if (feasible_at(hi)) {
      lo = hi;
    } else {
      break;
    }
  }
  while (hi - lo > 1 && !aborted) {  // lo == hi: feasible to the probe limit
    if (run.scope.should_stop()) {
      outcome.cancelled = true;
      break;
    }
    const int mid = lo + (hi - lo) / 2;
    (feasible_at(mid) ? lo : hi) = mid;
  }
  outcome.max_batch = lo;
  return outcome;
}

StatusOr<SearchOutcome> SearchDriver::run_convergence(
    const SearchSpec& spec, const RunContext& run) const {
  const int runs = spec.convergence_runs;
  if (runs < 1) {
    return Status::invalid_argument(
        "SearchSpec.convergence_runs must be >= 1");
  }
  SearchOutcome outcome;
  outcome.kind = SearchKind::kConvergence;
  ConvergenceStats& stats = outcome.convergence;
  stats.runs = runs;
  stats.min_iterations = 1e18;
  const ResourceBudget budget = ResourceBudget::from_platform(platform_);

  // The independent searches are the outermost (and cheapest-to-split)
  // parallelism axis: each run is pre-seeded here, executed on the pool, and
  // aggregated below in run order.
  util::ThreadPool& pool = util::ThreadPool::shared(run.options.threads);
  const std::vector<SearchResult> results = pool.parallel_map<SearchResult>(
      runs, [&](std::int64_t r) {
        CrossBranchOptions opt = run.options;
        opt.seed = run.options.seed +
                   7919ULL * (static_cast<std::uint64_t>(r) + 1);
        opt.progress_label =
            "convergence run " + std::to_string(r + 1) + "/" +
            std::to_string(runs);
        return run.search(model_, budget, run.customization, opt);
      });

  double min_fitness = 0;
  double max_fitness = 0;
  for (int r = 0; r < runs; ++r) {
    const SearchResult& result = results[static_cast<std::size_t>(r)];
    outcome.cancelled |= result.stopped_early;
    const double iters = result.trace.convergence_iteration;
    stats.mean_iterations += iters;
    stats.min_iterations = std::min(stats.min_iterations, iters);
    stats.max_iterations = std::max(stats.max_iterations, iters);
    stats.mean_seconds += result.seconds;
    stats.mean_fitness += result.fitness;
    if (r == 0) {
      min_fitness = max_fitness = result.fitness;
    } else {
      min_fitness = std::min(min_fitness, result.fitness);
      max_fitness = std::max(max_fitness, result.fitness);
    }
  }
  stats.mean_iterations /= runs;
  stats.mean_seconds /= runs;
  stats.mean_fitness /= runs;
  stats.fitness_spread = max_fitness - min_fitness;
  run.scope.emit({"convergence", runs, runs, stats.mean_fitness});
  return outcome;
}

StatusOr<SearchOutcome> SearchDriver::run_sweep(
    const SearchSpec& spec, const RunContext& run) const {
  if (spec.sweep.datapaths.empty() || spec.sweep.frequencies_mhz.empty() ||
      spec.sweep.batch_scales.empty()) {
    return Status::invalid_argument("SearchSpec.sweep: empty grid");
  }
  for (double f : spec.sweep.frequencies_mhz) {
    if (f <= 0) {
      return Status::invalid_argument("SearchSpec.sweep: bad frequency");
    }
  }
  for (int s : spec.sweep.batch_scales) {
    if (s < 1) {
      return Status::invalid_argument(
          "SearchSpec.sweep: batch scale must be >= 1");
    }
  }

  // The default frontier's cost axis follows from the grid: DSPs when every
  // datapath is pipelined on DSP multipliers, else the precision penalty,
  // because LUT-fabric int4 consumes zero DSPs and would otherwise dominate
  // every other datapath.
  bool dsp_axis = true;
  for (const std::string& name : spec.sweep.datapaths) {
    auto dp = arch::datapath_from_string(name);
    if (!dp.is_ok()) {
      return Status::invalid_argument("SearchSpec.sweep: " +
                                      dp.status().message());
    }
    dsp_axis &= dp->mac == arch::MacStyle::kPipelined && !dp->lut_multipliers();
  }

  SearchOutcome outcome;
  outcome.kind = SearchKind::kSweep;

  // Grid points are independent searches: run them across the pool and
  // collect into grid-ordered slots.
  std::vector<SweepPoint> grid;
  for (const std::string& datapath : spec.sweep.datapaths) {
    for (double freq : spec.sweep.frequencies_mhz) {
      for (int scale : spec.sweep.batch_scales) {
        SweepPoint point;
        point.datapath = datapath;
        point.freq_mhz = freq;
        point.batch_scale = scale;
        grid.push_back(point);
      }
    }
  }

  util::ThreadPool& pool = util::ThreadPool::shared(run.options.threads);
  std::vector<SearchResult> results = pool.parallel_map<SearchResult>(
      static_cast<std::int64_t>(grid.size()), [&](std::int64_t i) {
        const SweepPoint& point = grid[static_cast<std::size_t>(i)];
        Customization cust = run.customization;
        cust.datapath = point.datapath;
        for (int& b : cust.batch_sizes) b *= point.batch_scale;
        CrossBranchOptions opt = run.options;
        opt.freq_mhz = point.freq_mhz;
        opt.progress_label =
            "sweep " + point.datapath + "@" +
            format_fixed(point.freq_mhz, 0) + "MHz" +
            (point.batch_scale > 1
                 ? " x" + std::to_string(point.batch_scale)
                 : "");
        arch::Platform platform = platform_;
        platform.freq_mhz = point.freq_mhz;
        return run.search(model_, ResourceBudget::from_platform(platform),
                          cust, opt);
      });

  std::vector<SweepPoint>& points = outcome.sweep;
  points = std::move(grid);
  for (std::size_t i = 0; i < points.size(); ++i) {
    outcome.cancelled |= results[i].stopped_early;
    points[i].result = std::move(results[i]);
  }

  // Default frontier: maximize min-FPS against the cost axis chosen above.
  // Infeasible points never make the frontier. Callers wanting other axes
  // re-extract from the outcome with any Objective term pair
  // (dse/frontier.hpp).
  const std::vector<FrontierPoint> frontier = extract_frontier(
      outcome, Objective::min_throughput(),
      dsp_axis ? Objective::dsp_cost() : Objective::accuracy_proxy());
  for (const FrontierPoint& point : frontier) {
    points[point.index].pareto_optimal = point.on_frontier;
  }
  return outcome;
}

namespace {

/// Replays the traffic spec at `users` concurrent streams on `service`.
/// `workload.branches` is derived from the service model here — the one
/// place it is set. The scope makes huge replays interruptible (and streams
/// partial percentile estimates as progress).
StatusOr<serving::ServingStats> replay_traffic(
    const serving::ServiceModel& service, const TrafficSpec& traffic,
    int users, const RunScope* scope) {
  serving::WorkloadOptions workload = traffic.workload;
  workload.users = users;
  workload.branches = service.num_branches();
  auto requests = serving::generate_workload(workload);
  if (!requests.is_ok()) return requests.status();
  serving::ServeSpec serve;
  serve.fleet = traffic.fleet;
  return serving::simulate_fleet(service, *requests, serve, scope);
}

}  // namespace

StatusOr<SearchOutcome> SearchDriver::run_traffic(
    const SearchSpec& spec, const RunContext& run) const {
  const TrafficSpec& traffic = spec.traffic;
  if (traffic.workload.users < 1) {
    return Status::invalid_argument(
        "TrafficSpec.workload.users must be >= 1");
  }
  if (traffic.max_batch < 1) {
    return Status::invalid_argument("TrafficSpec.max_batch must be >= 1");
  }
  // The request fan-out per frame is a property of the model, not an input;
  // reject caller-set values instead of silently overwriting them (the
  // legacy TrafficProfile footgun).
  if (traffic.workload.branches != serving::WorkloadOptions{}.branches) {
    return Status::invalid_argument(
        "TrafficSpec.workload.branches is derived from the model (got " +
        std::to_string(traffic.workload.branches) +
        "); leave it at its default");
  }
  const Objective objective =
      spec.objective.empty() ? Objective::sla() : spec.objective;

  SearchOutcome outcome;
  outcome.kind = SearchKind::kTraffic;
  const ResourceBudget budget = ResourceBudget::from_platform(platform_);

  // Probe doubling batch multipliers; each candidate gets its own hardware
  // search, then a serving replay of the traffic spec. Candidates are
  // independent, so they are scored in parallel and reduced in multiplier
  // order below — identical outcome to a sequential probe.
  std::vector<int> multipliers;
  for (int mult = 1; mult <= traffic.max_batch; mult *= 2) {
    multipliers.push_back(mult);
  }

  /// Outcome of one batch-multiplier candidate, reduced in probe order.
  struct Candidate {
    bool produced = false;     ///< scored end to end
    bool hard_failed = false;  ///< replay error that aborts the whole search
    Status error;              ///< skip reason or hard error
    TrafficSearchResult result;
  };

  auto score_candidate = [&](int mult) -> Candidate {
    Candidate out;
    if (run.scope.should_stop()) {
      out.error = Status::cancelled("traffic candidate skipped: cancelled");
      return out;
    }
    Customization cust = run.customization;
    for (int& b : cust.batch_sizes) b *= mult;
    CrossBranchOptions opt = run.options;
    opt.progress_label = "traffic x" + std::to_string(mult);
    SearchResult search = run.search(model_, budget, cust, opt);

    serving::ServiceModel service;
    if (traffic.use_simulator) {
      const sim::SimResult simulated =
          sim::simulate(model_, search.config, platform_);
      service = serving::service_model_from_sim(search.config, simulated);
    } else {
      service = serving::service_model_from_eval(search.config, search.eval);
    }

    // A cancelled replay skips the candidate (the run winds down with its
    // best-so-far winner); any other replay error aborts the whole search.
    auto fail = [&](Status status) {
      out.hard_failed = status.code() != StatusCode::kCancelled;
      out.error = std::move(status);
    };
    auto stats_at = [&](int users) {
      return replay_traffic(service, traffic, users, &run.scope);
    };
    auto first = stats_at(traffic.workload.users);
    if (!first.is_ok()) {
      fail(first.status());
      return out;
    }
    serving::ServingStats stats = std::move(*first);
    int users_served = stats.sla_met ? traffic.workload.users : 0;

    // Bisects (lo meets the SLA, hi does not) to the largest SLA-meeting
    // user count, leaving that count's replay in `best`.
    auto bisect_users = [&](int lo, int hi,
                            serving::ServingStats& best) -> StatusOr<int> {
      while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        auto probe = stats_at(mid);
        if (!probe.is_ok()) return probe.status();
        if (probe->sla_met) {
          lo = mid;
          best = std::move(*probe);
        } else {
          hi = mid;
        }
      }
      return lo;
    };

    if (stats.sla_met && traffic.max_users > traffic.workload.users) {
      // Maximize the served user count: double to the first SLA miss, then
      // bisect the gap.
      int lo = traffic.workload.users;
      int hi = lo;
      while (hi < traffic.max_users) {
        hi = std::min(traffic.max_users, hi * 2);
        auto probe = stats_at(hi);
        if (!probe.is_ok()) {
          fail(probe.status());
          return out;
        }
        if (probe->sla_met) {
          lo = hi;
          stats = std::move(*probe);
        } else {
          break;
        }
      }
      auto served = bisect_users(lo, hi, stats);
      if (!served.is_ok()) {
        fail(served.status());
        return out;
      }
      users_served = *served;
    } else if (!stats.sla_met && traffic.workload.users > 1) {
      // Over capacity at the requested count: find the largest user count
      // this candidate can still serve within the bound.
      int hi = traffic.workload.users;
      int lo = 0;
      serving::ServingStats lo_stats;
      for (int probe_users = hi / 2; probe_users >= 1; probe_users /= 2) {
        auto probe = stats_at(probe_users);
        if (!probe.is_ok()) {
          fail(probe.status());
          return out;
        }
        if (probe->sla_met) {
          lo = probe_users;
          lo_stats = std::move(*probe);
          break;
        }
        hi = probe_users;
      }
      if (lo >= 1) {
        auto served = bisect_users(lo, hi, lo_stats);
        if (!served.is_ok()) {
          fail(served.status());
          return out;
        }
        users_served = *served;
        stats = std::move(lo_stats);
      }
      // lo == 0: not even one user fits; keep the diagnostic stats at the
      // requested count.
    }

    ObjectiveInput input =
        objective_input(search.eval, cust.priorities, /*unmet_targets=*/0);
    input.has_serving = true;
    input.users_served = users_served;
    input.p99_latency_us = stats.latency.p99;
    input.sla_bound_us = stats.sla_bound_us;
    input.sla_violation_rate = stats.sla_violation_rate;
    out.result.sla_fitness = objective.score(input);
    out.result.search = std::move(search);
    out.result.batch_sizes = cust.batch_sizes;
    out.result.users_served = users_served;
    out.result.sla_met = stats.sla_met;
    out.result.stats = std::move(stats);
    out.produced = true;
    run.scope.emit({"traffic x" + std::to_string(mult), mult,
                    traffic.max_batch, out.result.sla_fitness});
    return out;
  };

  util::ThreadPool& pool = util::ThreadPool::shared(run.options.threads);
  std::vector<Candidate> candidates = pool.parallel_map<Candidate>(
      static_cast<std::int64_t>(multipliers.size()), [&](std::int64_t i) {
        return score_candidate(multipliers[static_cast<std::size_t>(i)]);
      });

  bool have_best = false;
  Status last_error = Status::infeasible(
      "traffic search: no candidate produced a design");
  for (Candidate& candidate : candidates) {
    if (candidate.hard_failed) return candidate.error;
    if (!candidate.produced) {
      last_error = candidate.error;
      continue;
    }
    if (!have_best ||
        candidate.result.sla_fitness > outcome.traffic.sla_fitness) {
      outcome.traffic = std::move(candidate.result);
      have_best = true;
    }
  }
  outcome.cancelled = run.scope.should_stop();
  if (!have_best && !outcome.cancelled) return last_error;
  return outcome;
}

}  // namespace fcad::dse
