#include "dse/strategy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "dse/fitness_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fcad::dse {
namespace {

ResourceDistribution random_distribution(Rng& rng, int branches) {
  ResourceDistribution rd;
  rd.c_frac = rng.next_simplex(static_cast<std::size_t>(branches));
  rd.m_frac = rng.next_simplex(static_cast<std::size_t>(branches));
  rd.bw_frac = rng.next_simplex(static_cast<std::size_t>(branches));
  return rd;
}

/// Projects a fraction vector back onto the simplex (non-negative floor, sum
/// of 1) after an evolution/neighbor move.
void renormalize(std::vector<double>& frac) {
  constexpr double kFloor = 0.01;
  double sum = 0;
  for (double& f : frac) {
    f = std::max(f, kFloor);
    sum += f;
  }
  for (double& f : frac) f /= sum;
}

/// Records a candidate into `result` if it improves the incumbent.
void consider(const DistributionEval& ce, const ResourceDistribution& rd,
              int iteration, SearchResult& result) {
  if (ce.fitness > result.fitness) {
    result.fitness = ce.fitness;
    result.config = ce.config;
    result.distribution = rd;
    result.feasible = ce.feasible;
    result.trace.convergence_iteration = iteration;
  }
}

// ---- particle swarm (Algorithm 1) -----------------------------------------

/// One PSO-style move of `frac` toward the local and global bests by a
/// random distance, plus uniform jitter (Algorithm 1, line 16).
void evolve(std::vector<double>& frac, const std::vector<double>& local_best,
            const std::vector<double>& global_best, Rng& rng) {
  // Attraction weights toward each best, scaled by a U[0,1) draw per move.
  constexpr double kLocalWeight = 0.7;
  constexpr double kGlobalWeight = 0.7;
  constexpr double kJitter = 0.05;  // uniform mutation half-width
  const double r1 = rng.next_double() * kLocalWeight;
  const double r2 = rng.next_double() * kGlobalWeight;
  for (std::size_t j = 0; j < frac.size(); ++j) {
    frac[j] += r1 * (local_best[j] - frac[j]) +
               r2 * (global_best[j] - frac[j]) +
               rng.next_range(-kJitter, kJitter);
  }
  renormalize(frac);
}

/// Algorithm 1: per round, every particle is scored and then evolved a
/// random distance toward its local best and the global best. Round r
/// proposes the swarm positions after r evolution steps, so the RNG draw
/// order (init draws, then one evolve pass per subsequent round) is
/// identical to the classic single-function swarm loop — results are
/// bit-for-bit the same.
class ParticleSwarmStrategy : public Strategy {
 public:
  void begin(const StrategyContext& ctx) override {
    const CrossBranchOptions& opt = ctx.options;
    rng_ = Rng(opt.seed);
    swarm_.assign(static_cast<std::size_t>(opt.population), Particle{});

    // Line 4: initial population RD^0 — mostly random, seeded with the
    // demand-proportional warm start plus jittered variants of it (about a
    // tenth of the swarm).
    const ResourceDistribution demand =
        demand_proportional_distribution(ctx.model, ctx.customization);
    const int warm = std::max(1, opt.population / 10);
    for (int i = 0; i < opt.population; ++i) {
      Particle& p = swarm_[static_cast<std::size_t>(i)];
      if (i < warm) {
        p.rd = demand;
        if (i > 0) {  // jittered copies around the warm start
          for (auto* frac : {&p.rd.c_frac, &p.rd.m_frac, &p.rd.bw_frac}) {
            for (double& f : *frac) f += rng_.next_range(-0.05, 0.05);
            renormalize(*frac);
          }
        }
      } else {
        p.rd = random_distribution(rng_, ctx.model.num_branches());
      }
      p.best_rd = p.rd;
    }
  }

  int max_rounds(const StrategyContext& ctx) const override {
    return ctx.options.iterations;
  }

  std::vector<ResourceDistribution> propose(const StrategyContext&,
                                            int round) override {
    if (round > 0) {
      // Line 16: evolve every particle toward its bests.
      for (Particle& p : swarm_) {
        evolve(p.rd.c_frac, p.best_rd.c_frac, global_best_.c_frac, rng_);
        evolve(p.rd.m_frac, p.best_rd.m_frac, global_best_.m_frac, rng_);
        evolve(p.rd.bw_frac, p.best_rd.bw_frac, global_best_.bw_frac, rng_);
      }
    }
    std::vector<ResourceDistribution> batch;
    batch.reserve(swarm_.size());
    for (const Particle& p : swarm_) batch.push_back(p.rd);
    return batch;
  }

  void accept(const StrategyContext&, int round,
              const std::vector<ResourceDistribution>&,
              const std::vector<DistributionEval>& evals,
              SearchResult& result) override {
    // Line 13: update local and global bests, walking the batch in particle
    // order so the outcome is bit-identical to a serial sweep.
    for (std::size_t i = 0; i < swarm_.size(); ++i) {
      Particle& p = swarm_[i];
      const DistributionEval& ce = evals[i];
      if (ce.fitness > p.best_fitness) {
        p.best_fitness = ce.fitness;
        p.best_rd = p.rd;
      }
      if (ce.fitness > result.fitness) {
        consider(ce, p.rd, round + 1, result);
        global_best_ = p.rd;
      }
    }
    result.trace.best_fitness.push_back(result.fitness);
  }

 private:
  struct Particle {
    ResourceDistribution rd;
    ResourceDistribution best_rd;  ///< rd_i^best
    double best_fitness = -1e300;
  };

  Rng rng_{0};
  std::vector<Particle> swarm_;
  ResourceDistribution global_best_;  ///< rd_global^best
};

// ---- random sampling -------------------------------------------------------

/// Pure random sampling of resource distributions. Candidate streams are
/// forked from the master RNG per round, so the draw order cannot depend on
/// evaluation scheduling.
class RandomSamplingStrategy : public Strategy {
 public:
  void begin(const StrategyContext& ctx) override {
    rng_ = Rng(ctx.options.seed);
  }

  int max_rounds(const StrategyContext& ctx) const override {
    return ctx.options.iterations;
  }

  std::vector<ResourceDistribution> propose(const StrategyContext& ctx,
                                            int) override {
    const auto population = static_cast<std::size_t>(ctx.options.population);
    std::vector<ResourceDistribution> batch;
    batch.reserve(population);
    for (std::size_t i = 0; i < population; ++i) {
      Rng stream = rng_.fork(static_cast<std::uint64_t>(i));
      batch.push_back(random_distribution(stream, ctx.model.num_branches()));
    }
    return batch;
  }

  void accept(const StrategyContext&, int round,
              const std::vector<ResourceDistribution>& proposed,
              const std::vector<DistributionEval>& evals,
              SearchResult& result) override {
    for (std::size_t i = 0; i < proposed.size(); ++i) {
      consider(evals[i], proposed[i], round + 1, result);
    }
    result.trace.best_fitness.push_back(result.fitness);
  }

 private:
  Rng rng_{0};
};

// ---- simulated annealing ---------------------------------------------------

/// Parallel multi-start annealing: kAnnealingChains independent chains split
/// the iterations x population evaluation budget, each on its own RNG stream
/// forked from the seed (SplitMix64 fork, so chains are decorrelated). Chain
/// 0 starts from the demand-proportional point — the head start a single
/// chain would enjoy — and the rest from random draws. Chains advance in
/// lock-step: each round proposes one neighbor per live chain, so the
/// framework evaluates the ensemble's step in parallel while every chain's
/// private RNG sequence stays identical to a serial walk.
class AnnealingStrategy : public Strategy {
 public:
  /// Chains of the ensemble. Fixed (never derived from the pool size) so
  /// results are identical for any thread count.
  static constexpr int kChains = 8;

  void begin(const StrategyContext& ctx) override {
    const CrossBranchOptions& opt = ctx.options;
    Rng root(opt.seed);
    const long total_steps = static_cast<long>(opt.iterations) * opt.population;
    const int chains = static_cast<int>(std::min<long>(kChains, total_steps));
    chains_.assign(static_cast<std::size_t>(chains), Chain{});
    max_rounds_ = 0;
    for (int c = 0; c < chains; ++c) {
      Chain& chain = chains_[static_cast<std::size_t>(c)];
      chain.rng = root.fork(static_cast<std::uint64_t>(c));
      chain.steps = total_steps / chains + (c < total_steps % chains ? 1 : 0);
      max_rounds_ = std::max(max_rounds_, static_cast<int>(chain.steps));
      chain.current =
          c == 0 ? demand_proportional_distribution(ctx.model,
                                                    ctx.customization)
                 : random_distribution(chain.rng, ctx.model.num_branches());
      chain.best_by_step.reserve(static_cast<std::size_t>(chain.steps));
    }
  }

  int max_rounds(const StrategyContext&) const override { return max_rounds_; }

  std::vector<ResourceDistribution> propose(const StrategyContext&,
                                            int round) override {
    std::vector<ResourceDistribution> batch;
    batch.reserve(chains_.size());
    for (Chain& chain : chains_) {
      if (round >= chain.steps) continue;
      if (round == 0) {
        batch.push_back(chain.current);
        continue;
      }
      // Geometric temperature schedule in fitness units, adapted to the
      // start point's magnitude; the move radius shrinks as the chain cools.
      const double progress =
          chain.steps > 2 ? static_cast<double>(round - 1) /
                                static_cast<double>(chain.steps - 2)
                          : 1.0;
      const double radius = 0.02 + 0.18 * (1.0 - progress);
      ResourceDistribution neighbor = chain.current;
      for (auto* frac :
           {&neighbor.c_frac, &neighbor.m_frac, &neighbor.bw_frac}) {
        for (double& f : *frac) f += chain.rng.next_range(-radius, radius);
        renormalize(*frac);
      }
      chain.proposed = neighbor;
      batch.push_back(std::move(neighbor));
    }
    return batch;
  }

  void accept(const StrategyContext&, int round,
              const std::vector<ResourceDistribution>& proposed,
              const std::vector<DistributionEval>& evals,
              SearchResult& result) override {
    std::size_t slot = 0;
    for (Chain& chain : chains_) {
      if (round >= chain.steps) continue;
      const DistributionEval& ce = evals[slot];
      consider(ce, proposed[slot], 1, result);
      if (ce.fitness > chain.best_fitness) chain.best_fitness = ce.fitness;
      chain.best_by_step.push_back(chain.best_fitness);
      if (round == 0) {
        chain.current_fitness = ce.fitness;
        chain.t_start = std::max(1.0, std::fabs(ce.fitness) * 0.1);
      } else {
        const double progress =
            chain.steps > 2 ? static_cast<double>(round - 1) /
                                  static_cast<double>(chain.steps - 2)
                            : 1.0;
        const double t_end = chain.t_start * 1e-3;
        const double temperature =
            chain.t_start * std::pow(t_end / chain.t_start, progress);
        const double delta = ce.fitness - chain.current_fitness;
        if (delta >= 0 ||
            chain.rng.next_double() <
                std::exp(delta / std::max(temperature, 1e-12))) {
          chain.current = chain.proposed;
          chain.current_fitness = ce.fitness;
        }
      }
      ++slot;
    }
  }

  void finish(const StrategyContext& ctx, SearchResult& result) override {
    // Rebuild the per-iteration trace from the chains' per-step curves:
    // after iteration i the ensemble has spent (i+1)/iterations of each
    // chain's budget.
    const int iterations = ctx.options.iterations;
    result.trace.best_fitness.assign(static_cast<std::size_t>(iterations),
                                     -1e300);
    for (int it = 0; it < iterations; ++it) {
      double best = -1e300;
      for (const Chain& chain : chains_) {
        const auto steps = static_cast<long>(chain.best_by_step.size());
        if (steps == 0) continue;
        long cutoff = (static_cast<long>(it + 1) * steps) / iterations - 1;
        cutoff = std::clamp<long>(cutoff, 0, steps - 1);
        best = std::max(best,
                        chain.best_by_step[static_cast<std::size_t>(cutoff)]);
      }
      result.trace.best_fitness[static_cast<std::size_t>(it)] =
          it > 0
              ? std::max(best, result.trace.best_fitness[static_cast<
                                   std::size_t>(it - 1)])
              : best;
    }
    for (int it = 0; it < iterations; ++it) {
      if (result.trace.best_fitness[static_cast<std::size_t>(it)] ==
          result.fitness) {
        result.trace.convergence_iteration = it + 1;
        break;
      }
    }
  }

 private:
  struct Chain {
    Rng rng{0};
    long steps = 0;
    ResourceDistribution current;
    ResourceDistribution proposed;
    double current_fitness = 0;
    double best_fitness = -1e300;  ///< chain-local incumbent
    double t_start = 1.0;
    std::vector<double> best_by_step;  ///< best-so-far after each evaluation
  };

  std::vector<Chain> chains_;
  int max_rounds_ = 0;
};

// ---- registry --------------------------------------------------------------

struct Registry {
  std::mutex mutex;
  std::map<std::string, StrategyFactory> factories;
};

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    r->factories.emplace("particle-swarm", [] {
      return std::make_unique<ParticleSwarmStrategy>();
    });
    r->factories.emplace("random", [] {
      return std::make_unique<RandomSamplingStrategy>();
    });
    r->factories.emplace("annealing", [] {
      return std::make_unique<AnnealingStrategy>();
    });
    return r;
  }();
  return *instance;
}

}  // namespace

void Strategy::finish(const StrategyContext&, SearchResult&) {}

SearchResult run_strategy(Strategy& strategy, const StrategyContext& ctx,
                          const RunScope* scope) {
  const CrossBranchOptions& options = ctx.options;
  FCAD_CHECK(options.population >= 1 && options.iterations >= 1);
  FCAD_CHECK(!options.objective.empty());
  FCAD_CHECK(ctx.customization.batch_sizes.size() ==
             static_cast<std::size_t>(ctx.model.num_branches()));
  const auto t0 = std::chrono::steady_clock::now();
  util::ThreadPool& pool = util::ThreadPool::shared(options.threads);
  // Algorithm 2's candidate-independent half, built once for the search.
  const std::vector<BranchTable> tables = build_branch_tables(
      ctx.model, ctx.customization.resolved_datapath());
  FitnessCache cache;

  SearchResult result;
  result.fitness = -1e300;

  // Wall-clock DSE lane keyed by the structural worker index — nested
  // searches issued from pool workers trace onto their own lanes.
  const int worker = util::ThreadPool::current_worker();
  const obs::LaneId dse_lane{obs::kDsePid, worker};
  obs::Tracer* const tracer = obs::tracer();
  if (tracer != nullptr) {
    tracer->name_lane(dse_lane, "dse (wall clock)",
                      worker == 0 ? "driver"
                                  : "worker " + std::to_string(worker));
  }
  int rounds_run = 0;

  strategy.begin(ctx);
  const int rounds = strategy.max_rounds(ctx);
  for (int round = 0; round < rounds; ++round) {
    if (scope != nullptr && scope->should_stop()) {
      result.stopped_early = true;
      break;
    }
    const obs::WallSpan round_span(
        tracer, dse_lane,
        options.progress_label + " round " + std::to_string(round + 1),
        "dse");
    ++rounds_run;
    const std::vector<ResourceDistribution> proposed =
        strategy.propose(ctx, round);
    if (proposed.empty()) break;

    // Evaluation is a pure function of the proposed rd, so the batch fans
    // out across the pool; accept() walks the results in proposal order,
    // keeping the outcome bit-identical to a serial sweep.
    std::vector<SearchTrace> local_traces(proposed.size());
    const std::vector<DistributionEval> evals =
        pool.parallel_map<DistributionEval>(
            static_cast<std::int64_t>(proposed.size()), [&](std::int64_t i) {
              const auto idx = static_cast<std::size_t>(i);
              return evaluate_distribution(
                  ctx.model, tables, ctx.budget, proposed[idx],
                  ctx.customization, options, local_traces[idx], &cache);
            });
    for (const SearchTrace& local : local_traces) {
      result.trace.evaluations += local.evaluations;
    }
    strategy.accept(ctx, round, proposed, evals, result);
    FCAD_LOG(kInfo) << options.progress_label << " round " << (round + 1)
                    << "/" << rounds << " best fitness " << result.fitness;
    if (scope != nullptr) {
      scope->emit(
          {options.progress_label, round + 1, rounds, result.fitness});
    }
  }
  strategy.finish(ctx, result);
  result.trace.cache_hits = cache.hits();
  result.trace.cache_misses = cache.misses();
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.counter("dse.search.rounds").add(rounds_run);
    reg.counter("dse.search.evaluations").add(result.trace.evaluations);
    if (obs::metrics_collection()) {
      reg.gauge("dse.search.best_fitness").set(result.fitness);
    }
  }

  // Evaluate the winner under quantized evaluation — what the generated RTL
  // would actually do. Candidates carry no evaluation, so this is the one
  // that SearchResult::eval reports. (Divisor-exact configs match the
  // analytical numbers; non-divisor factors would surface their ceil waste
  // here.)
  if (!result.config.branches.empty()) {
    result.eval = arch::evaluate(ctx.model, result.config,
                                 arch::EvalMode::kQuantized);
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

Status register_strategy(const std::string& name, StrategyFactory factory) {
  if (name.empty()) {
    return Status::invalid_argument("register_strategy: empty name");
  }
  if (!factory) {
    return Status::invalid_argument("register_strategy: null factory for '" +
                                    name + "'");
  }
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  if (!reg.factories.emplace(name, std::move(factory)).second) {
    return Status::invalid_argument("register_strategy: '" + name +
                                    "' is already registered");
  }
  return Status::ok();
}

StatusOr<StrategyFactory> strategy_factory(const std::string& name) {
  const std::string& resolved = name.empty() ? kDefaultStrategy : name;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.factories.find(resolved);
  if (it == reg.factories.end()) {
    std::string known;
    for (const auto& [known_name, factory] : reg.factories) {
      if (!known.empty()) known += ", ";
      known += known_name;
    }
    return Status::not_found("unknown search strategy '" + resolved +
                             "' (registered: " + known + ")");
  }
  return it->second;
}

std::vector<std::string> registered_strategy_names() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) names.push_back(name);
  return names;
}

StatusOr<SearchResult> run_search_strategy(const std::string& name,
                                           const arch::ReorganizedModel& model,
                                           const ResourceBudget& budget,
                                           const Customization& customization,
                                           const CrossBranchOptions& options,
                                           const RunScope* scope) {
  auto factory = strategy_factory(name);
  if (!factory.is_ok()) return factory.status();
  const std::unique_ptr<Strategy> strategy = (*factory)();
  return run_strategy(*strategy,
                      StrategyContext{model, budget, customization, options},
                      scope);
}

}  // namespace fcad::dse
