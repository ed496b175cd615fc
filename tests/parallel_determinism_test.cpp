// Determinism suite for the parallel DSE engine: for a fixed seed, every
// search must produce bit-identical results whatever the thread count, and
// the fitness memoization cache must stay consistent under concurrent use.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "arch/config_io.hpp"
#include "arch/platform.hpp"
#include "dse/fitness_cache.hpp"
#include "dse/search_driver.hpp"
#include "dse/strategy.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serving/daemon.hpp"
#include "serving/fleet.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

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

CrossBranchOptions fast_options(int threads) {
  CrossBranchOptions opt;
  opt.population = 24;
  opt.iterations = 4;
  opt.seed = 1234;
  opt.threads = threads;
  return opt;
}

const std::vector<int> kThreadCounts = {1, 2, 8};

/// ServeSpec wrapper: these tests pin per-FleetOptions determinism; the
/// spec-level SLA/clock resolution is covered by serving_test/clock_test.
StatusOr<serving::ServingStats> run_fleet(
    const serving::ServiceModel& service,
    const std::vector<serving::Request>& workload,
    const serving::FleetOptions& options,
    const util::RunScope* scope = nullptr) {
  serving::ServeSpec spec;
  spec.fleet = options;
  return serving::simulate_fleet(service, workload, spec, scope);
}

/// Exact (bitwise) equality of two search results. `seconds` and the cache
/// hit/miss split are intentionally excluded: wall-clock always varies, and
/// two workers may both miss the same key before one inserts it — the
/// *results* never differ, only the diagnostic counters may.
void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.eval.dsps, b.eval.dsps);
  EXPECT_EQ(a.eval.brams, b.eval.brams);
  EXPECT_EQ(a.eval.bw_gbps, b.eval.bw_gbps);
  EXPECT_EQ(a.eval.min_fps, b.eval.min_fps);
  EXPECT_EQ(a.trace.convergence_iteration, b.trace.convergence_iteration);
  EXPECT_EQ(a.trace.evaluations, b.trace.evaluations);
  EXPECT_EQ(a.trace.best_fitness, b.trace.best_fitness);
  EXPECT_EQ(a.distribution.c_frac, b.distribution.c_frac);
  EXPECT_EQ(a.distribution.m_frac, b.distribution.m_frac);
  EXPECT_EQ(a.distribution.bw_frac, b.distribution.bw_frac);
  ASSERT_EQ(a.config.branches.size(), b.config.branches.size());
  for (std::size_t i = 0; i < a.config.branches.size(); ++i) {
    EXPECT_EQ(a.config.branches[i].batch, b.config.branches[i].batch);
    EXPECT_EQ(a.config.branches[i].units, b.config.branches[i].units);
  }
}

TEST(ParallelDeterminismTest, CrossBranchSearchIdenticalAcrossThreadCounts) {
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  const SearchResult baseline =
      cross_branch_search(decoder_model(), budget, decoder_customization(),
                          fast_options(kThreadCounts.front()));
  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    const SearchResult other =
        cross_branch_search(decoder_model(), budget, decoder_customization(),
                            fast_options(kThreadCounts[t]));
    expect_identical(baseline, other);
  }
}

TEST(ParallelDeterminismTest, StrategiesIdenticalAcrossThreadCounts) {
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  for (const char* strategy : {"random", "annealing"}) {
    auto baseline = run_search_strategy(
        strategy, decoder_model(), budget, decoder_customization(),
        fast_options(kThreadCounts.front()));
    ASSERT_TRUE(baseline.is_ok());
    for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
      auto other = run_search_strategy(
          strategy, decoder_model(), budget, decoder_customization(),
          fast_options(kThreadCounts[t]));
      ASSERT_TRUE(other.is_ok());
      expect_identical(*baseline, *other);
    }
  }
}

TEST(ParallelDeterminismTest, ParticleSwarmMatchesPreRefactorGolden) {
  // Bit-exactness pin across the strategy-layer refactor: these constants
  // were captured from the monolithic pre-refactor cross_branch_search()
  // (population 24, iterations 4, seed 1234, int8, batches {1,2,2}, ZU9CG).
  // The pluggable "particle-swarm" strategy must reproduce them bit for bit
  // at every thread count. A mismatch means the refactor changed the RNG
  // draw order or the reduction order — not a tolerable drift.
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  for (int threads : kThreadCounts) {
    const SearchResult r =
        cross_branch_search(decoder_model(), budget, decoder_customization(),
                            fast_options(threads));
    EXPECT_EQ(r.fitness, 263.66194015156748) << "threads " << threads;
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.eval.min_fps, 84.771050347222229);
    EXPECT_EQ(r.eval.dsps, 2111);
    EXPECT_EQ(r.eval.brams, 1060);
    EXPECT_EQ(r.eval.bw_gbps, 0.70421379937065987);
    EXPECT_EQ(r.trace.convergence_iteration, 3);
    EXPECT_EQ(r.trace.evaluations, 288);
    const std::vector<double> golden_curve = {
        196.32457130791721, 234.98362446375017, 263.66194015156748,
        263.66194015156748};
    EXPECT_EQ(r.trace.best_fitness, golden_curve);
    const std::vector<double> golden_c_frac = {
        0.09098911261888476, 0.69924607099591674, 0.20976481638519859};
    const std::vector<double> golden_m_frac = {
        0.20934578055001801, 0.43844878688964323, 0.35220543256033876};
    const std::vector<double> golden_bw_frac = {
        0.39101799157294714, 0.34875576650757506, 0.2602262419194778};
    EXPECT_EQ(r.distribution.c_frac, golden_c_frac);
    EXPECT_EQ(r.distribution.m_frac, golden_m_frac);
    EXPECT_EQ(r.distribution.bw_frac, golden_bw_frac);
    ASSERT_EQ(r.config.branches.size(), 3u);
    EXPECT_EQ(r.config.branches[0].batch, 1);
    EXPECT_EQ(r.config.branches[1].batch, 2);
    EXPECT_EQ(r.config.branches[2].batch, 2);
  }
}

TEST(ParallelDeterminismTest, TableOneSearchesMatchPreTableGolden) {
  // The five Table-I cases (P = 200, N = 20, seed 1, batches {1,2,2}).
  // Captured before Algorithm 2 became table-driven and the cache kept only
  // fitness: the same cache keys must give the same winners (fitness and
  // config text, by digest) and the same hit and miss counts — at every
  // thread count, since a miss is counted only where a key is placed.
  struct Case {
    const char* name;
    arch::Platform platform;
    const char* datapath;
    double fitness;
    std::int64_t hits;
    std::int64_t misses;
    const char* config_digest;
  };
  const std::vector<Case> cases = {
      {"Z7045 int8", arch::platform_z7045(), "pipelined-int8",
       93.717738500232855, 3194, 806, "98e316732c649f0f410410ba6f97da91"},
      {"ZU17EG int8", arch::platform_zu17eg(), "pipelined-int8",
       165.47112156533532, 3281, 719, "382cbea2f925bc36149e897fe590dfb3"},
      {"ZU17EG int16", arch::platform_zu17eg(), "pipelined-int16",
       68.244530049003203, 3167, 833, "a85f0f24804038c748ac3caff90d33e5"},
      {"ZU9CG int8", arch::platform_zu9cg(), "pipelined-int8",
       306.66310915056567, 3278, 722, "ec0cc3df44ed9ac2c3006cc5874998e5"},
      {"ZU9CG int16", arch::platform_zu9cg(), "pipelined-int16",
       165.47112156533532, 3027, 973, "4976d85b54639dd84e7c0f79792d724f"}};
  for (int threads : {1, 2, 4}) {
    for (const Case& c : cases) {
      SearchSpec spec;
      spec.customization.datapath = c.datapath;
      spec.customization.batch_sizes = {1, 2, 2};
      spec.search.population = 200;
      spec.search.iterations = 20;
      spec.search.seed = 1;
      spec.control.threads = threads;
      auto outcome = SearchDriver(decoder_model(), c.platform).run(spec);
      ASSERT_TRUE(outcome.is_ok()) << c.name << ", threads " << threads;
      const SearchResult& r = outcome->search;
      util::Hash128 digest;
      digest.absorb_string(arch::config_to_text(decoder_model(), r.config));
      EXPECT_TRUE(r.feasible) << c.name << ", threads " << threads;
      EXPECT_EQ(r.fitness, c.fitness) << c.name << ", threads " << threads;
      EXPECT_EQ(r.trace.cache_hits, c.hits)
          << c.name << ", threads " << threads;
      EXPECT_EQ(r.trace.cache_misses, c.misses)
          << c.name << ", threads " << threads;
      EXPECT_EQ(digest.hex(), c.config_digest)
          << c.name << ", threads " << threads;
    }
  }
}

TEST(ParallelDeterminismTest, DriverOptimizeIdenticalAcrossThreadCounts) {
  // The same property through the unified entry point, exercising the
  // RunControl thread override instead of CrossBranchOptions::threads.
  SearchSpec spec;
  spec.customization = decoder_customization();
  spec.search = fast_options(1);
  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto baseline = driver.run(spec);
  ASSERT_TRUE(baseline.is_ok());
  EXPECT_FALSE(baseline->cancelled);
  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    spec.control.threads = kThreadCounts[t];
    auto other = driver.run(spec);
    ASSERT_TRUE(other.is_ok());
    expect_identical(baseline->search, other->search);
  }
}

TEST(ParallelDeterminismTest, SweepIdenticalAcrossThreadCounts) {
  SearchSpec spec;
  spec.kind = SearchKind::kSweep;
  spec.sweep.datapaths = {"pipelined-int8", "pipelined-int16"};
  spec.sweep.frequencies_mhz = {150, 200};
  spec.search = fast_options(1);
  spec.customization.batch_sizes = {1, 2, 2};

  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto baseline = driver.run(spec);
  ASSERT_TRUE(baseline.is_ok());
  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    spec.search.threads = kThreadCounts[t];
    auto other = driver.run(spec);
    ASSERT_TRUE(other.is_ok());
    ASSERT_EQ(baseline->sweep.size(), other->sweep.size());
    for (std::size_t i = 0; i < baseline->sweep.size(); ++i) {
      EXPECT_EQ(baseline->sweep[i].pareto_optimal,
                other->sweep[i].pareto_optimal);
      expect_identical(baseline->sweep[i].result, other->sweep[i].result);
    }
  }
}

TEST(ParallelDeterminismTest, DatapathSweepIdenticalAcrossThreadCounts) {
  // The joint precision x microarchitecture x batch grid must hold the same
  // determinism contract as the pipelined-only sweep, and its frontier
  // (min FPS vs accuracy penalty) must keep more than one datapath alive.
  SearchSpec spec;
  spec.kind = SearchKind::kSweep;
  spec.sweep.datapaths = {"pipelined-int8", "staged-int8", "pipelined-int16",
                          "pipelined-int8x4", "pipelined-int4"};
  spec.sweep.frequencies_mhz = {200};
  spec.sweep.batch_scales = {1, 2};
  spec.search = fast_options(1);
  spec.customization.batch_sizes = {1, 2, 2};

  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto baseline = driver.run(spec);
  ASSERT_TRUE(baseline.is_ok());
  ASSERT_EQ(baseline->sweep.size(), 10u);  // 5 datapaths x 1 freq x 2 scales

  std::set<std::string> frontier_datapaths;
  for (const SweepPoint& point : baseline->sweep) {
    if (point.pareto_optimal) frontier_datapaths.insert(point.datapath);
  }
  EXPECT_GE(frontier_datapaths.size(), 2u)
      << "accuracy/throughput frontier collapsed to one datapath";

  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    spec.search.threads = kThreadCounts[t];
    auto other = driver.run(spec);
    ASSERT_TRUE(other.is_ok());
    ASSERT_EQ(baseline->sweep.size(), other->sweep.size());
    for (std::size_t i = 0; i < baseline->sweep.size(); ++i) {
      EXPECT_EQ(baseline->sweep[i].datapath, other->sweep[i].datapath);
      EXPECT_EQ(baseline->sweep[i].batch_scale, other->sweep[i].batch_scale);
      EXPECT_EQ(baseline->sweep[i].pareto_optimal,
                other->sweep[i].pareto_optimal);
      EXPECT_EQ(baseline->sweep[i].result.eval.accuracy_proxy,
                other->sweep[i].result.eval.accuracy_proxy);
      EXPECT_EQ(baseline->sweep[i].result.eval.luts,
                other->sweep[i].result.eval.luts);
      expect_identical(baseline->sweep[i].result, other->sweep[i].result);
    }
  }
}

TEST(ParallelDeterminismTest, ConvergenceStudyIdenticalAcrossThreadCounts) {
  SearchSpec spec;
  spec.kind = SearchKind::kConvergence;
  spec.customization = decoder_customization();
  spec.search = fast_options(1);
  spec.convergence_runs = 4;
  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto baseline = driver.run(spec);
  ASSERT_TRUE(baseline.is_ok());
  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    spec.search.threads = kThreadCounts[t];
    auto outcome = driver.run(spec);
    ASSERT_TRUE(outcome.is_ok());
    const ConvergenceStats& other = outcome->convergence;
    EXPECT_EQ(baseline->convergence.mean_iterations, other.mean_iterations);
    EXPECT_EQ(baseline->convergence.min_iterations, other.min_iterations);
    EXPECT_EQ(baseline->convergence.max_iterations, other.max_iterations);
    EXPECT_EQ(baseline->convergence.mean_fitness, other.mean_fitness);
    EXPECT_EQ(baseline->convergence.fitness_spread, other.fitness_spread);
  }
}

TEST(ParallelDeterminismTest, TrafficSearchIdenticalAcrossThreadCounts) {
  SearchSpec spec;
  spec.kind = SearchKind::kTraffic;
  spec.search = fast_options(1);
  spec.search.seed = 42;
  spec.traffic.workload.users = 2;
  spec.traffic.workload.frame_rate_hz = 30;
  spec.traffic.workload.duration_s = 0.5;
  spec.traffic.workload.seed = 42;
  spec.traffic.fleet.instances = 2;
  spec.traffic.max_batch = 4;

  const SearchDriver driver(decoder_model(), arch::platform_zu9cg());
  auto baseline = driver.run(spec);
  ASSERT_TRUE(baseline.is_ok());
  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    spec.search.threads = kThreadCounts[t];
    auto outcome = driver.run(spec);
    ASSERT_TRUE(outcome.is_ok());
    const TrafficSearchResult& other = outcome->traffic;
    EXPECT_EQ(baseline->traffic.batch_sizes, other.batch_sizes);
    EXPECT_EQ(baseline->traffic.users_served, other.users_served);
    EXPECT_EQ(baseline->traffic.sla_met, other.sla_met);
    EXPECT_EQ(baseline->traffic.sla_fitness, other.sla_fitness);
    EXPECT_EQ(baseline->traffic.stats.latency.p99, other.stats.latency.p99);
    expect_identical(baseline->traffic.search, other.search);
  }
}

TEST(ParallelDeterminismTest, FleetShardedReplayIdenticalAcrossThreadCounts) {
  // The sharded fleet replay must be a pure function of the shard count:
  // for every pinned shard layout (1/2/8), running the per-shard event
  // loops on 1, 2, or 8 pool threads merges to bit-identical stats. The
  // thread override flows both through FleetOptions::threads and through
  // RunControl (the scope wins), mirroring how SearchDriver resolves it.
  serving::WorkloadOptions wl;
  wl.users = 16;
  wl.branches = 2;
  wl.frame_rate_hz = 80;
  wl.duration_s = 1.0;
  wl.seed = 9;
  auto workload = serving::generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  serving::ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};

  for (int shards : {1, 2, 8}) {
    serving::FleetOptions options;
    options.instances = 8;
    options.shards = shards;
    options.switch_penalty_us = 250;
    options.threads = kThreadCounts.front();
    auto baseline = run_fleet(service, *workload, options);
    ASSERT_TRUE(baseline.is_ok());
    EXPECT_EQ(baseline->completed, baseline->offered);
    const std::vector<std::string> baseline_row =
        serving::serving_csv_row({}, *baseline);
    for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
      options.threads = kThreadCounts[t];
      auto other = run_fleet(service, *workload, options);
      ASSERT_TRUE(other.is_ok());
      EXPECT_EQ(serving::serving_csv_row({}, *other), baseline_row)
          << "shards " << shards << ", threads " << kThreadCounts[t];
      EXPECT_EQ(other->latency.p99, baseline->latency.p99);
      EXPECT_EQ(other->queue_wait.mean, baseline->queue_wait.mean);
      EXPECT_EQ(other->branch_completed, baseline->branch_completed);
      ASSERT_EQ(other->instances.size(), baseline->instances.size());
      for (std::size_t i = 0; i < other->instances.size(); ++i) {
        EXPECT_EQ(other->instances[i].busy_us,
                  baseline->instances[i].busy_us);
        EXPECT_EQ(other->instances[i].batches,
                  baseline->instances[i].batches);
      }

      // The RunControl thread override takes the same path the DSE uses.
      util::RunControl control;
      control.threads = kThreadCounts[t];
      const util::RunScope scope(control);
      serving::FleetOptions via_scope = options;
      via_scope.threads = 1;
      auto observed =
          run_fleet(service, *workload, via_scope, &scope);
      ASSERT_TRUE(observed.is_ok());
      EXPECT_EQ(serving::serving_csv_row({}, *observed), baseline_row);
    }
  }
}

TEST(ParallelDeterminismTest, ElasticFleetReplayIdenticalAcrossThreadCounts) {
  // The elastic contract: autoscaling, resharding, and the fault schedule
  // are shard-local decisions at virtual-time boundaries, so a drift
  // scenario replays bit-identically for any pool size at every pinned
  // shard layout — including the elastic event counters themselves.
  serving::WorkloadOptions wl;
  wl.users = 8;
  wl.branches = 2;
  wl.frame_rate_hz = 40;
  wl.duration_s = 3.0;
  wl.seed = 21;
  serving::ScenarioSpec scenario;
  serving::FlashCrowdSpec flash;
  flash.start_s = 0.5;
  flash.end_s = 2.0;
  flash.rate_multiplier = 3.0;
  flash.extra_users = 4;
  scenario.flash.push_back(flash);
  serving::InstanceFault fault;
  fault.instance = 1;
  fault.fail_s = 0.8;
  fault.recover_s = 1.6;
  scenario.faults.push_back(fault);
  auto workload = serving::generate_scenario_workload(wl, scenario);
  ASSERT_TRUE(workload.is_ok());
  serving::ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};

  for (int shards : {1, 2, 4}) {
    serving::ServeSpec spec;
    spec.fleet.instances = 4;
    spec.fleet.shards = shards;
    spec.fleet.sla_bound_us = 25000;
    spec.scenario = scenario;
    spec.elastic.autoscale.max_instances = 12;
    spec.elastic.autoscale.high_watermark = 0.6;
    spec.elastic.autoscale.low_watermark = 0.2;
    spec.elastic.autoscale.window_us = 100000;
    spec.elastic.autoscale.cooldown_us = 100000;
    spec.elastic.reshard.p99_fraction = 0.6;
    spec.elastic.reshard.window = 64;
    spec.elastic.reshard.cooldown_us = 200000;

    spec.fleet.threads = kThreadCounts.front();
    auto baseline = serving::simulate_fleet(service, *workload, spec);
    ASSERT_TRUE(baseline.is_ok());
    EXPECT_EQ(baseline->completed, baseline->offered);
    EXPECT_GT(baseline->scale_up_events, 0) << "shards " << shards;
    EXPECT_EQ(baseline->fault_events, 1);
    EXPECT_EQ(baseline->recover_events, 1);
    const std::vector<std::string> baseline_row =
        serving::serving_csv_row({}, *baseline);
    for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
      spec.fleet.threads = kThreadCounts[t];
      auto other = serving::simulate_fleet(service, *workload, spec);
      ASSERT_TRUE(other.is_ok());
      EXPECT_EQ(serving::serving_csv_row({}, *other), baseline_row)
          << "shards " << shards << ", threads " << kThreadCounts[t];
      EXPECT_EQ(other->scale_up_events, baseline->scale_up_events);
      EXPECT_EQ(other->scale_down_events, baseline->scale_down_events);
      EXPECT_EQ(other->reshard_splits, baseline->reshard_splits);
      EXPECT_EQ(other->latency.p99, baseline->latency.p99);
      EXPECT_EQ(other->branch_completed, baseline->branch_completed);
    }
  }
}

/// Installs an ambient tracer (and optionally bulk metrics collection) for
/// one scope, uninstalling on destruction even when an EXPECT fails.
class ScopedObservation {
 public:
  explicit ScopedObservation(bool metrics) : metrics_(metrics) {
    obs::install_tracer(&tracer_);
    if (metrics_) obs::set_metrics_collection(true);
  }
  ~ScopedObservation() {
    obs::install_tracer(nullptr);
    if (metrics_) obs::set_metrics_collection(false);
  }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  obs::Tracer tracer_;
  bool metrics_;
};

TEST(ParallelDeterminismTest, SearchIdenticalWithTracingOnOrOff) {
  // The observability hard requirement: installing the tracer (and turning
  // bulk metrics collection on) must not perturb a single output bit at any
  // thread count. Tracing is write-only; any divergence here means an
  // instrumentation site leaked into engine control flow.
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  const SearchResult baseline =
      cross_branch_search(decoder_model(), budget, decoder_customization(),
                          fast_options(1));
  for (int threads : kThreadCounts) {
    ScopedObservation obs(/*metrics=*/true);
    const SearchResult traced =
        cross_branch_search(decoder_model(), budget, decoder_customization(),
                            fast_options(threads));
    expect_identical(baseline, traced);
    EXPECT_GT(obs.tracer().events(), 0) << "tracer saw no spans";
  }
}

TEST(ParallelDeterminismTest, FleetReplayIdenticalWithTracingOnOrOff) {
  // Same contract for the serving fleet, over the full shard x thread grid:
  // per-shard event loops emit virtual-time spans, yet every stat (and the
  // exported CSV row) must match the uninstrumented replay bit for bit.
  serving::WorkloadOptions wl;
  wl.users = 16;
  wl.branches = 2;
  wl.frame_rate_hz = 80;
  wl.duration_s = 1.0;
  wl.seed = 9;
  auto workload = serving::generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  serving::ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};

  for (int shards : {1, 2, 8}) {
    serving::FleetOptions options;
    options.instances = 8;
    options.shards = shards;
    options.switch_penalty_us = 250;
    options.threads = 1;
    auto baseline = run_fleet(service, *workload, options);
    ASSERT_TRUE(baseline.is_ok());
    const std::vector<std::string> baseline_row =
        serving::serving_csv_row({}, *baseline);
    for (int threads : kThreadCounts) {
      ScopedObservation obs(/*metrics=*/true);
      options.threads = threads;
      auto traced = run_fleet(service, *workload, options);
      ASSERT_TRUE(traced.is_ok());
      EXPECT_EQ(serving::serving_csv_row({}, *traced), baseline_row)
          << "shards " << shards << ", threads " << threads;
      EXPECT_EQ(traced->branch_completed, baseline->branch_completed);
      EXPECT_GT(obs.tracer().events(), 0) << "tracer saw no spans";
    }
  }
}

TEST(ParallelDeterminismTest, TraceBytesIdenticalAcrossThreadCounts) {
  // Stronger than result identity: the serving lanes carry virtual time and
  // are each appended by exactly one event loop, so the *trace file itself*
  // must come out byte-identical for any thread count at a fixed shard
  // layout. (Wall-clock DSE/pool lanes can't promise this; a fleet-only
  // replay has none.)
  serving::WorkloadOptions wl;
  wl.users = 8;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 0.5;
  wl.seed = 31;
  auto workload = serving::generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  serving::ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};

  serving::FleetOptions options;
  options.instances = 4;
  options.shards = 4;
  options.switch_penalty_us = 250;

  std::string baseline_json;
  for (int threads : kThreadCounts) {
    ScopedObservation obs(/*metrics=*/false);
    options.threads = threads;
    auto stats = run_fleet(service, *workload, options);
    ASSERT_TRUE(stats.is_ok());
    const std::string json = obs.tracer().to_json(obs::kServingPid);
    if (baseline_json.empty()) {
      baseline_json = json;
    } else {
      EXPECT_EQ(json, baseline_json) << "threads " << threads;
    }
  }
  EXPECT_FALSE(baseline_json.empty());
}

TEST(ParallelDeterminismTest, RepeatedRunsHitTheCache) {
  // Same search twice in a row: not only identical results, but a swarm
  // whose particles revisit converged configs should see real cache traffic.
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  CrossBranchOptions opt = fast_options(1);
  opt.population = 40;
  opt.iterations = 8;
  const SearchResult result = cross_branch_search(
      decoder_model(), budget, decoder_customization(), opt);
  EXPECT_EQ(result.trace.cache_hits + result.trace.cache_misses,
            static_cast<std::int64_t>(opt.population) * opt.iterations);
  EXPECT_GT(result.trace.cache_hits, 0);
}

// ------------------------------------------------------- fitness cache --

TEST(FitnessCacheStressTest, ConcurrentFindInsertStaysConsistent) {
  FitnessCache cache;
  util::ThreadPool pool(8);

  // 64 distinct synthetic configs, hammered by 8000 interleaved lookups.
  constexpr int kConfigs = 64;
  constexpr std::int64_t kOps = 8000;
  auto config_for = [&](int c) {
    arch::AcceleratorConfig config;
    arch::BranchHardwareConfig branch;
    branch.batch = c + 1;
    branch.units.push_back(arch::UnitConfig{1 + c % 7, 1 + c % 5, 1 + c % 3});
    config.branches.push_back(branch);
    return config;
  };

  std::atomic<std::int64_t> mismatches{0};
  pool.parallel_for(kOps, [&](std::int64_t op) {
    const int c = static_cast<int>(op % kConfigs);
    const FitnessCache::Key key =
        FitnessCache::config_key(config_for(c), /*met_mask=*/1);
    auto entry = cache.find(key);
    if (!entry) {
      FitnessCache::Entry fresh;
      fresh.fitness = static_cast<double>(c) * 3.25;
      fresh.feasible = c % 2 == 0;
      entry = cache.insert(key, fresh);
    }
    // Whoever inserted, the resident value must be the pure function of the
    // key — never a torn or foreign entry.
    if (entry->fitness != static_cast<double>(c) * 3.25 ||
        entry->feasible != (c % 2 == 0)) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  // Every lookup is accounted for, and only the insert that placed a key
  // counted a miss — however the workers raced on it.
  EXPECT_EQ(cache.hits() + cache.misses(), kOps);
  EXPECT_EQ(cache.misses(), kConfigs);
}

TEST(FitnessCacheStressTest, DistinctConfigsGetDistinctKeys) {
  // Sanity on the 128-bit key: permuting unit factors or flags must change
  // it (a collision here would silently merge two designs).
  arch::AcceleratorConfig config;
  arch::BranchHardwareConfig branch;
  branch.batch = 2;
  branch.units.push_back(arch::UnitConfig{2, 3, 4});
  config.branches.push_back(branch);

  const auto base = FitnessCache::config_key(config, 1);
  EXPECT_FALSE(base == FitnessCache::config_key(config, 0));
  config.branches[0].units[0] = arch::UnitConfig{4, 3, 2};
  EXPECT_FALSE(base == FitnessCache::config_key(config, 1));
}

TEST(ParallelDeterminismTest, DaemonVirtualClockTraceIdenticalAcrossThreads) {
  // The daemon's online submit path under a virtual clock must stay a pure
  // function of the trace: per-request records and merged stats are
  // byte-identical for any pool size, with admission control on (the
  // admission window is per-shard state, so it is as deterministic as the
  // event order itself).
  serving::WorkloadOptions wl;
  wl.users = 12;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 1.0;
  wl.seed = 17;
  auto workload = serving::generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  serving::ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};

  serving::ServeSpec spec;
  spec.fleet.instances = 8;
  spec.fleet.shards = 4;
  spec.fleet.keep_records = true;
  spec.fleet.sla_bound_us = 20000;

  serving::DaemonOptions options;
  options.admission_enabled = true;
  options.admission_window = 32;

  spec.fleet.threads = kThreadCounts.front();
  const serving::Daemon baseline_daemon(service, spec, options);
  auto baseline = baseline_daemon.run_trace(*workload);
  ASSERT_TRUE(baseline.is_ok());
  const std::vector<std::string> baseline_row =
      serving::serving_csv_row({}, baseline->stats);

  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    spec.fleet.threads = kThreadCounts[t];
    const serving::Daemon daemon(service, spec, options);
    auto other = daemon.run_trace(*workload);
    ASSERT_TRUE(other.is_ok());
    EXPECT_EQ(other->shed, baseline->shed);
    EXPECT_EQ(serving::serving_csv_row({}, other->stats), baseline_row)
        << "threads " << kThreadCounts[t];
    ASSERT_EQ(other->stats.records.size(), baseline->stats.records.size());
    for (std::size_t i = 0; i < other->stats.records.size(); ++i) {
      EXPECT_EQ(other->stats.records[i].id, baseline->stats.records[i].id);
      EXPECT_EQ(other->stats.records[i].instance,
                baseline->stats.records[i].instance);
      EXPECT_EQ(other->stats.records[i].start_us,
                baseline->stats.records[i].start_us);
      EXPECT_EQ(other->stats.records[i].finish_us,
                baseline->stats.records[i].finish_us);
    }
  }
}

}  // namespace
}  // namespace fcad::dse
