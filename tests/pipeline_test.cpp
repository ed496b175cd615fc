// Staged-pipeline suite: end-to-end runs, stage caching/re-entry, artifact
// round trips, the spec-hash artifact cache, and the report renderers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "nn/builder.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "nn/zoo/classic_nets.hpp"

namespace fcad::core {
namespace {

PipelineOptions fast_options() {
  PipelineOptions options;
  options.spec.customization.datapath = "pipelined-int8";
  options.spec.customization.batch_sizes = {1, 2, 2};
  options.spec.search.population = 30;
  options.spec.search.iterations = 5;
  options.spec.search.seed = 11;
  return options;
}

TEST(PipelineTest, EndToEndOnDecoder) {
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  auto result = pipeline.run(fast_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->decomposition.branches.size(), 3u);
  EXPECT_EQ(result->model.num_branches(), 3);
  EXPECT_TRUE(result->search.feasible);
  EXPECT_GT(result->search.eval.min_fps, 10.0);
  EXPECT_FALSE(result->simulation.has_value());
}

TEST(PipelineTest, SimulationOnRequest) {
  PipelineOptions options = fast_options();
  options.run_simulation = true;
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  auto result = pipeline.run(options);
  ASSERT_TRUE(result.is_ok());
  ASSERT_TRUE(result->simulation.has_value());
  // Simulated throughput within 10% of the analytical estimate.
  EXPECT_NEAR(result->simulation->min_fps, result->search.eval.min_fps,
              0.1 * result->search.eval.min_fps);
}

TEST(PipelineTest, SingleBranchBackbone) {
  PipelineOptions options;
  options.spec.search.population = 20;
  options.spec.search.iterations = 4;
  Pipeline pipeline(nn::zoo::alexnet(), arch::platform_ku115());
  auto result = pipeline.run(options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->model.num_branches(), 1);
  EXPECT_GT(result->search.eval.min_fps, 0);
}

TEST(PipelineTest, BadCustomizationFails) {
  PipelineOptions options = fast_options();
  options.spec.customization.batch_sizes = {1};  // decoder has 3 branches
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  auto result = pipeline.run(options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, UnmappableGraphFails) {
  nn::GraphBuilder b("t");
  auto in = b.input("x", {4, 8, 8});
  auto a = b.relu(in, "a");  // post-op with no major layer
  b.output(a, "y");
  auto g = std::move(b).build();
  ASSERT_TRUE(g.is_ok());
  Pipeline pipeline(std::move(g).value(), arch::platform_zu9cg());
  auto result = pipeline.run(PipelineOptions{});
  EXPECT_FALSE(result.is_ok());
}

TEST(PipelineTest, StagesRunIncrementallyAndCache) {
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  EXPECT_EQ(pipeline.profile(), nullptr);
  EXPECT_EQ(pipeline.reorg(), nullptr);
  EXPECT_EQ(pipeline.search(), nullptr);

  ASSERT_TRUE(pipeline.analyze().is_ok());
  const ProfileArtifact* profile = pipeline.profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->decomposition.branches.size(), 3u);

  ASSERT_TRUE(pipeline.construct().is_ok());
  const ReorgArtifact* reorg = pipeline.reorg();
  ASSERT_NE(reorg, nullptr);
  EXPECT_EQ(reorg->model.num_branches(), 3);

  // Analysis and construction are cached: a subsequent optimize (or a whole
  // spec ladder) reuses the very same artifacts, so a sweep over specs never
  // re-profiles the graph.
  ASSERT_TRUE(pipeline.optimize(fast_options().spec).is_ok());
  EXPECT_EQ(pipeline.profile(), profile);
  EXPECT_EQ(pipeline.reorg(), reorg);
  ASSERT_NE(pipeline.search(), nullptr);

  dse::SearchSpec second = fast_options().spec;
  second.search.seed = 12;
  ASSERT_TRUE(pipeline.optimize(second).is_ok());
  EXPECT_EQ(pipeline.profile(), profile);
  EXPECT_EQ(pipeline.reorg(), reorg);
  ASSERT_NE(pipeline.search(), nullptr);
  EXPECT_TRUE(pipeline.search()->best().feasible);
}

TEST(PipelineTest, SearchArtifactRoundTripsThroughText) {
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.optimize(fast_options().spec).is_ok());
  const dse::SearchResult& original = pipeline.search()->best();

  const std::string text = pipeline.save_search();
  ASSERT_FALSE(text.empty());

  // Re-enter the optimization stage in a *fresh* pipeline from the artifact
  // alone: the configuration, headline stats, and re-evaluated metrics all
  // survive the round trip; doubles round-trip bit-exactly.
  Pipeline loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(loaded.load_search(text).is_ok());
  const dse::SearchResult& restored = loaded.search()->best();
  EXPECT_EQ(restored.fitness, original.fitness);
  EXPECT_EQ(restored.feasible, original.feasible);
  EXPECT_EQ(restored.seconds, 0.0);  // wall time is not part of the file
  EXPECT_EQ(restored.trace.evaluations, original.trace.evaluations);
  ASSERT_EQ(restored.config.branches.size(), original.config.branches.size());
  for (std::size_t b = 0; b < original.config.branches.size(); ++b) {
    EXPECT_EQ(restored.config.branches[b].batch,
              original.config.branches[b].batch);
    EXPECT_EQ(restored.config.branches[b].units,
              original.config.branches[b].units);
  }
  EXPECT_EQ(restored.eval.dsps, original.eval.dsps);
  EXPECT_EQ(restored.eval.min_fps, original.eval.min_fps);
  // The convergence curve and the winning distribution survive too.
  EXPECT_EQ(restored.trace.best_fitness, original.trace.best_fitness);
  EXPECT_EQ(restored.distribution.c_frac, original.distribution.c_frac);
  EXPECT_EQ(restored.distribution.m_frac, original.distribution.m_frac);
  EXPECT_EQ(restored.distribution.bw_frac, original.distribution.bw_frac);
  // And serializing again reproduces the same text.
  EXPECT_EQ(loaded.save_search(), text);
}

TEST(PipelineTest, CancelledOutcomeStillSerializes) {
  // A run cancelled before its first evaluation has no winning config; the
  // artifact must round-trip (config 0) instead of crashing the writer.
  dse::SearchSpec spec = fast_options().spec;
  spec.control.cancel.request_cancel();
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.optimize(spec).is_ok());
  ASSERT_TRUE(pipeline.search()->outcome.cancelled);
  ASSERT_TRUE(pipeline.search()->best().config.branches.empty());

  const std::string text = pipeline.save_search();
  ASSERT_FALSE(text.empty());
  Pipeline loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(loaded.load_search(text).is_ok());
  EXPECT_TRUE(loaded.search()->outcome.cancelled);
  EXPECT_TRUE(loaded.search()->best().config.branches.empty());
  EXPECT_EQ(loaded.save_search(), text);
  // The same applies to a sweep whose grid points were all cancelled.
  dse::SearchSpec sweep = fast_options().spec;
  sweep.kind = dse::SearchKind::kSweep;
  sweep.control.cancel.request_cancel();
  Pipeline swept(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(swept.optimize(sweep).is_ok());
  const std::string sweep_text = swept.save_search();
  Pipeline sweep_loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(sweep_loaded.load_search(sweep_text).is_ok());
  EXPECT_EQ(sweep_loaded.save_search(), sweep_text);
}

TEST(PipelineTest, LoadedArtifactDrivesSimulationAndResult) {
  Pipeline searcher(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(searcher.optimize(fast_options().spec).is_ok());
  const std::string text = searcher.save_search();

  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.load_search(text).is_ok());
  ASSERT_TRUE(pipeline.simulate().is_ok());
  ASSERT_NE(pipeline.sim(), nullptr);
  auto result = pipeline.result();
  ASSERT_TRUE(result.is_ok());
  ASSERT_TRUE(result->simulation.has_value());
  EXPECT_GT(result->simulation->min_fps, 0);
}

TEST(PipelineTest, OneSpecSavesByteIdenticalArtifacts) {
  // Wall-clock time stays out of the artifact, so two fresh pipelines
  // running one spec save the same bytes, for a winner-carrying kind and
  // for kConvergence.
  dse::SearchSpec convergence = fast_options().spec;
  convergence.kind = dse::SearchKind::kConvergence;
  convergence.convergence_runs = 2;
  for (const dse::SearchSpec& spec : {fast_options().spec, convergence}) {
    std::string saved[2];
    for (std::string& text : saved) {
      Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
      ASSERT_TRUE(pipeline.optimize(spec).is_ok());
      text = pipeline.save_search();
    }
    ASSERT_FALSE(saved[0].empty());
    EXPECT_EQ(saved[0], saved[1]) << dse::to_string(spec.kind);
  }
}

TEST(PipelineTest, MalformedArtifactRejected) {
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  EXPECT_FALSE(pipeline.load_search("not an artifact").is_ok());
  // Artifacts from older formats (v1 winner-only, v2 without serving stats,
  // v4 with wall-clock seconds) are not readable as v5 — a stale cache entry
  // re-searches instead.
  EXPECT_FALSE(
      pipeline.load_search("fcad-search-artifact v1\nfitness 1\n").is_ok());
  EXPECT_FALSE(
      pipeline.load_search("fcad-search-artifact v2\nkind optimize\n")
          .is_ok());
  EXPECT_FALSE(
      pipeline.load_search("fcad-search-artifact v4\nkind optimize\n")
          .is_ok());
  // A v5 header without a kind/result is incomplete.
  EXPECT_FALSE(
      pipeline.load_search("fcad-search-artifact v5\n").is_ok());
  EXPECT_FALSE(
      pipeline.load_search("fcad-search-artifact v5\nkind optimize\n")
          .is_ok());
  EXPECT_EQ(pipeline.search(), nullptr);
  // result() without completed stages is an error, not a crash.
  EXPECT_FALSE(pipeline.result().is_ok());
}

TEST(PipelineTest, TruncatedArtifactRejected) {
  // A torn write (crash / full disk) must parse as truncated, never as a
  // shorter-but-valid artifact: every serialized artifact ends with "end",
  // and any prefix of one is rejected.
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.optimize(fast_options().spec).is_ok());
  const std::string text = pipeline.save_search();
  ASSERT_EQ(text.rfind("end\n"), text.size() - 4);

  Pipeline loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  const std::string no_marker = text.substr(0, text.size() - 4);
  EXPECT_FALSE(loaded.load_search(no_marker).is_ok());
  // Cut mid-config: the line-counted block catches the short read.
  EXPECT_FALSE(loaded.load_search(text.substr(0, text.size() / 2)).is_ok());
}

TEST(PipelineTest, SweepArtifactRoundTripsWholeOutcome) {
  // kSweep outcomes serialize every grid point (not just a winner), so a
  // sweep re-enters whole — the prerequisite for the spec-hash cache.
  dse::SearchSpec spec = fast_options().spec;
  spec.kind = dse::SearchKind::kSweep;
  spec.sweep.datapaths = {"pipelined-int8", "pipelined-int16"};
  spec.sweep.frequencies_mhz = {150, 200};
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.optimize(spec).is_ok());
  const std::vector<dse::SweepPoint>& original =
      pipeline.search()->outcome.sweep;
  ASSERT_EQ(original.size(), 4u);

  const std::string text = pipeline.save_search();
  Pipeline loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(loaded.load_search(text).is_ok());
  const std::vector<dse::SweepPoint>& restored =
      loaded.search()->outcome.sweep;
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].datapath, original[i].datapath);
    EXPECT_EQ(restored[i].freq_mhz, original[i].freq_mhz);
    EXPECT_EQ(restored[i].pareto_optimal, original[i].pareto_optimal);
    EXPECT_EQ(restored[i].result.fitness, original[i].result.fitness);
    EXPECT_EQ(restored[i].result.feasible, original[i].result.feasible);
    EXPECT_EQ(restored[i].result.eval.min_fps,
              original[i].result.eval.min_fps);
    EXPECT_EQ(restored[i].result.eval.dsps, original[i].result.eval.dsps);
  }
  // Serializing again reproduces the same text (bit-exact doubles).
  EXPECT_EQ(loaded.save_search(), text);
}

TEST(PipelineTest, ConvergenceArtifactRoundTripsStats) {
  dse::SearchSpec spec = fast_options().spec;
  spec.kind = dse::SearchKind::kConvergence;
  spec.convergence_runs = 3;
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.optimize(spec).is_ok());
  const dse::ConvergenceStats& original =
      pipeline.search()->outcome.convergence;

  const std::string text = pipeline.save_search();
  Pipeline loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(loaded.load_search(text).is_ok());
  const dse::ConvergenceStats& restored =
      loaded.search()->outcome.convergence;
  EXPECT_EQ(restored.runs, original.runs);
  EXPECT_EQ(restored.mean_iterations, original.mean_iterations);
  EXPECT_EQ(restored.mean_fitness, original.mean_fitness);
  EXPECT_EQ(restored.fitness_spread, original.fitness_spread);
  EXPECT_EQ(loaded.save_search(), text);
  // No winning configuration in a convergence outcome: simulate() reports
  // that cleanly instead of crashing.
  EXPECT_FALSE(loaded.simulate().is_ok());
}

// ------------------------------------------------- spec-hash artifact cache --

namespace {

/// Fresh cache dir per test; gtest's TempDir is shared across the binary.
std::string cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("fcad-cache-" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

TEST(ArtifactCacheTest, SecondRunHitsAndReloadsBitIdentical) {
  const std::string dir = cache_dir("hit");
  dse::SearchSpec spec = fast_options().spec;
  spec.kind = dse::SearchKind::kSweep;
  spec.sweep.datapaths = {"pipelined-int8"};
  spec.sweep.frequencies_mhz = {200, 300};

  Pipeline first(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  first.set_artifact_cache_dir(dir);
  ASSERT_TRUE(first.optimize(spec).is_ok());
  EXPECT_EQ(first.artifact_cache_hits(), 0);
  EXPECT_EQ(first.artifact_cache_misses(), 1);
  const std::string text = first.save_search();

  // A fresh process (modeled by a fresh pipeline) resumes from the cache:
  // no search runs, and the artifact is bit-identical.
  Pipeline second(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  second.set_artifact_cache_dir(dir);
  ASSERT_TRUE(second.optimize(spec).is_ok());
  EXPECT_EQ(second.artifact_cache_hits(), 1);
  EXPECT_EQ(second.artifact_cache_misses(), 0);
  EXPECT_EQ(second.save_search(), text);
  ASSERT_EQ(second.search()->outcome.sweep.size(), 2u);
}

TEST(ArtifactCacheTest, SpecChangeMissesTheCache) {
  const std::string dir = cache_dir("invalidate");
  dse::SearchSpec spec = fast_options().spec;
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  pipeline.set_artifact_cache_dir(dir);
  ASSERT_TRUE(pipeline.optimize(spec).is_ok());
  EXPECT_EQ(pipeline.artifact_cache_misses(), 1);

  // Any result-affecting field changes the key: the cached entry must not
  // be reused for a different seed...
  dse::SearchSpec reseeded = spec;
  reseeded.search.seed = spec.search.seed + 1;
  ASSERT_TRUE(pipeline.optimize(reseeded).is_ok());
  EXPECT_EQ(pipeline.artifact_cache_hits(), 0);
  EXPECT_EQ(pipeline.artifact_cache_misses(), 2);

  // ...or a different strategy...
  dse::SearchSpec restrategized = spec;
  restrategized.strategy = "random";
  ASSERT_TRUE(pipeline.optimize(restrategized).is_ok());
  EXPECT_EQ(pipeline.artifact_cache_hits(), 0);
  EXPECT_EQ(pipeline.artifact_cache_misses(), 3);

  // ...while the original spec still hits its own entry.
  ASSERT_TRUE(pipeline.optimize(spec).is_ok());
  EXPECT_EQ(pipeline.artifact_cache_hits(), 1);

  // Keys are also platform-scoped: the same spec on another platform
  // computes a different key.
  Pipeline other(nn::zoo::avatar_decoder(), arch::platform_zu17eg());
  EXPECT_NE(pipeline.artifact_cache_key(spec), other.artifact_cache_key(spec));
}

TEST(ArtifactCacheTest, TrafficKeyTracksTheLatencyMode) {
  // Exact and sketch accounting score candidates on different p99 values,
  // so a kTraffic artifact cached in one mode must never serve the other.
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  dse::SearchSpec exact = fast_options().spec;
  exact.kind = dse::SearchKind::kTraffic;
  dse::SearchSpec sketch = exact;
  sketch.traffic.fleet.latency_mode = serving::LatencyMode::kSketch;
  ASSERT_FALSE(pipeline.artifact_cache_key(exact).empty());
  ASSERT_FALSE(pipeline.artifact_cache_key(sketch).empty());
  EXPECT_NE(pipeline.artifact_cache_key(exact),
            pipeline.artifact_cache_key(sketch));
}

TEST(ArtifactCacheTest, KeyTracksExactObjectiveWeights) {
  // Two alphas a few ulps apart run different searches, so they must never
  // share a cached artifact — even though describe() prints them alike.
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  dse::SearchSpec a = fast_options().spec;
  a.objective = dse::Objective::batch_fitness(0.05);
  dse::SearchSpec b = fast_options().spec;
  b.objective = dse::Objective::batch_fitness(0.05000001);
  ASSERT_FALSE(pipeline.artifact_cache_key(a).empty());
  EXPECT_NE(pipeline.artifact_cache_key(a), pipeline.artifact_cache_key(b));
}

TEST(ArtifactCacheTest, UncacheableSpecsBypassTheCache) {
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  dse::SearchSpec spec = fast_options().spec;
  EXPECT_FALSE(pipeline.artifact_cache_key(spec).empty());
  // kTraffic qualifies since artifact v3 serializes the serving stats; its
  // key still differs from the kOptimize key (and from other traffic specs).
  dse::SearchSpec traffic = spec;
  traffic.kind = dse::SearchKind::kTraffic;
  EXPECT_FALSE(pipeline.artifact_cache_key(traffic).empty());
  EXPECT_NE(pipeline.artifact_cache_key(traffic),
            pipeline.artifact_cache_key(spec));
  dse::SearchSpec sharded = traffic;
  sharded.traffic.fleet.instances = 4;
  sharded.traffic.fleet.shards = 2;  // the shard count is part of the model
  EXPECT_NE(pipeline.artifact_cache_key(sharded),
            pipeline.artifact_cache_key(traffic));
  // A deadline makes results timing-dependent.
  spec = fast_options().spec;
  spec.control.deadline_s = 1.0;
  EXPECT_TRUE(pipeline.artifact_cache_key(spec).empty());

  // With no cache dir set, nothing is counted and nothing is written.
  const std::string dir = cache_dir("disabled");
  ASSERT_TRUE(pipeline.optimize(fast_options().spec).is_ok());
  EXPECT_EQ(pipeline.artifact_cache_hits(), 0);
  EXPECT_EQ(pipeline.artifact_cache_misses(), 0);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

namespace {

/// Small SLA-aware traffic spec shared by the kTraffic round-trip tests.
dse::SearchSpec traffic_spec() {
  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kTraffic;
  spec.search.population = 20;
  spec.search.iterations = 4;
  spec.search.seed = 7;
  spec.traffic.workload.users = 2;
  spec.traffic.workload.frame_rate_hz = 10;
  spec.traffic.workload.duration_s = 0.5;
  spec.traffic.workload.seed = 21;
  spec.traffic.fleet.instances = 2;
  spec.traffic.fleet.sla_bound_us = 250000;
  spec.traffic.fleet.batch_timeout_us = 5000;
  spec.traffic.max_batch = 2;
  return spec;
}

void expect_traffic_identical(const dse::TrafficSearchResult& a,
                              const dse::TrafficSearchResult& b) {
  EXPECT_EQ(a.batch_sizes, b.batch_sizes);
  EXPECT_EQ(a.users_served, b.users_served);
  EXPECT_EQ(a.sla_met, b.sla_met);
  EXPECT_EQ(a.sla_fitness, b.sla_fitness);
  EXPECT_EQ(a.search.fitness, b.search.fitness);
  EXPECT_EQ(a.stats.offered, b.stats.offered);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.latency.p99, b.stats.latency.p99);
  EXPECT_EQ(a.stats.latency.mean, b.stats.latency.mean);
  EXPECT_EQ(a.stats.queue_wait.p99, b.stats.queue_wait.p99);
  EXPECT_EQ(a.stats.throughput_rps, b.stats.throughput_rps);
  EXPECT_EQ(a.stats.sla_violation_rate, b.stats.sla_violation_rate);
  EXPECT_EQ(a.stats.branch_completed, b.stats.branch_completed);
  EXPECT_EQ(a.stats.instances.size(), b.stats.instances.size());
}

}  // namespace

TEST(PipelineTest, TrafficArtifactRoundTripsServingStats) {
  // The v3 gap-closer: a kTraffic outcome — including its ServingStats —
  // re-enters a fresh pipeline from the text artifact bit-exactly.
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(pipeline.optimize(traffic_spec()).is_ok());
  const dse::TrafficSearchResult& original =
      pipeline.search()->outcome.traffic;
  ASSERT_GT(original.stats.completed, 0);

  const std::string text = pipeline.save_search();
  ASSERT_FALSE(text.empty());
  Pipeline loaded(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  ASSERT_TRUE(loaded.load_search(text).is_ok());
  EXPECT_EQ(loaded.search()->outcome.kind, dse::SearchKind::kTraffic);
  expect_traffic_identical(loaded.search()->outcome.traffic, original);
  // Serializing again reproduces the exact text, and the loaded winner can
  // drive the simulation stage.
  EXPECT_EQ(loaded.save_search(), text);
  EXPECT_TRUE(loaded.simulate().is_ok());
}

TEST(ArtifactCacheTest, SecondTrafficRunIsACacheHit) {
  const std::string dir = cache_dir("traffic");
  Pipeline first(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  first.set_artifact_cache_dir(dir);
  ASSERT_TRUE(first.optimize(traffic_spec()).is_ok());
  EXPECT_EQ(first.artifact_cache_hits(), 0);
  EXPECT_EQ(first.artifact_cache_misses(), 1);
  const std::string text = first.save_search();

  // A fresh pipeline (fresh process) with the identical spec must reload
  // the artifact — hit counter increments, no search runs, outcome
  // bit-identical down to the serving stats.
  Pipeline second(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  second.set_artifact_cache_dir(dir);
  ASSERT_TRUE(second.optimize(traffic_spec()).is_ok());
  EXPECT_EQ(second.artifact_cache_hits(), 1);
  EXPECT_EQ(second.artifact_cache_misses(), 0);
  EXPECT_EQ(second.save_search(), text);
  expect_traffic_identical(second.search()->outcome.traffic,
                           first.search()->outcome.traffic);

  // A different traffic load is a different key: no false sharing.
  dse::SearchSpec heavier = traffic_spec();
  heavier.traffic.workload.users = 3;
  ASSERT_TRUE(second.optimize(heavier).is_ok());
  EXPECT_EQ(second.artifact_cache_hits(), 1);
  EXPECT_EQ(second.artifact_cache_misses(), 1);
}

TEST(ArtifactCacheTest, CorruptEntryFallsBackToSearch) {
  const std::string dir = cache_dir("corrupt");
  dse::SearchSpec spec = fast_options().spec;
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  pipeline.set_artifact_cache_dir(dir);
  const std::string key = pipeline.artifact_cache_key(spec);
  ASSERT_FALSE(key.empty());
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(std::filesystem::path(dir) / (key + ".artifact"));
    out << "garbage\n";
  }
  ASSERT_TRUE(pipeline.optimize(spec).is_ok());
  EXPECT_EQ(pipeline.artifact_cache_hits(), 0);
  EXPECT_EQ(pipeline.artifact_cache_misses(), 1);
  EXPECT_TRUE(pipeline.search()->best().feasible);

  // The corrupt entry was overwritten with the good artifact: a rerun hits.
  Pipeline rerun(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  rerun.set_artifact_cache_dir(dir);
  ASSERT_TRUE(rerun.optimize(spec).is_ok());
  EXPECT_EQ(rerun.artifact_cache_hits(), 1);
}

TEST(ReportTest, CaseReportContainsKeyRows) {
  PipelineOptions options = fast_options();
  options.run_simulation = true;
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  auto result = pipeline.run(options);
  ASSERT_TRUE(result.is_ok());
  const std::string report =
      case_report("test case", *result, pipeline.platform());
  EXPECT_NE(report.find("test case"), std::string::npos);
  EXPECT_NE(report.find("ZU9CG"), std::string::npos);
  EXPECT_NE(report.find("geometry"), std::string::npos);
  EXPECT_NE(report.find("texture"), std::string::npos);
  EXPECT_NE(report.find("warp_field"), std::string::npos);
  EXPECT_NE(report.find("totals:"), std::string::npos);
  EXPECT_NE(report.find("simulator check"), std::string::npos);
}

TEST(ReportTest, SummaryLineFormat) {
  Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  auto result = pipeline.run(fast_options());
  ASSERT_TRUE(result.is_ok());
  const std::string line = summary_line(*result, pipeline.platform());
  EXPECT_NE(line.find("FPS {"), std::string::npos);
  EXPECT_NE(line.find("DSP "), std::string::npos);
  EXPECT_NE(line.find("/2520"), std::string::npos);
}

TEST(PlatformTest, CatalogMatchesPaperBudgets) {
  EXPECT_EQ(arch::platform_z7045().dsps, 900);
  EXPECT_EQ(arch::platform_z7045().brams18k, 1090);
  EXPECT_EQ(arch::platform_zu17eg().dsps, 1590);
  EXPECT_EQ(arch::platform_zu17eg().brams18k, 1592);
  EXPECT_EQ(arch::platform_zu9cg().dsps, 2520);
  EXPECT_EQ(arch::platform_zu9cg().brams18k, 1824);
  EXPECT_EQ(arch::platform_ku115().dsps, 5520);
  for (const auto& p : arch::all_platforms()) {
    EXPECT_DOUBLE_EQ(p.freq_mhz, 200.0) << p.name;
  }
}

TEST(PlatformTest, LookupByNameCaseInsensitive) {
  auto p = arch::platform_by_name("zu9cg");
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p->name, "ZU9CG");
  EXPECT_FALSE(arch::platform_by_name("nonexistent").is_ok());
}

TEST(PlatformTest, AsicBudget) {
  const arch::Platform asic =
      arch::make_asic("edge-npu", 4096, /*buffer_mib=*/4.0, /*bw=*/25.6,
                      /*freq=*/800.0);
  EXPECT_TRUE(asic.is_asic);
  EXPECT_EQ(asic.dsps, 4096);
  // 4 MiB in 18-Kbit blocks: 4*1024*1024*8 / 18432 = 1821 (ceil).
  EXPECT_EQ(asic.brams18k, 1821);
  EXPECT_GT(asic.bw_bytes_per_cycle(), 0);
}

}  // namespace
}  // namespace fcad::core
