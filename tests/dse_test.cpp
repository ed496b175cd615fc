#include <gtest/gtest.h>

#include "arch/platform.hpp"
#include "dse/in_branch.hpp"
#include "dse/objective.hpp"
#include "dse/search_driver.hpp"
#include "dse/spec_hash.hpp"
#include "nn/builder.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "nn/zoo/classic_nets.hpp"

namespace fcad::dse {
namespace {

/// The paper's default datapath: a pipelined int8 MAC array.
const arch::Datapath kPipelinedInt8{};

const arch::ReorganizedModel& decoder_model() {
  static const arch::ReorganizedModel model = [] {
    auto m = arch::reorganize(nn::zoo::avatar_decoder());
    FCAD_CHECK(m.is_ok());
    return std::move(m).value();
  }();
  return model;
}

// ---------------------------------------------------------- customization --
TEST(CustomizationTest, DefaultsExpand) {
  Customization c;
  ASSERT_TRUE(c.normalize(3).is_ok());
  EXPECT_EQ(c.batch_sizes, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(c.priorities, (std::vector<double>{1, 1, 1}));
}

TEST(CustomizationTest, ArityMismatchRejected) {
  Customization c;
  c.batch_sizes = {1, 2};
  EXPECT_FALSE(c.normalize(3).is_ok());
}

TEST(CustomizationTest, NonPositiveBatchRejected) {
  Customization c;
  c.batch_sizes = {1, 0, 2};
  EXPECT_FALSE(c.normalize(3).is_ok());
}

TEST(CustomizationTest, NegativePriorityRejected) {
  Customization c;
  c.priorities = {1.0, -1.0, 1.0};
  EXPECT_FALSE(c.normalize(3).is_ok());
}

TEST(CustomizationTest, ZeroPriorityRejectedWithBranchIndex) {
  Customization c;
  c.priorities = {1.0, 1.0, 0.0};
  const Status s = c.normalize(3);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("branch 2"), std::string::npos) << s.message();
}

TEST(CustomizationTest, NormalizeResolvesDatapath) {
  Customization c;
  ASSERT_TRUE(c.normalize(2).is_ok());
  EXPECT_EQ(c.datapath, "pipelined-int8");  // the default
  EXPECT_EQ(c.resolved_datapath(), arch::Datapath{});

  Customization d;
  d.datapath = "staged-int8x4";
  ASSERT_TRUE(d.normalize(2).is_ok());
  EXPECT_EQ(d.resolved_datapath(),
            (arch::Datapath{arch::MacStyle::kStaged, nn::DataType::kInt8,
                            nn::DataType::kInt4}));
}

TEST(SpecHashTest, DefaultDatapathHashesLikeExplicitPipelinedInt8) {
  // The artifact cache keys on spec_hash: the default customization and one
  // naming the default datapath run the same search and must share a key.
  SearchSpec implicit;
  SearchSpec explicit_int8;
  explicit_int8.customization.datapath = "pipelined-int8";
  EXPECT_EQ(spec_hash(implicit).hex(), spec_hash(explicit_int8).hex());

  SearchSpec int16;
  int16.customization.datapath = "pipelined-int16";
  EXPECT_NE(spec_hash(implicit).hex(), spec_hash(int16).hex());
}

TEST(SpecHashTest, ObjectiveWeightsHashExactly) {
  // Two alphas that print alike under %g must still key apart, whether the
  // objective is set on the spec or on the search options.
  SearchSpec a;
  a.objective = Objective::batch_fitness(0.05);
  SearchSpec b;
  b.objective = Objective::batch_fitness(0.05000001);
  ASSERT_EQ(a.objective.describe(), b.objective.describe());
  EXPECT_NE(spec_hash(a).hex(), spec_hash(b).hex());

  SearchSpec c;
  c.search.objective = Objective::batch_fitness(0.05);
  SearchSpec d;
  d.search.objective = Objective::batch_fitness(0.05000001);
  EXPECT_NE(spec_hash(c).hex(), spec_hash(d).hex());
  // The same weights hash alike.
  EXPECT_EQ(spec_hash(c).hex(), spec_hash(SearchSpec{}).hex());
}

TEST(CustomizationTest, BadDatapathRejected) {
  Customization c;
  c.datapath = "systolic-int8";
  const Status s = c.normalize(2);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("unknown datapath"), std::string::npos)
      << s.message();
}

// --------------------------------------------------------- design space --
TEST(DesignSpaceTest, StatsCountDimensions) {
  const DesignSpaceStats stats = design_space_stats(decoder_model());
  EXPECT_EQ(stats.branches, 3);
  EXPECT_EQ(stats.stages, 18);
  // datapath + batch per branch + 3 per stage
  EXPECT_EQ(stats.dimensions, 1 + 3 + 3 * 18);
  EXPECT_GT(stats.log10_configs, 20.0);  // a genuinely huge space
}

TEST(DesignSpaceTest, DistributionSlice) {
  ResourceDistribution rd;
  rd.c_frac = {0.5, 0.3, 0.2};
  rd.m_frac = {0.2, 0.5, 0.3};
  rd.bw_frac = {0.1, 0.8, 0.1};
  const ResourceBudget budget{1000, 500, 10};
  const ResourceBudget s1 = rd.slice(budget, 1);
  EXPECT_DOUBLE_EQ(s1.c, 300);
  EXPECT_DOUBLE_EQ(s1.m, 250);
  EXPECT_DOUBLE_EQ(s1.bw, 8);
}

// -------------------------------------------------------------- fitness --
TEST(FitnessTest, VarianceOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(variance({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
}

TEST(FitnessTest, VarianceHandValue) {
  EXPECT_DOUBLE_EQ(variance({2, 4, 6}), 8.0 / 3.0);
}

TEST(FitnessTest, PriorityWeightedSum) {
  // alpha = 0 isolates S = sum fps_j * P_j.
  ObjectiveInput input;
  input.fps = {10, 20};
  input.priorities = {1, 2};
  EXPECT_DOUBLE_EQ(Objective::batch_fitness(0).score(input), 50.0);
}

TEST(FitnessTest, VariancePenaltyPrefersBalance) {
  const Objective objective = Objective::batch_fitness(1.0);
  ObjectiveInput balanced;
  balanced.fps = {30, 30};
  balanced.priorities = {1, 1};
  ObjectiveInput skewed = balanced;
  skewed.fps = {10, 50};
  // same sum, lower variance wins
  EXPECT_GT(objective.score(balanced), objective.score(skewed));
}

TEST(FitnessTest, InfeasibleNeverBeatsFeasible) {
  const Objective objective = Objective::batch_fitness();
  ObjectiveInput feasible;
  feasible.fps = {1, 1, 1};
  feasible.priorities = {1, 1, 1};
  ObjectiveInput infeasible = feasible;
  infeasible.fps = {1000, 1000, 1000};
  infeasible.unmet_targets = 1;
  EXPECT_GT(objective.score(feasible), objective.score(infeasible));
}

// ------------------------------------------------------------ in-branch --
TEST(InBranchTest, GenerousBudgetMeetsBatchTarget) {
  const ResourceBudget slice{2000, 1500, 10.0};
  const InBranchResult r =
      in_branch_optimize(decoder_model(), 0, slice, 2, kPipelinedInt8, 200.0);
  EXPECT_TRUE(r.met_batch_target);
  EXPECT_EQ(r.config.batch, 2);
  EXPECT_EQ(r.config.units.size(), 6u);
  EXPECT_LE(r.c_used, slice.c);
  EXPECT_LE(r.m_used, slice.m);
  EXPECT_LE(r.bw_used, slice.bw + 1e-9);
}

TEST(InBranchTest, StarvedBudgetReportsUnmet) {
  const ResourceBudget slice{4, 10, 0.01};
  const InBranchResult r =
      in_branch_optimize(decoder_model(), 1, slice, 2, kPipelinedInt8, 200.0);
  EXPECT_FALSE(r.met_batch_target);
  // Even then the config is structurally valid (>= 1 parallelism).
  for (const arch::UnitConfig& u : r.config.units) {
    EXPECT_GE(u.lanes(), 1);
  }
}

TEST(InBranchTest, TighterBudgetNeverFaster) {
  const ResourceBudget big{2000, 1200, 12.8};
  const ResourceBudget small{200, 400, 1.0};
  const auto rb = in_branch_optimize(decoder_model(), 1, big, 1,
                                     kPipelinedInt8, 200.0);
  const auto rs = in_branch_optimize(decoder_model(), 1, small, 1,
                                     kPipelinedInt8, 200.0);
  EXPECT_LE(rb.bottleneck_cycles, rs.bottleneck_cycles);
}

TEST(InBranchTest, HalvingLoopConvergesOnTightBudget) {
  const ResourceBudget slice{64, 400, 0.5};
  const InBranchResult r =
      in_branch_optimize(decoder_model(), 1, slice, 1, kPipelinedInt8, 200.0);
  EXPECT_GT(r.halvings, 0);  // the greedy search actually had to back off
  EXPECT_LE(r.c_used, slice.c);
}

TEST(InBranchTest, EmptyBranchIsTriviallyFeasible) {
  // A model where one branch owns nothing: single-output chain has one
  // branch owning everything, so build a two-output graph where branch 1
  // fully contains branch 0... simplest: geometry branch of the decoder is
  // never empty, so synthesize the edge case directly.
  nn::GraphBuilder b("t");
  auto in = b.input("x", {4, 8, 8});
  auto c1 = b.conv2d(in, "c1", {.out_ch = 64, .kernel = 3});
  b.output(c1, "small");  // branch 0 ends at the shared conv
  auto c2 = b.conv2d(c1, "c2", {.out_ch = 64, .kernel = 3});
  b.output(c2, "big");
  auto g = std::move(b).build();
  ASSERT_TRUE(g.is_ok());
  auto model = arch::reorganize(*g);
  ASSERT_TRUE(model.is_ok());
  // Branch "small" shares c1, owned by "big" (higher demand) -> owns nothing.
  const ResourceBudget slice{10, 10, 0.1};
  int empty_branch = model->branches[0].stages.empty() ? 0 : 1;
  const InBranchResult r =
      in_branch_optimize(*model, empty_branch, slice, 3, kPipelinedInt8,
                         200.0);
  EXPECT_TRUE(r.met_batch_target);
  EXPECT_EQ(r.c_used, 0);
}

TEST(InBranchTest, BranchTablesMatchGetPfAndTheUnitModels) {
  // Oracle for Algorithm 2's per-search tables, on every decoder stage and
  // every registered datapath: for every pf in [1, max_lanes] the table
  // picks get_pf's config, and each entry's resources and cycles are
  // unit_resources' and cycles_analytical's at that config.
  const arch::ReorganizedModel& model = decoder_model();
  std::vector<arch::Datapath> datapaths;
  std::vector<std::vector<BranchTable>> tables;  // per datapath
  for (const std::string& name : arch::registered_datapath_names()) {
    auto dp = arch::datapath_from_string(name);
    ASSERT_TRUE(dp.is_ok()) << name;
    datapaths.push_back(*dp);
    tables.push_back(build_branch_tables(model, *dp));
    ASSERT_EQ(tables.back().size(),
              static_cast<std::size_t>(model.num_branches()));
  }
  std::size_t stages_checked = 0;
  for (int b = 0; b < model.num_branches(); ++b) {
    const arch::BranchPipeline& br =
        model.branches[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < br.stages.size(); ++i) {
      const int s = br.stages[i];
      const arch::FusedStage& stage = model.stage(s);
      arch::UnitStreamContext ctx;
      ctx.reads_external_input =
          model.fused.stage_inputs[static_cast<std::size_t>(s)].empty();
      ctx.writes_external_output =
          !model.fused.stage_outputs[static_cast<std::size_t>(s)].empty();
      const std::int64_t max_lanes = arch::max_lanes(stage);
      // lookup() reads only the lane counts, which with the configs are
      // the same on every datapath; sweep every pf on the first.
      const BranchTable::Stage& first =
          tables.front()[static_cast<std::size_t>(b)].stages[i];
      for (const std::vector<BranchTable>& per_dp : tables) {
        const BranchTable::Stage& t =
            per_dp[static_cast<std::size_t>(b)].stages[i];
        EXPECT_EQ(t.lanes, first.lanes) << stage.name;
        EXPECT_EQ(t.configs, first.configs) << stage.name;
      }
      std::int64_t wrong_picks = 0;
      for (std::int64_t pf = 1; pf <= max_lanes + 1; ++pf) {
        if (first.configs[first.lookup(pf)] != arch::get_pf(pf, stage)) {
          ++wrong_picks;
        }
      }
      EXPECT_EQ(wrong_picks, 0) << stage.name;

      for (std::size_t d = 0; d < datapaths.size(); ++d) {
        SCOPED_TRACE(stage.name + " on " +
                     arch::datapath_to_string(datapaths[d]));
        const BranchTable::Stage& t =
            tables[d][static_cast<std::size_t>(b)].stages[i];
        EXPECT_EQ(t.ops, static_cast<double>(stage.macs));
        EXPECT_EQ(t.max_lanes, max_lanes);
        EXPECT_EQ(t.stream_bytes,
                  static_cast<double>(
                      arch::unit_resources(stage, arch::UnitConfig{1, 1, 1},
                                           datapaths[d], ctx)
                          .total_stream_bytes()));
        ASSERT_EQ(t.configs.size(), t.lanes.size());
        ASSERT_EQ(t.resources.size(), t.lanes.size());
        ASSERT_EQ(t.cycles.size(), t.lanes.size());
        for (std::size_t e = 0; e < t.lanes.size(); ++e) {
          const arch::UnitConfig& cfg = t.configs[e];
          EXPECT_EQ(t.lanes[e], cfg.lanes());
          const arch::UnitResources want =
              arch::unit_resources(stage, cfg, datapaths[d], ctx);
          EXPECT_EQ(t.resources[e].dsps, want.dsps);
          EXPECT_EQ(t.resources[e].luts, want.luts);
          EXPECT_EQ(t.resources[e].brams, want.brams);
          EXPECT_EQ(t.resources[e].param_stream_bytes,
                    want.param_stream_bytes);
          EXPECT_EQ(t.resources[e].feature_stream_bytes,
                    want.feature_stream_bytes);
          EXPECT_EQ(t.cycles[e],
                    arch::cycles_analytical(stage, cfg, datapaths[d]));
        }
      }
      ++stages_checked;
    }
  }
  EXPECT_EQ(stages_checked, model.fused.stages.size());
}

// ----------------------------------------------------------- cross-branch --
CrossBranchOptions fast_options(std::uint64_t seed = 1) {
  CrossBranchOptions opt;
  opt.population = 30;
  opt.iterations = 6;
  opt.seed = seed;
  return opt;
}

Customization decoder_customization() {
  Customization c;
  c.datapath = "pipelined-int8";
  c.batch_sizes = {1, 2, 2};
  c.priorities = {1, 1, 1};
  return c;
}

TEST(CrossBranchTest, FindsFeasibleDesignOnZu9cg) {
  const auto result = cross_branch_search(
      decoder_model(),
      ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), fast_options());
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.eval.min_fps, 10.0);
  // Budget respected after quantized re-evaluation.
  EXPECT_LE(result.eval.dsps, 2520);
  EXPECT_LE(result.eval.brams, 1824);
}

TEST(CrossBranchTest, BatchCustomizationHonored) {
  const auto result = cross_branch_search(
      decoder_model(),
      ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), fast_options());
  ASSERT_EQ(result.config.branches.size(), 3u);
  EXPECT_EQ(result.config.branches[0].batch, 1);
  EXPECT_EQ(result.config.branches[1].batch, 2);
  EXPECT_EQ(result.config.branches[2].batch, 2);
}

TEST(CrossBranchTest, GlobalBestMonotonicallyImproves) {
  const auto result = cross_branch_search(
      decoder_model(),
      ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), fast_options());
  const auto& history = result.trace.best_fitness;
  ASSERT_EQ(history.size(), 6u);
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i], history[i - 1]);
  }
}

TEST(CrossBranchTest, DeterministicForSameSeed) {
  const auto a = cross_branch_search(
      decoder_model(),
      ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), fast_options(99));
  const auto b = cross_branch_search(
      decoder_model(),
      ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), fast_options(99));
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.eval.dsps, b.eval.dsps);
  EXPECT_EQ(a.trace.convergence_iteration, b.trace.convergence_iteration);
}

TEST(CrossBranchTest, PriorityShiftsResources) {
  Customization texture_heavy = decoder_customization();
  texture_heavy.priorities = {0.1, 10.0, 0.1};
  Customization geometry_heavy = decoder_customization();
  geometry_heavy.priorities = {10.0, 0.1, 0.1};
  const auto budget = ResourceBudget::from_platform(arch::platform_zu9cg());
  const auto t = cross_branch_search(decoder_model(), budget, texture_heavy,
                                     fast_options(5));
  const auto g = cross_branch_search(decoder_model(), budget, geometry_heavy,
                                     fast_options(5));
  // Geometry-prioritized search gives Br.1 at least as high FPS as the
  // texture-prioritized one does.
  EXPECT_GE(g.eval.branches[0].fps, t.eval.branches[0].fps);
}

TEST(CrossBranchTest, BiggerBudgetNeverWorse) {
  const auto small = cross_branch_search(
      decoder_model(), ResourceBudget::from_platform(arch::platform_z7045()),
      decoder_customization(), fast_options(3));
  const auto big = cross_branch_search(
      decoder_model(), ResourceBudget::from_platform(arch::platform_zu9cg()),
      decoder_customization(), fast_options(3));
  EXPECT_GE(big.eval.min_fps, small.eval.min_fps * 0.95);
}

// ---------------------------------------------------------------- driver --
TEST(SearchDriverTest, OptimizeNormalizesAndRuns) {
  SearchSpec spec;
  spec.search = fast_options();
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_EQ(outcome->kind, SearchKind::kOptimize);
  EXPECT_TRUE(outcome->search.feasible);  // default batch {1,1,1} fits easily
}

TEST(SearchDriverTest, BadCustomizationPropagates) {
  SearchSpec spec;
  spec.customization.batch_sizes = {1, 2};  // wrong arity
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_FALSE(outcome.is_ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(SearchDriverTest, ConvergenceStudyAggregates) {
  SearchSpec spec;
  spec.kind = SearchKind::kConvergence;
  spec.customization = decoder_customization();
  spec.search = fast_options();
  spec.convergence_runs = 3;
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  const ConvergenceStats& stats = outcome->convergence;
  EXPECT_EQ(stats.runs, 3);
  EXPECT_GE(stats.mean_iterations, stats.min_iterations);
  EXPECT_LE(stats.mean_iterations, stats.max_iterations);
  EXPECT_GE(stats.min_iterations, 1);
  EXPECT_LE(stats.max_iterations, 6);
  EXPECT_GE(stats.fitness_spread, 0);
}

}  // namespace
}  // namespace fcad::dse
