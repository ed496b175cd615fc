// Cross-module integration tests: hand-checkable small accelerators,
// bandwidth accounting arithmetic, 16-bit baseline paths, and a four-branch
// decoder through the whole flow.
#include <gtest/gtest.h>

#include "arch/config_io.hpp"
#include "baselines/dnnbuilder.hpp"
#include "baselines/hybriddnn.hpp"
#include "core/pipeline.hpp"
#include "dse/in_branch.hpp"
#include "dse/search_driver.hpp"
#include "nn/builder.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "nn/zoo/classic_nets.hpp"
#include "sim/simulator.hpp"

namespace fcad {
namespace {

/// The paper's default datapath: a pipelined int8 MAC array.
const arch::Datapath kPipelinedInt8{};

/// input -> conv(k3, tied bias) -> output: one stage, everything resident.
arch::ReorganizedModel tiny_model(int ch = 16, int hw = 32) {
  nn::GraphBuilder b("tiny");
  auto in = b.input("x", {ch, hw, hw});
  auto c = b.conv2d(in, "c", {.out_ch = ch, .kernel = 3});
  b.output(c, "y");
  auto g = std::move(b).build();
  FCAD_CHECK(g.is_ok());
  auto model = arch::reorganize(*g);
  FCAD_CHECK(model.is_ok());
  return std::move(model).value();
}

TEST(IntegrationTest, TinyModelEvaluationByHand) {
  // 16->16 @32x32 K=3: macs = 16*16*9*1024 = 2'359'296.
  const auto model = tiny_model();
  arch::AcceleratorConfig config;
  config.branches.push_back({.batch = 1, .units = {{4, 4, 2}}});  // 32 lanes
  const auto eval = arch::evaluate(model, config, arch::EvalMode::kQuantized);
  ASSERT_EQ(eval.branches.size(), 1u);
  // cycles = (16/4)*(16/4)*(32/2)*32*9 = 73'728 -> at 200 MHz: 2712.7 FPS.
  EXPECT_DOUBLE_EQ(eval.branches[0].stages[0].cycles, 73728.0);
  EXPECT_NEAR(eval.branches[0].fps, 200e6 / 73728.0, 1e-6);
  // 8-bit: 32 lanes -> 16 DSPs.
  EXPECT_EQ(eval.branches[0].dsps, 16);
  // gops = 2 * macs * fps.
  EXPECT_NEAR(eval.branches[0].gops,
              2.0 * 2359296.0 * eval.branches[0].fps * 1e-9, 1e-6);
}

TEST(IntegrationTest, BandwidthAccountingArithmetic) {
  // Head+tail stage: features stream in and out; tied bias params stream.
  const auto model = tiny_model();
  arch::AcceleratorConfig config;
  config.branches.push_back({.batch = 2, .units = {{16, 16, 32}}});
  const auto eval = arch::evaluate(model, config, arch::EvalMode::kQuantized);
  const auto& be = eval.branches[0];
  // Per frame: in 16*32*32 = 16384 B, out 16384 B; params: 16 bias bytes.
  // BW = params * (fps/batch) + features * fps.
  const double expected =
      (16.0 * (be.fps / 2) + 32768.0 * be.fps) * 1e-9;
  EXPECT_NEAR(be.bw_gbps, expected, 1e-9);
}

TEST(IntegrationTest, InBranchIsBandwidthAware) {
  // A slice whose bandwidth cannot even feed the minimal (pf = 1) pipeline
  // must be reported as infeasible — the accelerator cannot run slower than
  // its smallest configuration.
  const auto model = tiny_model();
  const dse::ResourceBudget starved{10000, 10000, 0.001};  // 1 MB/s
  const auto r = dse::in_branch_optimize(model, 0, starved, 1,
                                         kPipelinedInt8, 200.0);
  EXPECT_FALSE(r.met_batch_target);
  // A slice with just enough bandwidth for one pipeline is feasible, and the
  // greedy loop backs parallelism off until the traffic fits.
  const dse::ResourceBudget tight{10000, 10000, 0.004};  // 4 MB/s
  const auto rt = dse::in_branch_optimize(model, 0, tight, 1,
                                          kPipelinedInt8, 200.0);
  EXPECT_TRUE(rt.met_batch_target);
  EXPECT_LE(rt.bw_used, 0.004 + 1e-9);
}

TEST(IntegrationTest, InBranchExploitsAmpleBandwidth) {
  const auto model = tiny_model();
  const dse::ResourceBudget ample{100000, 100000, 1000.0};
  const auto r = dse::in_branch_optimize(model, 0, ample, 1,
                                         kPipelinedInt8, 200.0);
  ASSERT_TRUE(r.met_batch_target);
  // Nothing constrains the stage: the greedy search should reach max
  // parallelism (16*16*32 lanes).
  EXPECT_EQ(r.config.units[0].lanes(), 16LL * 16 * 32);
}

TEST(IntegrationTest, SimulatorSteadyStateByHand) {
  // One stage, 32 conv rows in 2 slabs (16 rows each in parallel):
  // steady frame period ~ 16 * (row_cycles + 4 out-tile passes x 12 drain
  // cycles + 8 row-overhead cycles).
  const auto model = tiny_model();
  arch::AcceleratorConfig config;
  config.branches.push_back({.batch = 1, .units = {{4, 4, 2}}});
  const auto result = sim::simulate(model, config, arch::platform_zu9cg());
  const double row_cycles = 4.0 * 4 * 32 * 9;  // in_tiles*out_tiles*W*K^2
  const double step = row_cycles + 4 * 12 + 8;
  const double expected_fps = 200e6 / (16.0 * step);
  EXPECT_NEAR(result.branches[0].fps, expected_fps, 0.01 * expected_fps);
}

TEST(IntegrationTest, SixteenBitBaselinesRun) {
  auto mimic = arch::reorganize(nn::zoo::mimic_decoder());
  ASSERT_TRUE(mimic.is_ok());
  const auto dnnb = baselines::run_dnnbuilder(*mimic, arch::platform_zu9cg(),
                                              nn::DataType::kInt16);
  EXPECT_GT(dnnb.fps, 0);
  EXPECT_LE(dnnb.dsps, 2520);
  // 16-bit halves the packing: fewer lanes fit, so no faster than 8-bit.
  const auto dnnb8 = baselines::run_dnnbuilder(*mimic, arch::platform_zu9cg(),
                                               nn::DataType::kInt8);
  EXPECT_LE(dnnb.fps, dnnb8.fps * 1.001);

  const auto hybrid8 = baselines::run_hybriddnn(*mimic, arch::platform_zu9cg(),
                                                nn::DataType::kInt8);
  const auto hybrid16 = baselines::run_hybriddnn(
      *mimic, arch::platform_zu9cg(), nn::DataType::kInt16);
  // 8-bit packs two lanes per DSP: the selected engine has at least as many
  // lanes as the 16-bit one.
  EXPECT_GE(hybrid8.lanes, hybrid16.lanes);
  EXPECT_GT(hybrid8.fps, hybrid16.fps);
}

TEST(IntegrationTest, FourBranchDecoderThroughFullFlow) {
  // Mirrors examples/custom_decoder.cpp: two concats sharing the latent map
  // (texture front-end and audio-driven branch).
  nn::GraphBuilder b("four_branch");
  auto latent = b.input("latent", {4, 8, 8});
  auto view = b.input("view", {3, 8, 8});
  auto audio = b.input("audio", {1, 8, 8});

  auto cau = [&](nn::LayerId x, const std::string& p, int ch) {
    x = b.conv2d(x, p + "_conv",
                 {.out_ch = ch, .kernel = 4, .untied_bias = true});
    x = b.leaky_relu(x, p + "_act");
    return b.upsample2x(x, p + "_up");
  };

  auto g1 = cau(latent, "g1", 32);
  g1 = cau(g1, "g2", 16);
  b.output(b.conv2d(g1, "g_out", {.out_ch = 3, .kernel = 4}), "geometry");

  auto shared = b.concat({latent, view}, "lv");
  shared = cau(shared, "s1", 64);
  auto t1 = cau(shared, "t1", 32);
  b.output(b.conv2d(t1, "t_out", {.out_ch = 3, .kernel = 4}), "texture");
  auto w1 = cau(shared, "w1", 16);
  b.output(b.conv2d(w1, "w_out", {.out_ch = 2, .kernel = 4}), "warp");

  auto mouth = b.concat({latent, audio}, "la");
  mouth = cau(mouth, "m1", 32);
  b.output(b.conv2d(mouth, "m_out", {.out_ch = 3, .kernel = 4}), "mouth");

  auto graph = std::move(b).build();
  ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();

  core::PipelineOptions options;
  options.spec.customization.batch_sizes = {1, 2, 2, 1};
  options.spec.search.population = 25;
  options.spec.search.iterations = 5;
  options.run_simulation = true;
  core::Pipeline pipeline(std::move(graph).value(),
                          arch::platform_zu17eg());
  auto result = pipeline.run(options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->model.num_branches(), 4);
  EXPECT_TRUE(result->search.feasible);
  // Shared stage s1 must be owned by the heavier texture branch.
  ASSERT_EQ(result->model.shared_stages.size(), 1u);
  EXPECT_EQ(result->model.owner[static_cast<std::size_t>(
                result->model.shared_stages[0])],
            1);
  // Config survives a save/load round trip and re-evaluates identically.
  const std::string text =
      arch::config_to_text(result->model, result->search.config);
  auto parsed = arch::config_from_text(result->model, text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto eval =
      arch::evaluate(result->model, *parsed, arch::EvalMode::kQuantized);
  EXPECT_EQ(eval.dsps, result->search.eval.dsps);
}

TEST(IntegrationTest, FusionStageCountsForAllBackbones) {
  const struct {
    nn::Graph graph;
    std::size_t stages;
  } cases[] = {
      {nn::zoo::alexnet(), 8u},     // 5 conv + 3 fc
      {nn::zoo::zfnet(), 8u},       // 5 conv + 3 fc
      {nn::zoo::vgg16(), 16u},      // 13 conv + 3 fc
      {nn::zoo::tiny_yolo(), 9u},   // 9 conv
  };
  for (const auto& c : cases) {
    auto model = arch::reorganize(c.graph);
    ASSERT_TRUE(model.is_ok()) << c.graph.name();
    EXPECT_EQ(model->fused.stages.size(), c.stages) << c.graph.name();
  }
}

TEST(IntegrationTest, CrossBranchCapConsistencyOnDecoder) {
  // Whatever config the DSE returns, no branch may report a higher FPS than
  // the production rate of the shared stages it consumes.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());
  dse::SearchSpec spec;
  spec.customization.batch_sizes = {1, 2, 2};
  spec.search.population = 25;
  spec.search.iterations = 5;
  auto outcome =
      dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok());
  const auto& eval = outcome->search.eval;
  const auto& config = outcome->search.config;
  for (int s : model->shared_stages) {
    const int owner = model->owner[static_cast<std::size_t>(s)];
    // Find the stage latency inside the owner's evaluation.
    for (const arch::StageEval& se :
         eval.branches[static_cast<std::size_t>(owner)].stages) {
      if (se.stage != s) continue;
      const double producer_fps =
          config.branches[static_cast<std::size_t>(owner)].batch * 200e6 /
          se.cycles;
      for (std::size_t b = 0; b < model->branches.size(); ++b) {
        if (static_cast<int>(b) == owner) continue;
        bool consumes = false;
        for (int p : model->branches[b].path) consumes |= p == s;
        if (consumes) {
          EXPECT_LE(eval.branches[b].fps, producer_fps + 1e-6);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fcad
