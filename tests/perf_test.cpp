// Hand-computed pins of the paper's analytical performance model, checked
// against the production code: Eq. 4 (arch::cycles_analytical), Eq. 5
// (arch::evaluate) and Eq. 3 (arch::efficiency_eq3).
#include <gtest/gtest.h>

#include "arch/evaluate.hpp"
#include "nn/builder.hpp"

namespace fcad::arch {
namespace {

/// A single-branch chain of `convs` same-padded K x K convolutions over a
/// `input` feature map, each producing `out_ch` channels, reorganized.
ReorganizedModel conv_chain(nn::TensorShape input, int out_ch, int kernel,
                            int convs) {
  nn::Conv2dAttrs attrs;
  attrs.out_ch = out_ch;
  attrs.kernel = kernel;
  nn::GraphBuilder b("chain");
  nn::LayerId x = b.input("x", input);
  for (int i = 0; i < convs; ++i) {
    x = b.conv2d(x, "c" + std::to_string(i), attrs);
  }
  b.output(x, "y");
  auto graph = std::move(b).build();
  FCAD_CHECK_MSG(graph.is_ok(), graph.status().message());
  auto model = reorganize(*graph);
  FCAD_CHECK_MSG(model.is_ok(), model.status().message());
  return std::move(model).value();
}

/// Eq.-3 beta: ops per DSP per cycle at 8-bit (two packed MACs) and 16-bit.
constexpr int kBeta8 = 4;
constexpr int kBeta16 = 2;

TEST(Eq4Test, HandComputedLatency) {
  // 16-in/16-out 512x512 K=4 layer (the decoder's Conv7) at cpf=kpf=16,
  // h=1: macs = 16*16*512*512*16 = 2^30 -> cycles = 2^30/256 = 4194304.
  const ReorganizedModel model = conv_chain({16, 512, 512}, 16, 4, 1);
  ASSERT_EQ(model.fused.stages.size(), 1u);
  const FusedStage& st = model.fused.stages[0];
  EXPECT_DOUBLE_EQ(cycles_analytical(st, UnitConfig{16, 16, 1}), 4194304.0);
}

TEST(Eq4Test, SecondsAtFrequency) {
  // 4194304 cycles at 200 MHz = 20.97 ms.
  const ReorganizedModel model = conv_chain({16, 512, 512}, 16, 4, 1);
  const double cycles =
      cycles_analytical(model.fused.stages[0], UnitConfig{16, 16, 1});
  EXPECT_NEAR(cycles / (200.0 * 1e6), 0.02097152, 1e-9);
}

TEST(Eq4Test, ParallelismIsMultiplicative) {
  const ReorganizedModel model = conv_chain({32, 128, 128}, 64, 3, 1);
  const FusedStage& st = model.fused.stages[0];
  const double base = cycles_analytical(st, UnitConfig{1, 1, 1});
  EXPECT_DOUBLE_EQ(base, 64.0 * 32 * 128 * 128 * 9);
  EXPECT_DOUBLE_EQ(cycles_analytical(st, UnitConfig{4, 2, 8}), base / 64.0);
}

/// Eq. 5 through arch::evaluate: three Conv7-sized stages at h = 4, 1, 2
/// take 2^20, 2^22 and 2^21 cycles, so the middle one is the bottleneck.
AcceleratorEval eval_chain_at_batch(int batch) {
  static const ReorganizedModel model = conv_chain({16, 512, 512}, 16, 4, 3);
  FCAD_CHECK(model.branches.size() == 1);
  FCAD_CHECK(model.branches[0].stages.size() == 3);
  AcceleratorConfig config;
  config.freq_mhz = 200.0;
  BranchHardwareConfig hw;
  hw.batch = batch;
  hw.units = {UnitConfig{16, 16, 4}, UnitConfig{16, 16, 1},
              UnitConfig{16, 16, 2}};
  config.branches.push_back(hw);
  return evaluate(model, config, EvalMode::kAnalytical);
}

TEST(Eq5Test, BottleneckStageSetsThroughput) {
  // Stages of 2^20 / 2^22 / 2^21 cycles at 200 MHz, batch 1:
  // 200e6 / 4194304 = 47.6837158203125 FPS.
  const AcceleratorEval eval = eval_chain_at_batch(1);
  EXPECT_DOUBLE_EQ(eval.branches[0].bottleneck_cycles, 4194304.0);
  EXPECT_DOUBLE_EQ(eval.min_fps, 47.6837158203125);
}

TEST(Eq5Test, BatchMultiplies) {
  EXPECT_DOUBLE_EQ(eval_chain_at_batch(2).min_fps, 95.367431640625);
  EXPECT_DOUBLE_EQ(eval_chain_at_batch(4).min_fps, 190.73486328125);
}

TEST(Eq3Test, PaperArithmeticDnnBuilderScheme1) {
  // Table II cross-check: 30.5 FPS x 13.1 GOP mimic on 644 DSPs, 8-bit,
  // 200 MHz -> 399.55/(4*644*0.2) = 77.6%; the paper rounds its decoder to
  // 13.76 GOP for exactly 81.6%. We verify our formula against the exact
  // arithmetic.
  const double gops = 30.5 * 13.1;
  EXPECT_NEAR(efficiency_eq3(gops, kBeta8, 644, 200e6), 0.7757, 0.001);
}

TEST(Eq3Test, PaperArithmeticHybridDnnScheme1) {
  // 12.1 FPS x 13.1 GOP on 512 DSPs, 16-bit -> 77.4% (paper: 77.5%).
  const double gops = 12.1 * 13.1;
  EXPECT_NEAR(efficiency_eq3(gops, kBeta16, 512, 200e6), 0.774, 0.002);
}

TEST(Eq3Test, PeakGops) {
  // 2520 DSPs at 200 MHz: 8-bit peak = 4*2520*0.2 = 2016 GOP/s, 16-bit
  // peak = 1008 GOP/s; delivering the peak is 100% efficiency.
  EXPECT_DOUBLE_EQ(efficiency_eq3(2016.0, kBeta8, 2520, 200e6), 1.0);
  EXPECT_DOUBLE_EQ(efficiency_eq3(1008.0, kBeta16, 2520, 200e6), 1.0);
}

TEST(Eq3Test, EfficiencyIsOneAtPeak) {
  // 100 DSPs at 200 MHz, 8-bit: peak = 4*100*0.2 = 80 GOP/s.
  EXPECT_DOUBLE_EQ(efficiency_eq3(80.0, kBeta8, 100, 200e6), 1.0);
}

TEST(Eq3Test, ZeroDspsGivesZeroEfficiency) {
  EXPECT_DOUBLE_EQ(efficiency_eq3(100.0, kBeta8, 0, 200e6), 0.0);
}

}  // namespace
}  // namespace fcad::arch
