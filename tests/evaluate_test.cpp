#include <gtest/gtest.h>

#include "arch/evaluate.hpp"
#include "nn/zoo/avatar_decoder.hpp"

namespace fcad::arch {
namespace {

class EvaluateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto model = reorganize(nn::zoo::avatar_decoder());
    ASSERT_TRUE(model.is_ok());
    model_ = std::make_unique<ReorganizedModel>(std::move(model).value());
  }

  /// A structurally valid config: every owned stage at a modest divisor
  /// triple chosen via get_pf.
  AcceleratorConfig make_config(std::int64_t lanes_per_stage,
                                std::vector<int> batches) {
    AcceleratorConfig config;
    for (std::size_t b = 0; b < model_->branches.size(); ++b) {
      BranchHardwareConfig hw;
      hw.batch = batches[b];
      for (int s : model_->branches[b].stages) {
        hw.units.push_back(get_pf(lanes_per_stage, model_->stage(s)));
      }
      config.branches.push_back(std::move(hw));
    }
    return config;
  }

  std::unique_ptr<ReorganizedModel> model_;
};

TEST_F(EvaluateTest, EvaluatePopulatesEveryBranch) {
  const auto config = make_config(64, {1, 1, 1});
  const AcceleratorEval eval =
      evaluate(*model_, config, EvalMode::kAnalytical);
  ASSERT_EQ(eval.branches.size(), 3u);
  for (const BranchEval& be : eval.branches) {
    EXPECT_GT(be.fps, 0);
    EXPECT_GT(be.dsps, 0);
    EXPECT_GT(be.brams, 0);
    EXPECT_GT(be.bottleneck_cycles, 0);
    EXPECT_GT(be.efficiency, 0);
  }
  EXPECT_EQ(eval.dsps,
            eval.branches[0].dsps + eval.branches[1].dsps +
                eval.branches[2].dsps);
}

TEST_F(EvaluateTest, BatchReplicationScalesFpsAndResources) {
  const auto eval1 =
      evaluate(*model_, make_config(64, {1, 1, 1}), EvalMode::kAnalytical);
  const auto eval2 =
      evaluate(*model_, make_config(64, {2, 2, 2}), EvalMode::kAnalytical);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_NEAR(eval2.branches[b].fps, 2 * eval1.branches[b].fps, 1e-6);
    EXPECT_EQ(eval2.branches[b].dsps, 2 * eval1.branches[b].dsps);
    EXPECT_EQ(eval2.branches[b].brams, 2 * eval1.branches[b].brams);
  }
}

TEST_F(EvaluateTest, CrossBranchCapBindsWarpField) {
  // Give Br.3 huge parallelism but keep the shared stages (owned by Br.2)
  // slow: Br.3's FPS must not exceed the shared stages' production rate.
  AcceleratorConfig config = make_config(16, {1, 1, 1});
  auto& br3 = config.branches[2];
  for (std::size_t i = 0; i < br3.units.size(); ++i) {
    br3.units[i] =
        get_pf(4096, model_->stage(model_->branches[2].stages[i]));
  }
  const AcceleratorEval eval =
      evaluate(*model_, config, EvalMode::kAnalytical);

  // Producer rate of the slowest shared stage:
  double shared_rate = 1e300;
  for (int s : model_->shared_stages) {
    // shared stages are owned by Br.2 and configured with 16 lanes here;
    // find the stage eval inside Br.2.
    for (const StageEval& se : eval.branches[1].stages) {
      if (se.stage == s) {
        shared_rate = std::min(
            shared_rate, config.freq_mhz * 1e6 / se.cycles);
      }
    }
  }
  EXPECT_LE(eval.branches[2].fps, shared_rate + 1e-6);
}

TEST_F(EvaluateTest, EfficiencyAtMostOneUnderQuantizedEval) {
  const auto eval =
      evaluate(*model_, make_config(128, {1, 2, 2}), EvalMode::kQuantized);
  for (const BranchEval& be : eval.branches) {
    EXPECT_LE(be.efficiency, 1.0 + 1e-9);
  }
  EXPECT_LE(eval.efficiency, 1.0 + 1e-9);
}

TEST_F(EvaluateTest, MinFpsIsSlowestBranch) {
  const auto eval =
      evaluate(*model_, make_config(64, {1, 2, 2}), EvalMode::kAnalytical);
  double expected = 1e300;
  for (const BranchEval& be : eval.branches) {
    expected = std::min(expected, be.fps);
  }
  EXPECT_DOUBLE_EQ(eval.min_fps, expected);
}

TEST_F(EvaluateTest, WithinBudgetCheck) {
  const auto eval =
      evaluate(*model_, make_config(16, {1, 1, 1}), EvalMode::kAnalytical);
  EXPECT_TRUE(eval.within(eval.dsps, eval.brams, eval.bw_gbps + 1));
  EXPECT_FALSE(eval.within(eval.dsps - 1, eval.brams, eval.bw_gbps + 1));
  EXPECT_FALSE(eval.within(eval.dsps, eval.brams - 1, eval.bw_gbps + 1));
  EXPECT_FALSE(eval.within(eval.dsps, eval.brams, 0.0));
}

TEST_F(EvaluateTest, MoreLanesMoreFps) {
  const auto small =
      evaluate(*model_, make_config(16, {1, 1, 1}), EvalMode::kAnalytical);
  const auto big =
      evaluate(*model_, make_config(256, {1, 1, 1}), EvalMode::kAnalytical);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_GT(big.branches[b].fps, small.branches[b].fps);
  }
  EXPECT_GT(big.dsps, small.dsps);
}

TEST_F(EvaluateTest, ArityMismatchThrows) {
  AcceleratorConfig config = make_config(16, {1, 1, 1});
  config.branches.pop_back();
  EXPECT_THROW(evaluate(*model_, config, EvalMode::kAnalytical),
               InternalError);
}

TEST_F(EvaluateTest, OversizedUnitConfigThrows) {
  AcceleratorConfig config = make_config(16, {1, 1, 1});
  config.branches[0].units[0].cpf = 100000;
  EXPECT_THROW(evaluate(*model_, config, EvalMode::kAnalytical),
               InternalError);
}

}  // namespace
}  // namespace fcad::arch
