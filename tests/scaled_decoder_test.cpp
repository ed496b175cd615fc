#include <gtest/gtest.h>

#include "analysis/profile.hpp"
#include "arch/reorg.hpp"
#include "dse/design_space.hpp"
#include "nn/zoo/scaled_decoder.hpp"

namespace fcad::nn::zoo {
namespace {

TEST(ScaledDecoderTest, BranchCountHonored) {
  for (int branches : {1, 2, 3, 5, 6}) {
    ScaledDecoderSpec spec;
    spec.branches = branches;
    const Graph g = scaled_decoder(spec);
    EXPECT_EQ(g.output_ids().size(), static_cast<std::size_t>(branches));
    auto model = arch::reorganize(g);
    ASSERT_TRUE(model.is_ok()) << model.status().to_string();
    EXPECT_EQ(model->num_branches(), branches);
  }
}

TEST(ScaledDecoderTest, WidthScalesDemand) {
  ScaledDecoderSpec narrow;
  narrow.width = 0.5;
  ScaledDecoderSpec wide;
  wide.width = 2.0;
  const auto pn = analysis::profile_graph(scaled_decoder(narrow));
  const auto pw = analysis::profile_graph(scaled_decoder(wide));
  // MACs scale roughly quadratically with width; at least 4x here.
  EXPECT_GT(pw.total_macs, 4 * pn.total_macs);
}

TEST(ScaledDecoderTest, SingleBranchHasNoSharing) {
  ScaledDecoderSpec spec;
  spec.branches = 1;
  auto model = arch::reorganize(scaled_decoder(spec));
  ASSERT_TRUE(model.is_ok());
  EXPECT_TRUE(model->shared_stages.empty());
}

TEST(ScaledDecoderTest, MultiBranchSharesFrontEnd) {
  ScaledDecoderSpec spec;
  spec.branches = 4;
  auto model = arch::reorganize(scaled_decoder(spec));
  ASSERT_TRUE(model.is_ok());
  EXPECT_EQ(model->shared_stages.size(), 2u);  // sh_l1, sh_l2
}

TEST(ScaledDecoderTest, DesignSpaceGrowsWithBranches) {
  double prev = 0;
  for (int branches : {1, 3, 6}) {
    ScaledDecoderSpec spec;
    spec.branches = branches;
    auto model = arch::reorganize(scaled_decoder(spec));
    ASSERT_TRUE(model.is_ok());
    const dse::DesignSpaceStats stats = dse::design_space_stats(*model);
    EXPECT_GT(stats.log10_configs, prev);
    prev = stats.log10_configs;
  }
}

TEST(ScaledDecoderTest, UntiedBiasToggle) {
  ScaledDecoderSpec untied;
  ScaledDecoderSpec tied;
  tied.untied_bias = false;
  const auto pu = analysis::profile_graph(scaled_decoder(untied));
  const auto pt = analysis::profile_graph(scaled_decoder(tied));
  EXPECT_GT(pu.total_params, pt.total_params);
}

TEST(ScaledDecoderTest, BadSpecsRejected) {
  ScaledDecoderSpec zero;
  zero.branches = 0;
  EXPECT_THROW(scaled_decoder(zero), InternalError);
  ScaledDecoderSpec tiny;
  tiny.width = 0.01;
  EXPECT_THROW(scaled_decoder(tiny), InternalError);
}

}  // namespace
}  // namespace fcad::nn::zoo
