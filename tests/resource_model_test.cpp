#include <gtest/gtest.h>

#include "arch/resource_model.hpp"

namespace fcad::arch {
namespace {

const Datapath kPipelinedInt8{};  // the default datapath
const Datapath kPipelinedInt16{MacStyle::kPipelined, nn::DataType::kInt16,
                               nn::DataType::kInt16};

FusedStage make_stage(int in_ch, int out_ch, int h, int w, int kernel,
                      bool untied = true) {
  FusedStage st;
  st.kind = FusedStage::Kind::kConv;
  st.name = "stage";
  st.in_ch = in_ch;
  st.out_ch = out_ch;
  st.in_h = h;
  st.in_w = w;
  st.out_h = h;
  st.out_w = w;
  st.final_ch = out_ch;
  st.final_h = h;
  st.final_w = w;
  st.kernel = kernel;
  st.macs = static_cast<std::int64_t>(out_ch) * in_ch * h * w * kernel * kernel;
  st.ops = 2 * st.macs;
  st.weight_params = static_cast<std::int64_t>(out_ch) * in_ch * kernel * kernel;
  st.untied_bias = untied;
  st.has_bias = true;
  st.bias_params = untied ? static_cast<std::int64_t>(h) * w : out_ch;
  return st;
}

TEST(ResourceModelTest, DspPackingByOperandWidth) {
  const FusedStage st = make_stage(32, 32, 64, 64, 3);
  const UnitConfig cfg{8, 8, 2};  // 128 lanes
  const auto r8 = unit_resources(st, cfg, kPipelinedInt8);
  const auto r16 = unit_resources(st, cfg, kPipelinedInt16);
  EXPECT_EQ(r8.dsps, 64);    // two 8-bit MACs per DSP
  EXPECT_EQ(r16.dsps, 128);  // one 16-bit MAC per DSP
}

TEST(ResourceModelTest, BramsGrowWithParallelism) {
  const FusedStage st = make_stage(64, 64, 128, 128, 4);
  int prev = 0;
  for (int f : {1, 4, 16}) {
    const auto r = unit_resources(st, UnitConfig{f, f, 2}, kPipelinedInt8);
    EXPECT_GE(r.brams, prev);
    prev = r.brams;
  }
}

TEST(ResourceModelTest, SixteenBitDoublesBufferPressure) {
  const FusedStage st = make_stage(64, 64, 128, 128, 4);
  const UnitConfig cfg{8, 8, 1};
  const auto r8 = unit_resources(st, cfg, kPipelinedInt8);
  const auto r16 = unit_resources(st, cfg, kPipelinedInt16);
  EXPECT_GT(r16.brams, r8.brams);
}

TEST(ResourceModelTest, SmallKernelsResident) {
  const FusedStage st = make_stage(16, 16, 512, 512, 4);  // 4k weights
  EXPECT_TRUE(weights_resident(st, nn::DataType::kInt8));
  const auto r = unit_resources(st, UnitConfig{4, 4, 1}, kPipelinedInt8);
  EXPECT_EQ(r.param_stream_bytes,
            st.bias_params * 1);  // only the bias streams
}

TEST(ResourceModelTest, FatKernelsStream) {
  const FusedStage st = make_stage(256, 768, 16, 16, 4);  // 3.1M weights
  EXPECT_FALSE(weights_resident(st, nn::DataType::kInt8));
  const auto r = unit_resources(st, UnitConfig{4, 4, 1}, kPipelinedInt8);
  EXPECT_EQ(r.param_stream_bytes, st.weight_params + st.bias_params);
}

TEST(ResourceModelTest, ResidencyThresholdIsSixtyFourBlocks) {
  // 96 x 96 x 4 x 4 int8 weights fill exactly 64 BRAM18K blocks (64 x 18
  // Kbit): still resident. One more weight needs a 65th block and streams.
  FusedStage st = make_stage(96, 96, 32, 32, 4);
  ASSERT_EQ(st.weight_params * 8, 64 * 18 * 1024);
  EXPECT_TRUE(weights_resident(st, nn::DataType::kInt8));
  st.weight_params += 1;
  EXPECT_FALSE(weights_resident(st, nn::DataType::kInt8));
}

TEST(ResourceModelTest, UntiedBiasStreamsPerPixelBytes) {
  const FusedStage untied = make_stage(16, 16, 256, 256, 4, true);
  const FusedStage tied = make_stage(16, 16, 256, 256, 4, false);
  const UnitConfig cfg{4, 4, 1};
  const auto ru = unit_resources(untied, cfg, kPipelinedInt8);
  const auto rt = unit_resources(tied, cfg, kPipelinedInt8);
  EXPECT_EQ(ru.param_stream_bytes - rt.param_stream_bytes,
            256LL * 256 - 16);
}

TEST(ResourceModelTest, ExternalStreamsOnlyWhenFlagged) {
  const FusedStage st = make_stage(16, 16, 64, 64, 3);
  const UnitConfig cfg{4, 4, 1};
  const auto mid = unit_resources(st, cfg, kPipelinedInt8);
  UnitStreamContext head_ctx;
  head_ctx.reads_external_input = true;
  const auto head = unit_resources(st, cfg, kPipelinedInt8, head_ctx);
  UnitStreamContext tail_ctx;
  tail_ctx.writes_external_output = true;
  const auto tail = unit_resources(st, cfg, kPipelinedInt8, tail_ctx);
  EXPECT_EQ(mid.feature_stream_bytes, 0);
  EXPECT_EQ(head.feature_stream_bytes, 16LL * 64 * 64);
  EXPECT_EQ(tail.feature_stream_bytes, 16LL * 64 * 64);
}

TEST(ResourceModelTest, LineBufferScalesWithWidthAndChannels) {
  const FusedStage narrow = make_stage(16, 16, 64, 64, 4);
  const FusedStage wide = make_stage(16, 16, 64, 1024, 4);
  const FusedStage deep = make_stage(768, 16, 64, 64, 4);
  const UnitConfig cfg{1, 1, 1};
  const auto rn = unit_resources(narrow, cfg, kPipelinedInt8);
  const auto rw = unit_resources(wide, cfg, kPipelinedInt8);
  const auto rd = unit_resources(deep, cfg, kPipelinedInt8);
  EXPECT_GT(rw.brams, rn.brams);
  EXPECT_GT(rd.brams, rn.brams);
}

// Property sweep: DSPs are exactly ceil(lanes / packing) across configs.
class DspCountTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DspCountTest, MatchesClosedForm) {
  const auto [cpf, kpf, h] = GetParam();
  const FusedStage st = make_stage(64, 64, 128, 128, 3);
  const UnitConfig cfg{cpf, kpf, h};
  const auto r8 = unit_resources(st, cfg, kPipelinedInt8);
  const auto r16 = unit_resources(st, cfg, kPipelinedInt16);
  const std::int64_t lanes = cfg.lanes();
  EXPECT_EQ(r8.dsps, (lanes + 1) / 2);
  EXPECT_EQ(r16.dsps, lanes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DspCountTest,
    ::testing::Combine(::testing::Values(1, 3, 16), ::testing::Values(1, 8),
                       ::testing::Values(1, 2, 16)));

}  // namespace
}  // namespace fcad::arch
