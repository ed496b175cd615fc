#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arch/platform.hpp"
#include "dse/cross_branch.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "nn/zoo/classic_nets.hpp"
#include "sim/ddr.hpp"
#include "sim/simulator.hpp"
#include "sim/stage.hpp"
#include "util/hash.hpp"

namespace fcad::sim {
namespace {

const arch::ReorganizedModel& decoder_model() {
  static const arch::ReorganizedModel model = [] {
    auto m = arch::reorganize(nn::zoo::avatar_decoder());
    FCAD_CHECK(m.is_ok());
    return std::move(m).value();
  }();
  return model;
}

arch::AcceleratorConfig searched_config(const arch::ReorganizedModel& model,
                                        const arch::Platform& platform,
                                        std::vector<int> batches) {
  dse::Customization cust;
  cust.datapath = "pipelined-int8";
  cust.batch_sizes = std::move(batches);
  FCAD_CHECK(cust.normalize(model.num_branches()).is_ok());
  dse::CrossBranchOptions opt;
  opt.population = 30;
  opt.iterations = 5;
  opt.seed = 7;
  opt.freq_mhz = platform.freq_mhz;
  return dse::cross_branch_search(
             model, dse::ResourceBudget::from_platform(platform), cust, opt)
      .config;
}

// ------------------------------------------------------------------- DDR --
TEST(DdrTest, CyclesCeil) {
  DdrModel ddr(64.0);
  EXPECT_EQ(ddr.cycles(0), 0);
  EXPECT_EQ(ddr.cycles(1), 1);
  EXPECT_EQ(ddr.cycles(64), 1);
  EXPECT_EQ(ddr.cycles(65), 2);
}

TEST(DdrTest, CongestionScalesServiceTime) {
  DdrModel fast(64.0, 1.0);
  DdrModel slow(64.0, 2.0);
  EXPECT_EQ(slow.cycles(640), 2 * fast.cycles(640));
}

TEST(DdrTest, CongestionFactorFloorsAtOne) {
  EXPECT_DOUBLE_EQ(DdrModel::congestion_for(1.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(DdrModel::congestion_for(200.0, 100.0), 2.0);
}

TEST(DdrTest, InvalidParamsThrow) {
  EXPECT_THROW(DdrModel(0.0), InternalError);
  EXPECT_THROW(DdrModel(1.0, 0.5), InternalError);
}

// ----------------------------------------------------------- stage model --
TEST(StageSimTest, RowMappingUpsample) {
  StageSimModel m;
  m.conv_rows = 8;
  m.post = StageSimModel::PostMap::kUpsample;
  EXPECT_EQ(m.conv_row_for_final(0), 0);
  EXPECT_EQ(m.conv_row_for_final(1), 0);
  EXPECT_EQ(m.conv_row_for_final(15), 7);
}

TEST(StageSimTest, RowMappingPool) {
  StageSimModel m;
  m.conv_rows = 8;
  m.post = StageSimModel::PostMap::kPool;
  m.pool_stride = 2;
  m.pool_kernel = 2;
  EXPECT_EQ(m.conv_row_for_final(0), 1);  // pool row 0 needs conv rows 0-1
  EXPECT_EQ(m.conv_row_for_final(3), 7);
}

TEST(StageSimTest, NeededInputRowIncludesHalo) {
  StageSimModel m;
  m.kernel = 4;
  m.stride = 1;
  m.in_rows = 64;
  // pad_top = (4-1)/2 via (kernel - stride)/2 = 1: row r needs r+2.
  EXPECT_EQ(m.needed_input_row(0), 2);
  EXPECT_EQ(m.needed_input_row(10), 12);
  EXPECT_EQ(m.needed_input_row(63), 63);  // clamped at the bottom edge
}

TEST(StageSimTest, BuildFromDecoderStage) {
  const auto& model = decoder_model();
  const arch::BranchPipeline& br2 = model.branches[1];
  const int s = br2.stages[1];  // sh_l2 (fat weights -> streamed)
  const StageSimModel m =
      build_stage_sim(model, s, arch::UnitConfig{4, 4, 1},
                      nn::DataType::kInt8, nn::DataType::kInt8);
  EXPECT_GT(m.weight_fetch_bytes, 0);  // 3.1M-parameter kernel streams
  EXPECT_GT(m.bias_bytes_per_row, 0);  // untied bias streams per row
  EXPECT_EQ(m.post, StageSimModel::PostMap::kUpsample);
  EXPECT_EQ(m.producer, br2.stages[0]);
}

// --------------------------------------------------------------- simulate --
TEST(SimulatorTest, AgreesWithAnalyticalWithinFewPercent) {
  const auto& model = decoder_model();
  const arch::Platform zu9cg = arch::platform_zu9cg();
  const auto config = searched_config(model, zu9cg, {1, 2, 2});
  const auto analytical =
      arch::evaluate(model, config, arch::EvalMode::kAnalytical);
  const SimResult simulated = simulate(model, config, zu9cg);
  ASSERT_EQ(simulated.branches.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    const double est = analytical.branches[b].fps;
    const double real = simulated.branches[b].fps;
    ASSERT_GT(real, 0);
    // Real is slower, but within ~10% (paper's Fig. 6 band is ~3%; we leave
    // headroom for the variance across branches).
    EXPECT_LE(real, est * 1.001) << "branch " << b;
    EXPECT_GE(real, est * 0.90) << "branch " << b;
  }
}

TEST(SimulatorTest, FirstFrameLatencyExceedsSteadyPeriod) {
  const auto& model = decoder_model();
  const arch::Platform zu9cg = arch::platform_zu9cg();
  const auto config = searched_config(model, zu9cg, {1, 1, 1});
  const SimResult r = simulate(model, config, zu9cg);
  for (const BranchSimResult& bs : r.branches) {
    const double period_cycles =
        zu9cg.freq_mhz * 1e6 / bs.fps;  // batch 1
    // Pipeline fill: latency covers the whole chain, period only the
    // bottleneck stage.
    EXPECT_GT(bs.latency_cycles, period_cycles * 0.99);
  }
}

TEST(SimulatorTest, BatchScalesThroughput) {
  const auto& model = decoder_model();
  const arch::Platform zu9cg = arch::platform_zu9cg();
  auto config = searched_config(model, zu9cg, {1, 1, 1});
  const SimResult r1 = simulate(model, config, zu9cg);
  for (auto& br : config.branches) br.batch = 2;
  const SimResult r2 = simulate(model, config, zu9cg);
  for (std::size_t b = 0; b < r1.branches.size(); ++b) {
    EXPECT_NEAR(r2.branches[b].fps, 2 * r1.branches[b].fps,
                0.05 * r2.branches[b].fps);
  }
}

TEST(SimulatorTest, TinyBandwidthCongests) {
  const auto& model = decoder_model();
  arch::Platform starved = arch::platform_zu9cg();
  starved.bw_gbps = 0.05;  // 50 MB/s: the untied-bias streams saturate it
  const auto config = searched_config(model, arch::platform_zu9cg(), {1, 1, 1});
  const SimResult normal = simulate(model, config, arch::platform_zu9cg());
  const SimResult congested = simulate(model, config, starved);
  EXPECT_GT(congested.ddr_congestion, 1.0);
  EXPECT_LT(congested.min_fps, normal.min_fps);
}

TEST(SimulatorTest, StageStatsPopulated) {
  const auto& model = decoder_model();
  const arch::Platform zu9cg = arch::platform_zu9cg();
  const auto config = searched_config(model, zu9cg, {1, 1, 1});
  const SimResult r = simulate(model, config, zu9cg);
  EXPECT_EQ(r.stages.size(), model.fused.stages.size());
  std::int64_t total_busy = 0;
  for (const StageSimStats& ss : r.stages) {
    EXPECT_GE(ss.busy_cycles, 0);
    EXPECT_GE(ss.stall_cycles, 0);
    total_busy += ss.busy_cycles;
  }
  EXPECT_GT(total_busy, 0);
}

TEST(SimulatorTest, EfficiencyConsistentWithFps) {
  const auto& model = decoder_model();
  const arch::Platform zu9cg = arch::platform_zu9cg();
  const auto config = searched_config(model, zu9cg, {1, 2, 2});
  const SimResult r = simulate(model, config, zu9cg);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LE(r.efficiency, 1.0 + 1e-9);
}

TEST(SimulatorTest, SingleBranchBackbone) {
  auto model = arch::reorganize(nn::zoo::tiny_yolo());
  ASSERT_TRUE(model.is_ok());
  const arch::Platform ku115 = arch::platform_ku115();
  const auto config = searched_config(*model, ku115, {1});
  const SimResult r = simulate(*model, config, ku115);
  ASSERT_EQ(r.branches.size(), 1u);
  EXPECT_GT(r.branches[0].fps, 0);
}

TEST(SimulatorTest, TableOneWinnersMatchPinnedGolden) {
  // Every SimResult field of the five Table-I winners (P = 200, N = 20,
  // seed 1, batches {1,2,2}), folded bit for bit: the simulator's timing
  // constants must not drift.
  const std::vector<std::pair<arch::Platform, const char*>> cases = {
      {arch::platform_z7045(), "pipelined-int8"},
      {arch::platform_zu17eg(), "pipelined-int8"},
      {arch::platform_zu17eg(), "pipelined-int16"},
      {arch::platform_zu9cg(), "pipelined-int8"},
      {arch::platform_zu9cg(), "pipelined-int16"}};
  util::Hash128 digest;
  for (const auto& [platform, datapath] : cases) {
    dse::SearchSpec spec;
    spec.customization.datapath = datapath;
    spec.customization.batch_sizes = {1, 2, 2};
    spec.search.population = 200;
    spec.search.iterations = 20;
    spec.search.seed = 1;
    auto outcome = dse::SearchDriver(decoder_model(), platform).run(spec);
    ASSERT_TRUE(outcome.is_ok()) << platform.name << " " << datapath;
    const SimResult r =
        simulate(decoder_model(), outcome->search.config, platform);
    digest.absorb(r.branches.size());
    for (const BranchSimResult& b : r.branches) {
      digest.absorb_double(b.fps);
      digest.absorb_double(b.latency_cycles);
      digest.absorb_double(b.efficiency);
      digest.absorb_double(b.gops);
    }
    digest.absorb_double(r.min_fps);
    digest.absorb_double(r.efficiency);
    digest.absorb_double(r.ddr_demand_gbps);
    digest.absorb_double(r.ddr_congestion);
    digest.absorb(r.stages.size());
    for (const StageSimStats& s : r.stages) {
      digest.absorb(static_cast<std::uint64_t>(s.stage));
      digest.absorb(static_cast<std::uint64_t>(s.busy_cycles));
      digest.absorb(static_cast<std::uint64_t>(s.stall_cycles));
    }
  }
  EXPECT_EQ(digest.hex(), "7f6935f1990a5b1bce6a339e05cfcc7a");
}

}  // namespace
}  // namespace fcad::sim
