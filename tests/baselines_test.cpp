#include <gtest/gtest.h>

#include <algorithm>

#include "arch/platform.hpp"
#include "baselines/dnnbuilder.hpp"
#include "baselines/hybriddnn.hpp"
#include "baselines/soc865.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/hash.hpp"

namespace fcad::baselines {
namespace {

const arch::ReorganizedModel& mimic_model() {
  static const arch::ReorganizedModel model = [] {
    auto m = arch::reorganize(nn::zoo::mimic_decoder());
    FCAD_CHECK(m.is_ok());
    return std::move(m).value();
  }();
  return model;
}

// ------------------------------------------------------------ DNNBuilder --
TEST(DnnBuilderTest, RespectsBudgets) {
  for (const arch::Platform& p : arch::all_platforms()) {
    const DnnBuilderResult r =
        run_dnnbuilder(mimic_model(), p, nn::DataType::kInt8);
    EXPECT_LE(r.dsps, p.dsps) << p.name;
    EXPECT_LE(r.brams, p.brams18k) << p.name;
    EXPECT_GT(r.fps, 0) << p.name;
  }
}

TEST(DnnBuilderTest, FpsPlateausAcrossSchemes) {
  // The Sec. III headline: more FPGA does not help DNNBuilder because the
  // capped layers pin the bottleneck.
  const auto s1 =
      run_dnnbuilder(mimic_model(), arch::platform_z7045(), nn::DataType::kInt8);
  const auto s3 =
      run_dnnbuilder(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt8);
  EXPECT_NEAR(s3.fps, s1.fps, 0.05 * s1.fps);
}

TEST(DnnBuilderTest, EfficiencyCollapsesWithBudget) {
  const auto s1 =
      run_dnnbuilder(mimic_model(), arch::platform_z7045(), nn::DataType::kInt8);
  const auto s3 =
      run_dnnbuilder(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt8);
  EXPECT_GT(s3.dsps, s1.dsps);          // it keeps allocating...
  EXPECT_LT(s3.efficiency, s1.efficiency);  // ...to no effect
}

TEST(DnnBuilderTest, BottleneckLayersAreCapped) {
  const auto r =
      run_dnnbuilder(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt8);
  // The slowest layer must be at its 2-level parallelism cap — otherwise the
  // allocator would have grown it.
  double max_cycles = 0;
  const DnnBuilderLayer* slowest = nullptr;
  for (const DnnBuilderLayer& layer : r.layers) {
    if (layer.cycles > max_cycles) {
      max_cycles = layer.cycles;
      slowest = &layer;
    }
  }
  ASSERT_NE(slowest, nullptr);
  EXPECT_TRUE(slowest->capped);
  EXPECT_EQ(slowest->cfg.h, 1);  // two-level parallelism only
}

TEST(DnnBuilderTest, CappedLayerLatencyFlatAcrossSchemes) {
  const auto s1 =
      run_dnnbuilder(mimic_model(), arch::platform_z7045(), nn::DataType::kInt8);
  const auto s3 =
      run_dnnbuilder(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt8);
  for (std::size_t i = 0; i < s1.layers.size(); ++i) {
    if (s1.layers[i].capped) {
      EXPECT_DOUBLE_EQ(s1.layers[i].cycles, s3.layers[i].cycles)
          << "capped layer " << i << " must not speed up";
    }
  }
}

TEST(DnnBuilderTest, EightBitPacksTwoPerDsp) {
  const auto r8 =
      run_dnnbuilder(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt8);
  const auto r16 = run_dnnbuilder(mimic_model(), arch::platform_zu9cg(),
                                  nn::DataType::kInt16);
  // Same lane allocation costs twice the DSPs at 16-bit (roughly; rounding).
  EXPECT_GT(r8.fps, r16.fps * 0.9);
}

// ------------------------------------------------------------- HybridDNN --
TEST(HybridDnnTest, MatchesPinnedGoldenOnTheThreeSchemes) {
  // Every field of the int16 engine on Table II's three schemes, folded bit
  // for bit: the calibration constants must not drift.
  util::Hash128 digest;
  for (const arch::Platform& p : {arch::platform_z7045(),
                                  arch::platform_zu17eg(),
                                  arch::platform_zu9cg()}) {
    const HybridDnnResult r =
        run_hybriddnn(mimic_model(), p, nn::DataType::kInt16);
    digest.absorb(static_cast<std::uint64_t>(r.lanes));
    digest.absorb(static_cast<std::uint64_t>(r.dsps));
    digest.absorb(static_cast<std::uint64_t>(r.brams));
    digest.absorb_double(r.fps);
    digest.absorb_double(r.gops);
    digest.absorb_double(r.efficiency);
    digest.absorb(static_cast<std::uint64_t>(r.bram_blocked_scaling));
    digest.absorb(r.layers.size());
    for (const HybridDnnLayerExec& e : r.layers) {
      digest.absorb(static_cast<std::uint64_t>(e.stage));
      digest.absorb(static_cast<std::uint64_t>(e.cpf));
      digest.absorb(static_cast<std::uint64_t>(e.kpf));
      digest.absorb(static_cast<std::uint64_t>(e.spf));
      digest.absorb_double(e.compute_cycles);
      digest.absorb_double(e.ddr_cycles);
      digest.absorb_double(e.cycles);
      digest.absorb(static_cast<std::uint64_t>(e.memory_bound));
      digest.absorb_double(e.utilization);
    }
  }
  EXPECT_EQ(digest.hex(), "52e00ff444cc76df3887d9977c037b2e");
}

TEST(HybridDnnTest, EngineIsPowerOfTwo) {
  for (const arch::Platform& p : arch::all_platforms()) {
    const HybridDnnResult r =
        run_hybriddnn(mimic_model(), p, nn::DataType::kInt16);
    ASSERT_GT(r.lanes, 0) << p.name;
    EXPECT_EQ(r.lanes & (r.lanes - 1), 0) << p.name;
    EXPECT_LE(r.dsps, p.dsps);
    EXPECT_LE(r.brams, p.brams18k);
  }
}

TEST(HybridDnnTest, PaperEnginePoints) {
  // Scheme 1 (Z7045): 512-lane engine; schemes 2-3 (ZU17EG/ZU9CG): 1024.
  EXPECT_EQ(run_hybriddnn(mimic_model(), arch::platform_z7045(),
                          nn::DataType::kInt16)
                .lanes,
            512);
  EXPECT_EQ(run_hybriddnn(mimic_model(), arch::platform_zu17eg(),
                          nn::DataType::kInt16)
                .lanes,
            1024);
  EXPECT_EQ(run_hybriddnn(mimic_model(), arch::platform_zu9cg(),
                          nn::DataType::kInt16)
                .lanes,
            1024);
}

TEST(HybridDnnTest, BramBlocksScalingOnZu9cg) {
  // ZU9CG has DSPs for a 2048-lane engine but not the BRAM — the paper's
  // Scheme 3 observation.
  const HybridDnnResult r =
      run_hybriddnn(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt16);
  EXPECT_TRUE(r.bram_blocked_scaling);
  const HybridDnnResult r17 = run_hybriddnn(
      mimic_model(), arch::platform_zu17eg(), nn::DataType::kInt16);
  EXPECT_FALSE(r17.bram_blocked_scaling);  // ZU17EG lacks the DSPs anyway
}

TEST(HybridDnnTest, DoubleEngineRoughlyDoublesFps) {
  const auto s1 =
      run_hybriddnn(mimic_model(), arch::platform_z7045(), nn::DataType::kInt16);
  const auto s2 = run_hybriddnn(mimic_model(), arch::platform_zu17eg(),
                                nn::DataType::kInt16);
  EXPECT_GT(s2.fps, 1.6 * s1.fps);
  EXPECT_LT(s2.fps, 2.4 * s1.fps);
}

TEST(HybridDnnTest, EfficiencyInPaperBand) {
  const auto r =
      run_hybriddnn(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt16);
  EXPECT_GT(r.efficiency, 0.6);
  EXPECT_LT(r.efficiency, 0.9);
}

TEST(HybridDnnTest, LayerExecsCoverAllStagesWithValidSplits) {
  const auto r =
      run_hybriddnn(mimic_model(), arch::platform_zu9cg(), nn::DataType::kInt16);
  EXPECT_EQ(r.layers.size(), mimic_model().fused.stages.size());
  for (const HybridDnnLayerExec& e : r.layers) {
    EXPECT_EQ(e.cpf * e.kpf * e.spf, r.lanes);
    EXPECT_GT(e.cycles, 0);
    EXPECT_LE(e.utilization, 1.0);
  }
}

// --------------------------------------------------------------- 865 SoC --
TEST(Soc865Test, LandsNearPaperNumbers) {
  const Soc865Result r = run_soc865(mimic_model());
  // Paper: 35.8 FPS / 16.9% on a 13.1-GOP mimic; ours is a ~17.5-GOP decoder
  // so proportionally slower. Check the band, not the point.
  EXPECT_GT(r.fps, 15.0);
  EXPECT_LT(r.fps, 60.0);
  EXPECT_GT(r.efficiency, 0.08);
  EXPECT_LT(r.efficiency, 0.30);
}

TEST(Soc865Test, HdLayersAreMemoryBound) {
  const Soc865Result r = run_soc865(mimic_model());
  int memory_bound = 0;
  for (const SocLayerTime& lt : r.layers) {
    memory_bound += lt.memory_bound;
  }
  EXPECT_GT(memory_bound, 0);  // the cache-capacity mechanism is active
}

TEST(Soc865Test, BiggerCacheHelps) {
  const double fps_small = run_soc865(mimic_model(), 1.0).fps;
  const double fps_big = run_soc865(mimic_model(), 64.0).fps;  // all fits
  EXPECT_GT(fps_big, fps_small);
}

TEST(Soc865Test, OverfetchIsCapped) {
  // A 64 KiB cache overflows the HD layers many times over; the re-fetch
  // multiplier still stops at its 8x cap.
  const Soc865Result r = run_soc865(mimic_model(), 1.0 / 16);
  double worst = 0;
  for (const SocLayerTime& lt : r.layers) {
    EXPECT_LE(lt.overfetch, 8.0);
    EXPECT_GE(lt.overfetch, 1.0);
    worst = std::max(worst, lt.overfetch);
  }
  EXPECT_EQ(worst, 8.0);
}

}  // namespace
}  // namespace fcad::baselines
