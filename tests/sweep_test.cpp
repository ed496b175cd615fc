#include <gtest/gtest.h>

#include <iterator>

#include "arch/platform.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"

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

SearchSpec fast_sweep() {
  SearchSpec spec;
  spec.kind = SearchKind::kSweep;
  spec.search.population = 20;
  spec.search.iterations = 4;
  spec.search.seed = 17;
  spec.customization.batch_sizes = {1, 1, 1};
  spec.customization.priorities = {1, 1, 1};
  return spec;
}

StatusOr<std::vector<SweepPoint>> sweep(const SearchSpec& spec) {
  auto outcome =
      SearchDriver(decoder_model(), arch::platform_zu9cg()).run(spec);
  if (!outcome.is_ok()) return outcome.status();
  return std::move(outcome->sweep);
}

TEST(SweepTest, GridCoverage) {
  auto points = sweep(fast_sweep());
  ASSERT_TRUE(points.is_ok()) << points.status().to_string();
  EXPECT_EQ(points->size(), 6u);  // 2 dtypes x 3 frequencies
  int feasible = 0;
  for (const SweepPoint& p : *points) feasible += p.result.feasible;
  EXPECT_EQ(feasible, 6);
}

TEST(SweepTest, FrequencyScalesThroughput) {
  SearchSpec spec = fast_sweep();
  spec.sweep.datapaths = {"pipelined-int8"};
  spec.sweep.frequencies_mhz = {100, 400};
  auto points = sweep(spec);
  ASSERT_TRUE(points.is_ok());
  ASSERT_EQ(points->size(), 2u);
  // Same budget, 4x clock: substantially more throughput (not necessarily
  // exactly 4x — the search is stochastic and BW constraints shift).
  EXPECT_GT((*points)[1].result.eval.min_fps,
            2.0 * (*points)[0].result.eval.min_fps);
}

TEST(SweepTest, EightBitDominatesSixteenBitAtSameClock) {
  auto points = sweep(fast_sweep());
  ASSERT_TRUE(points.is_ok());
  double fps8 = 0, fps16 = 0;
  for (const SweepPoint& p : *points) {
    if (p.freq_mhz != 200.0) continue;
    (p.datapath == "pipelined-int8" ? fps8 : fps16) =
        p.result.eval.min_fps;
  }
  EXPECT_GT(fps8, fps16);  // DSP packing doubles the lanes
}

TEST(SweepTest, ParetoFrontierNonEmptyAndConsistent) {
  auto points = sweep(fast_sweep());
  ASSERT_TRUE(points.is_ok());
  int frontier = 0;
  for (const SweepPoint& p : *points) frontier += p.pareto_optimal;
  EXPECT_GE(frontier, 1);
  // No frontier point may dominate another frontier point.
  for (const SweepPoint& a : *points) {
    if (!a.pareto_optimal) continue;
    for (const SweepPoint& b : *points) {
      if (&a == &b || !b.pareto_optimal) continue;
      const bool dominates = a.result.eval.min_fps > b.result.eval.min_fps &&
                             a.result.eval.dsps < b.result.eval.dsps;
      EXPECT_FALSE(dominates && b.pareto_optimal);
    }
  }
}

TEST(SweepTest, PipelinedGridMatchesPreDatapathGolden) {
  // Captured from the quantization-list sweep this grid replaced: the
  // default {int8, int16} list ran these exact searches, and its (min FPS,
  // DSPs) frontier marked only the fastest int8 point. The grid's DSP-cost
  // frontier rule must reproduce it (an accuracy-proxy frontier would also
  // mark int16 at 300 MHz).
  struct Golden {
    const char* datapath;
    double freq_mhz;
    double min_fps;
    double fitness;
    int dsps;
    int brams;
    bool pareto;
  };
  const Golden golden[] = {
      {"pipelined-int8", 150, 0x1.fca0555555555p+5, 0x1.9bdaf6db59162p+7,
       2142, 688, false},
      {"pipelined-int8", 200, 0x1.53158e38e38e4p+6, 0x1.23138c4580b3dp+8,
       2210, 705, false},
      {"pipelined-int8", 300, 0x1.fca0555555555p+6, 0x1.9a73a8615cd6ep+8,
       2142, 688, true},
      {"pipelined-int16", 150, 0x1.fca0555555555p+4, 0x1.e4851b6b6af68p+6,
       2314, 1028, false},
      {"pipelined-int16", 200, 0x1.7d784p+5, 0x1.3846fb6d64588p+7, 2242,
       1019, false},
      {"pipelined-int16", 300, 0x1.fca0555555555p+5, 0x1.9bdaf6db59162p+7,
       2238, 1016, false},
  };
  SearchSpec spec = fast_sweep();
  spec.sweep.datapaths = {"pipelined-int8", "pipelined-int16"};
  auto points = sweep(spec);
  ASSERT_TRUE(points.is_ok()) << points.status().to_string();
  ASSERT_EQ(points->size(), std::size(golden));
  for (std::size_t i = 0; i < points->size(); ++i) {
    const SweepPoint& p = (*points)[i];
    EXPECT_EQ(p.datapath, golden[i].datapath) << i;
    EXPECT_EQ(p.freq_mhz, golden[i].freq_mhz) << i;
    EXPECT_EQ(p.batch_scale, 1) << i;
    EXPECT_TRUE(p.result.feasible) << i;
    EXPECT_EQ(p.result.eval.min_fps, golden[i].min_fps) << i;
    EXPECT_EQ(p.result.fitness, golden[i].fitness) << i;
    EXPECT_EQ(p.result.eval.dsps, golden[i].dsps) << i;
    EXPECT_EQ(p.result.eval.brams, golden[i].brams) << i;
    EXPECT_EQ(p.pareto_optimal, golden[i].pareto) << i;
  }
  // The default grid is the same grid.
  auto defaults = sweep(fast_sweep());
  ASSERT_TRUE(defaults.is_ok());
  ASSERT_EQ(defaults->size(), points->size());
  for (std::size_t i = 0; i < points->size(); ++i) {
    EXPECT_EQ((*defaults)[i].datapath, (*points)[i].datapath);
    EXPECT_EQ((*defaults)[i].result.fitness, (*points)[i].result.fitness);
    EXPECT_EQ((*defaults)[i].pareto_optimal, (*points)[i].pareto_optimal);
  }
}

TEST(SweepTest, EmptyGridRejected) {
  SearchSpec spec = fast_sweep();
  spec.sweep.frequencies_mhz = {};
  auto points = sweep(spec);
  EXPECT_FALSE(points.is_ok());

  spec = fast_sweep();
  spec.sweep.datapaths = {};
  EXPECT_FALSE(sweep(spec).is_ok());
}

TEST(SweepTest, NegativeFrequencyRejected) {
  SearchSpec spec = fast_sweep();
  spec.sweep.frequencies_mhz = {-5};
  auto points = sweep(spec);
  EXPECT_FALSE(points.is_ok());
}

}  // namespace
}  // namespace fcad::dse
