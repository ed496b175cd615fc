// Cross-module property tests: invariants that must hold across the whole
// analytical stack, swept over parameter grids (TEST_P), plus a parser fuzz
// pass with the deterministic RNG.
#include <gtest/gtest.h>

#include <tuple>

#include "arch/evaluate.hpp"
#include "arch/platform.hpp"
#include "dse/in_branch.hpp"
#include "model_oracle.hpp"
#include "nn/serialize.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/rng.hpp"

namespace fcad {
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

// ---------------------------------------------------------------------------
// Invariant: for every stage and every divisor config, the elastic
// evaluator's stage latency equals Eq. 4 exactly (the analytical model is
// self-consistent from formula to full-accelerator evaluation).
class StageLatencyConsistency : public ::testing::TestWithParam<int> {};

TEST_P(StageLatencyConsistency, ElasticMatchesEq4) {
  const int lanes_target = GetParam();
  const auto& model = decoder_model();
  arch::AcceleratorConfig config;
  for (const arch::BranchPipeline& br : model.branches) {
    arch::BranchHardwareConfig hw;
    hw.batch = 1;
    for (int s : br.stages) {
      hw.units.push_back(arch::get_pf(lanes_target, model.stage(s)));
    }
    config.branches.push_back(std::move(hw));
  }
  const arch::AcceleratorEval eval =
      arch::evaluate(model, config, arch::EvalMode::kAnalytical);
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    const arch::BranchPipeline& br = model.branches[b];
    for (std::size_t i = 0; i < br.stages.size(); ++i) {
      const arch::FusedStage& st = model.stage(br.stages[i]);
      if (st.kind != arch::FusedStage::Kind::kConv) continue;
      const arch::UnitConfig& cfg = config.branches[b].units[i];
      const double eq4 =
          oracle::eq4_cycles(st.out_ch, st.in_ch, st.out_h, st.out_w,
                             st.kernel, cfg.cpf, cfg.kpf, cfg.h);
      EXPECT_DOUBLE_EQ(eval.branches[b].stages[i].cycles, eq4)
          << st.name << " at " << cfg.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LaneSweep, StageLatencyConsistency,
                         ::testing::Values(1, 8, 32, 128, 512, 2048));

// ---------------------------------------------------------------------------
// Invariant: growing any single resource in the in-branch slice never makes
// the result slower or infeasible-from-feasible (monotonicity of Alg. 2).
class InBranchMonotonicity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(InBranchMonotonicity, MoreComputeNeverSlower) {
  const auto [branch, base_dsps] = GetParam();
  const dse::ResourceBudget small{static_cast<double>(base_dsps), 800, 6.0};
  dse::ResourceBudget big = small;
  big.c *= 2;
  const auto rs = dse::in_branch_optimize(decoder_model(), branch, small, 1,
                                          kPipelinedInt8, 200.0);
  const auto rb = dse::in_branch_optimize(decoder_model(), branch, big, 1,
                                          kPipelinedInt8, 200.0);
  EXPECT_LE(rb.bottleneck_cycles, rs.bottleneck_cycles * 1.0001);
  if (rs.met_batch_target) {
    EXPECT_TRUE(rb.met_batch_target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InBranchMonotonicity,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(64, 256, 1024)));

// ---------------------------------------------------------------------------
// Invariant: Eq. 3 efficiency of any quantized evaluation stays in (0, 1]
// and equals gops / peak exactly.
class EfficiencyBound
    : public ::testing::TestWithParam<std::tuple<int, nn::DataType>> {};

TEST_P(EfficiencyBound, WithinUnitInterval) {
  const auto [lanes, dtype] = GetParam();
  const auto& model = decoder_model();
  arch::AcceleratorConfig config;
  config.datapath = {arch::MacStyle::kPipelined, dtype, dtype};
  for (const arch::BranchPipeline& br : model.branches) {
    arch::BranchHardwareConfig hw;
    hw.batch = 1;
    for (int s : br.stages) {
      hw.units.push_back(arch::get_pf(lanes, model.stage(s)));
    }
    config.branches.push_back(std::move(hw));
  }
  const auto eval = arch::evaluate(model, config, arch::EvalMode::kQuantized);
  const int beta = config.datapath.beta_ops_per_dsp();
  for (const arch::BranchEval& be : eval.branches) {
    EXPECT_GT(be.efficiency, 0.0);
    EXPECT_LE(be.efficiency, 1.0 + 1e-9);
    EXPECT_NEAR(be.efficiency,
                oracle::eq3_efficiency(be.gops, beta, be.dsps, 200.0), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EfficiencyBound,
    ::testing::Combine(::testing::Values(4, 64, 1024),
                       ::testing::Values(nn::DataType::kInt8,
                                         nn::DataType::kInt16)));

// ---------------------------------------------------------------------------
// Fuzz: the graph text parser must never crash — any mutation of a valid
// serialization yields either a valid graph or a clean Status error.
TEST(SerializeFuzzTest, MutatedTextNeverCrashes) {
  const std::string base = nn::to_text(nn::zoo::avatar_decoder());
  Rng rng(0xF00D);
  int parsed_ok = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = base;
    const int mutations = static_cast<int>(rng.next_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const auto pos =
          static_cast<std::size_t>(rng.next_int(0, static_cast<std::int64_t>(
                                                       text.size() - 1)));
      switch (rng.next_int(0, 2)) {
        case 0:  // replace with random printable char
          text[pos] = static_cast<char>(rng.next_int(32, 126));
          break;
        case 1:  // delete
          text.erase(pos, 1);
          break;
        default:  // duplicate
          text.insert(pos, 1, text[pos]);
          break;
      }
    }
    const auto result = nn::from_text(text);  // must not throw/crash
    parsed_ok += result.is_ok();
  }
  // Most mutations break something; a few survive (e.g. touching names).
  EXPECT_LT(parsed_ok, 200);
}

// Fuzz: random well-formed-ish token soup.
TEST(SerializeFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(0xBEEF);
  const char* tokens[] = {"graph",  "input", "conv2d", "in=0", "in=1,2",
                          "8",      "-3",    "x",      "#",    "output",
                          "concat", "dense", "1",      "16",   "relu"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int lines = static_cast<int>(rng.next_int(1, 6));
    for (int l = 0; l < lines; ++l) {
      const int words = static_cast<int>(rng.next_int(1, 7));
      for (int w = 0; w < words; ++w) {
        text += tokens[rng.next_int(0, 14)];
        text += ' ';
      }
      text += '\n';
    }
    (void)nn::from_text(text);  // only checking for crashes/exceptions
  }
}

}  // namespace
}  // namespace fcad
