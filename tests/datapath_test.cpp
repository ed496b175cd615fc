// arch::Datapath: grammar, registry, packing accessors, and — the load-
// bearing part — cross-validation of the analytic latency/resource models
// against small brute-force goldens: a cycle-exact tile enumeration for
// every registered datapath, and closed-form resource counts per packing
// rule. The default pipelined-int8 datapath must stay bit-identical to the
// pre-datapath 2-arg overloads. The oracles live in model_oracle.hpp.
#include <gtest/gtest.h>

#include "arch/datapath.hpp"
#include "arch/evaluate.hpp"
#include "arch/fusion.hpp"
#include "arch/platform.hpp"
#include "arch/resource_model.hpp"
#include "arch/unit.hpp"
#include "model_oracle.hpp"
#include "nn/zoo/avatar_decoder.hpp"

namespace fcad::arch {
namespace {

FusedStage make_stage(int in_ch, int out_ch, int h, int w, int kernel) {
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
  st.macs =
      static_cast<std::int64_t>(out_ch) * in_ch * h * w * kernel * kernel;
  st.ops = 2 * st.macs;
  st.weight_params =
      static_cast<std::int64_t>(out_ch) * in_ch * kernel * kernel;
  return st;
}

/// A pipelined MAC at uniform width `t` (DW = WW).
Datapath pipelined_at(nn::DataType t) { return {MacStyle::kPipelined, t, t}; }

// ------------------------------------------------------------- grammar --
TEST(DatapathGrammarTest, RegistryHasAllEightCanonicalNames) {
  const std::vector<std::string> names = registered_datapath_names();
  const std::vector<std::string> expected = {
      "pipelined-int16", "pipelined-int8", "pipelined-int8x4",
      "pipelined-int4",  "staged-int16",   "staged-int8",
      "staged-int8x4",   "staged-int4"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(registered_datapaths().size(), 8u);
}

TEST(DatapathGrammarTest, RoundTripsEveryRegisteredDatapath) {
  for (const Datapath& dp : registered_datapaths()) {
    auto parsed = datapath_from_string(datapath_to_string(dp));
    ASSERT_TRUE(parsed.is_ok()) << datapath_to_string(dp);
    EXPECT_EQ(*parsed, dp);
  }
}

TEST(DatapathGrammarTest, RejectsUnknownNamesWithGrammarHint) {
  for (const char* bad :
       {"", "int8", "pipelined", "pipelined-fp32", "systolic-int8",
        "pipelined-int4x8", "staged_int8"}) {
    auto parsed = datapath_from_string(bad);
    ASSERT_FALSE(parsed.is_ok()) << bad;
    EXPECT_NE(parsed.status().message().find("unknown datapath"),
              std::string::npos);
    EXPECT_NE(parsed.status().message().find("<pipelined|staged>"),
              std::string::npos);
  }
}

TEST(DatapathGrammarTest, DefaultIsPipelinedInt8) {
  EXPECT_EQ(Datapath{}, pipelined_at(nn::DataType::kInt8));
  EXPECT_EQ(datapath_to_string(Datapath{}), "pipelined-int8");
}

TEST(DatapathGrammarTest, DataTypeFromStringRoundTrips) {
  for (nn::DataType t :
       {nn::DataType::kInt4, nn::DataType::kInt8, nn::DataType::kInt16}) {
    auto parsed = nn::data_type_from_string(nn::to_string(t));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(nn::data_type_from_string("fp32").is_ok());
}

// ------------------------------------------------------------ accessors --
TEST(DatapathAccessorTest, DspPackingPerWeightWidth) {
  const auto dp = [](const char* name) {
    auto parsed = datapath_from_string(name);
    FCAD_CHECK(parsed.is_ok());
    return *parsed;
  };
  EXPECT_EQ(dp("pipelined-int8").multipliers_per_dsp(), 2);
  EXPECT_EQ(dp("pipelined-int16").multipliers_per_dsp(), 1);
  EXPECT_EQ(dp("pipelined-int4").multipliers_per_dsp(), 0);
  EXPECT_EQ(dp("pipelined-int8x4").multipliers_per_dsp(), 0);

  EXPECT_EQ(dp("pipelined-int8").beta_ops_per_dsp(), 4);
  EXPECT_EQ(dp("pipelined-int16").beta_ops_per_dsp(), 2);

  EXPECT_FALSE(dp("pipelined-int8").lut_multipliers());
  EXPECT_FALSE(dp("staged-int16").lut_multipliers());
  EXPECT_TRUE(dp("pipelined-int4").lut_multipliers());
  EXPECT_TRUE(dp("staged-int8x4").lut_multipliers());
  EXPECT_GT(dp("pipelined-int4").luts_per_multiplier(), 0);
  EXPECT_EQ(dp("pipelined-int8").luts_per_multiplier(), 0);
}

TEST(DatapathAccessorTest, FillCyclesOnlyForStagedMacs) {
  for (const Datapath& dp : registered_datapaths()) {
    if (dp.mac == MacStyle::kPipelined) {
      EXPECT_EQ(dp.fill_cycles(), 0.0) << datapath_to_string(dp);
    } else {
      EXPECT_GT(dp.fill_cycles(), 0.0) << datapath_to_string(dp);
      // Integral so the quantized and analytical fill terms agree exactly
      // at divisor configurations.
      EXPECT_EQ(dp.fill_cycles(),
                static_cast<double>(static_cast<std::int64_t>(
                    dp.fill_cycles())));
    }
  }
  // Wider weights mean a deeper chain.
  const Datapath s4{MacStyle::kStaged, nn::DataType::kInt4,
                    nn::DataType::kInt4};
  const Datapath s8{MacStyle::kStaged, nn::DataType::kInt8,
                    nn::DataType::kInt8};
  const Datapath s16{MacStyle::kStaged, nn::DataType::kInt16,
                     nn::DataType::kInt16};
  EXPECT_LT(s4.fill_cycles(), s8.fill_cycles());
  EXPECT_LT(s8.fill_cycles(), s16.fill_cycles());
}

TEST(DatapathAccessorTest, AccuracyProxyOrdersByPrecision) {
  const Datapath p16 = pipelined_at(nn::DataType::kInt16);
  const Datapath p8 = pipelined_at(nn::DataType::kInt8);
  const Datapath p8x4{MacStyle::kPipelined, nn::DataType::kInt8,
                      nn::DataType::kInt4};
  const Datapath p4 = pipelined_at(nn::DataType::kInt4);
  EXPECT_EQ(p16.accuracy_proxy(), 0.0);
  EXPECT_LT(p16.accuracy_proxy(), p8.accuracy_proxy());
  EXPECT_LT(p8.accuracy_proxy(), p8x4.accuracy_proxy());
  EXPECT_LT(p8x4.accuracy_proxy(), p4.accuracy_proxy());
  // The MAC microarchitecture does not change the numerics of the result.
  for (const Datapath& dp : registered_datapaths()) {
    const Datapath flipped{dp.mac == MacStyle::kPipelined
                               ? MacStyle::kStaged
                               : MacStyle::kPipelined,
                           dp.dw, dp.ww};
    EXPECT_EQ(dp.accuracy_proxy(), flipped.accuracy_proxy());
  }
}

// -------------------------------------------------- latency vs brute force --
TEST(DatapathLatencyTest, QuantizedMatchesBruteForceEnumeration) {
  // Awkward (non-divisor-friendly) and round stages, all registered
  // datapaths, every feasible (cpf, kpf, h): the closed-form quantized
  // latency must equal the cycle-exact tile walk.
  for (const FusedStage& st :
       {make_stage(7, 3, 5, 4, 3), make_stage(8, 4, 6, 6, 2),
        make_stage(5, 5, 7, 3, 1)}) {
    for (const Datapath& dp : registered_datapaths()) {
      for (int cpf = 1; cpf <= st.in_ch; ++cpf) {
        for (int kpf = 1; kpf <= st.out_ch; ++kpf) {
          for (int h = 1; h <= st.out_h; ++h) {
            const UnitConfig cfg{cpf, kpf, h};
            EXPECT_EQ(cycles_quantized(st, cfg, dp),
                      oracle::brute_force_cycles(st, cfg, dp))
                << datapath_to_string(dp) << " " << cfg.to_string();
          }
        }
      }
    }
  }
}

TEST(DatapathLatencyTest, AnalyticalMatchesQuantizedOnDivisors) {
  const FusedStage st = make_stage(12, 6, 8, 8, 3);
  for (const Datapath& dp : registered_datapaths()) {
    for (const UnitConfig cfg :
         {UnitConfig{1, 1, 1}, UnitConfig{3, 2, 4}, UnitConfig{12, 6, 8}}) {
      EXPECT_DOUBLE_EQ(cycles_analytical(st, cfg, dp),
                       static_cast<double>(cycles_quantized(st, cfg, dp)))
          << datapath_to_string(dp) << " " << cfg.to_string();
    }
  }
}

TEST(DatapathLatencyTest, PipelinedIsBitIdenticalToLegacyOverloads) {
  const FusedStage st = make_stage(24, 36, 60, 60, 3);
  for (nn::DataType q :
       {nn::DataType::kInt4, nn::DataType::kInt8, nn::DataType::kInt16}) {
    const Datapath dp = pipelined_at(q);
    for (std::int64_t target : {1, 5, 17, 100, 999}) {
      const UnitConfig cfg = get_pf(target, st);
      EXPECT_EQ(cycles_quantized(st, cfg, dp), cycles_quantized(st, cfg));
      EXPECT_EQ(cycles_analytical(st, cfg, dp), cycles_analytical(st, cfg));
    }
  }
}

TEST(DatapathLatencyTest, StagedIsStrictlySlowerAndFillMatchesEq4Overload) {
  const FusedStage st = make_stage(16, 8, 32, 32, 3);
  const UnitConfig cfg{4, 2, 4};
  for (const Datapath& dp : registered_datapaths()) {
    if (dp.mac != MacStyle::kStaged) continue;
    const Datapath pipelined{MacStyle::kPipelined, dp.dw, dp.ww};
    EXPECT_GT(cycles_quantized(st, cfg, dp),
              cycles_quantized(st, cfg, pipelined));
    // The independent Eq.-4 oracle and the arch model agree on the fill.
    EXPECT_DOUBLE_EQ(cycles_analytical(st, cfg, dp),
                     oracle::eq4_cycles(st.out_ch, st.in_ch, st.in_h, st.in_w,
                                        st.kernel, cfg.cpf, cfg.kpf, cfg.h,
                                        dp.fill_cycles()));
  }
}

// ----------------------------------------------- resources vs closed form --
TEST(DatapathResourceTest, ComputePackingClosedForms) {
  const FusedStage st = make_stage(16, 8, 32, 32, 3);
  const UnitConfig cfg{8, 4, 2};  // 64 lanes
  const auto at = [&](const char* name) {
    auto dp = datapath_from_string(name);
    FCAD_CHECK(dp.is_ok());
    return unit_resources(st, cfg, *dp);
  };
  // int8: 2 multipliers per DSP48 -> ceil(64/2).
  EXPECT_EQ(at("pipelined-int8").dsps, 32);
  EXPECT_EQ(at("pipelined-int8").luts, 0);
  // int16: 1 multiplier per DSP48.
  EXPECT_EQ(at("pipelined-int16").dsps, 64);
  // 4-bit weights: LUT-fabric multipliers, zero DSPs.
  const Datapath int4 = pipelined_at(nn::DataType::kInt4);
  EXPECT_EQ(at("pipelined-int4").dsps, 0);
  EXPECT_EQ(at("pipelined-int4").luts,
            static_cast<int>(cfg.lanes()) * int4.luts_per_multiplier());
  EXPECT_EQ(at("pipelined-int8x4").dsps, 0);
  EXPECT_GT(at("pipelined-int8x4").luts, 0);
  // The MAC style changes timing, never area.
  for (const Datapath& dp : registered_datapaths()) {
    const Datapath flipped{dp.mac == MacStyle::kPipelined
                               ? MacStyle::kStaged
                               : MacStyle::kPipelined,
                           dp.dw, dp.ww};
    const UnitResources a = unit_resources(st, cfg, dp);
    const UnitResources b = unit_resources(st, cfg, flipped);
    EXPECT_EQ(a.dsps, b.dsps);
    EXPECT_EQ(a.luts, b.luts);
    EXPECT_EQ(a.brams, b.brams);
    EXPECT_EQ(a.total_stream_bytes(), b.total_stream_bytes());
  }
}

TEST(DatapathResourceTest, BitPackedStreamBytes) {
  const FusedStage st = make_stage(16, 8, 32, 32, 3);
  const UnitConfig cfg{1, 1, 1};
  UnitStreamContext ctx;
  ctx.reads_external_input = true;
  const auto features = [&](nn::DataType dw) {
    return unit_resources(st, cfg, Datapath{MacStyle::kPipelined, dw, dw},
                          ctx)
        .feature_stream_bytes;
  };
  const std::int64_t elements =
      static_cast<std::int64_t>(st.in_ch) * st.in_h * st.in_w;
  // Bit-packing: int8 = 1 byte/element (the legacy count), int16 doubles
  // it, int4 halves it.
  EXPECT_EQ(features(nn::DataType::kInt8), elements);
  EXPECT_EQ(features(nn::DataType::kInt16), 2 * elements);
  EXPECT_EQ(features(nn::DataType::kInt4), (elements * 4 + 7) / 8);
}

// ----------------------------------------------------- whole-accelerator --
TEST(DatapathEvalTest, EvaluateSurfacesDatapathCosts) {
  auto model = reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());
  AcceleratorConfig config;
  for (const BranchPipeline& br : model->branches) {
    BranchHardwareConfig hw;
    hw.batch = 1;
    for (int s : br.stages) {
      hw.units.push_back(get_pf(16, model->stage(s)));
    }
    config.branches.push_back(std::move(hw));
  }

  config.datapath = pipelined_at(nn::DataType::kInt8);
  const AcceleratorEval int8 =
      evaluate(*model, config, EvalMode::kQuantized);
  EXPECT_GT(int8.dsps, 0);
  EXPECT_EQ(int8.luts, 0);
  EXPECT_DOUBLE_EQ(int8.accuracy_proxy, config.datapath.accuracy_proxy());

  config.datapath = pipelined_at(nn::DataType::kInt4);
  const AcceleratorEval int4 =
      evaluate(*model, config, EvalMode::kQuantized);
  EXPECT_EQ(int4.dsps, 0);  // LUT-fabric multipliers
  EXPECT_GT(int4.luts, 0);
  EXPECT_GT(int4.accuracy_proxy, int8.accuracy_proxy);
  // Same parallelism, same quantized schedule: identical throughput at
  // equal MAC style.
  EXPECT_DOUBLE_EQ(int4.min_fps, int8.min_fps);

  config.datapath =
      Datapath{MacStyle::kStaged, nn::DataType::kInt8, nn::DataType::kInt8};
  const AcceleratorEval staged =
      evaluate(*model, config, EvalMode::kQuantized);
  EXPECT_LT(staged.min_fps, int8.min_fps);  // fill overhead costs cycles
  EXPECT_EQ(staged.dsps, int8.dsps);
}

TEST(DatapathEvalTest, Eq3MatchesPeakOracleForEveryDspDatapath) {
  for (const Datapath& dp : registered_datapaths()) {
    if (dp.lut_multipliers()) continue;  // beta 0: no DSP peak to divide by
    const int beta = dp.beta_ops_per_dsp();
    EXPECT_DOUBLE_EQ(efficiency_eq3(10.0, beta, 100, 200e6),
                     oracle::eq3_efficiency(10.0, beta, 100, 200.0))
        << datapath_to_string(dp);
  }
}

}  // namespace
}  // namespace fcad::arch
