#include "arch/evaluate.hpp"

#include <algorithm>
#include <limits>

namespace fcad::arch {
namespace {

double stage_cycles(const FusedStage& stage, const UnitConfig& cfg,
                    EvalMode mode, const Datapath& dp) {
  return mode == EvalMode::kAnalytical
             ? cycles_analytical(stage, cfg, dp)
             : static_cast<double>(cycles_quantized(stage, cfg, dp));
}

}  // namespace

AcceleratorEval evaluate(const ReorganizedModel& model,
                         const AcceleratorConfig& config, EvalMode mode) {
  FCAD_CHECK_MSG(config.branches.size() == model.branches.size(),
                 "config/branch arity mismatch");
  const double freq_hz = config.freq_mhz * 1e6;

  AcceleratorEval eval;
  eval.branches.resize(model.branches.size());

  // Pass 1: per-stage latency and resources for owned stages.
  // stage index -> its latency (for cross-branch caps) and owner batch.
  std::vector<double> stage_lat(model.fused.stages.size(), 0.0);
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    const BranchPipeline& br = model.branches[b];
    const BranchHardwareConfig& hw = config.branches[b];
    FCAD_CHECK_MSG(hw.units.size() == br.stages.size(),
                   "unit config arity mismatch on branch");
    FCAD_CHECK_MSG(hw.batch >= 1, "batch must be >= 1");
    BranchEval& be = eval.branches[b];
    be.batch = hw.batch;

    std::int64_t param_bytes = 0;
    std::int64_t feature_bytes = 0;
    for (std::size_t i = 0; i < br.stages.size(); ++i) {
      const int s = br.stages[i];
      const FusedStage& stage = model.stage(s);
      const UnitConfig& cfg = hw.units[i];
      FCAD_CHECK_MSG(fits_stage(cfg, stage),
                     "unit config exceeds stage dims: " + stage.name);

      UnitStreamContext ctx;
      ctx.reads_external_input =
          model.fused.stage_inputs[static_cast<std::size_t>(s)].empty();
      ctx.writes_external_output =
          !model.fused.stage_outputs[static_cast<std::size_t>(s)].empty();

      StageEval se;
      se.stage = s;
      se.cfg = cfg;
      se.cycles = stage_cycles(stage, cfg, mode, config.datapath);
      se.res = unit_resources(stage, cfg, config.datapath, ctx);
      stage_lat[static_cast<std::size_t>(s)] = se.cycles;

      be.dsps += se.res.dsps * hw.batch;
      be.luts += se.res.luts * hw.batch;
      be.brams += se.res.brams * hw.batch;
      param_bytes += se.res.param_stream_bytes;
      feature_bytes += se.res.feature_stream_bytes;
      be.bottleneck_cycles = std::max(be.bottleneck_cycles, se.cycles);
      be.stages.push_back(std::move(se));
    }

    // Eq. 5: FPS = batch / max latency. A branch owning no stages (fully
    // shared into another branch) is only limited by its producers, handled
    // by the cross-branch caps below.
    be.fps = be.bottleneck_cycles > 0
                 ? hw.batch * freq_hz / be.bottleneck_cycles
                 : std::numeric_limits<double>::infinity();
    // Stash stream byte totals in bw_gbps temporarily; finalized below once
    // the capped FPS is known (traffic scales with delivered frames).
    be.bw_gbps = static_cast<double>(param_bytes) +
                 static_cast<double>(feature_bytes) * hw.batch;
  }

  // Pass 2: cross-branch caps. A branch consuming a stage owned by another
  // branch cannot exceed that stage's production rate (owner batch copies,
  // each finishing a frame per stage latency).
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    const BranchPipeline& br = model.branches[b];
    BranchEval& be = eval.branches[b];
    for (int s : br.path) {
      const int owner = model.owner[static_cast<std::size_t>(s)];
      if (owner == static_cast<int>(b)) continue;
      const double lat = stage_lat[static_cast<std::size_t>(s)];
      if (lat <= 0) continue;
      const double producer_fps =
          config.branches[static_cast<std::size_t>(owner)].batch * freq_hz /
          lat;
      be.fps = std::min(be.fps, producer_fps);
    }
  }

  // Pass 3: delivered GOP/s, efficiency, bandwidth, accelerator totals.
  const double beta = config.datapath.beta_ops_per_dsp();
  double total_gops = 0;
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    const BranchPipeline& br = model.branches[b];
    BranchEval& be = eval.branches[b];
    // Delivered MAC work only (2 ops per MAC), matching Eq. 3's peak, so a
    // perfectly balanced pipeline tops out at 100%.
    be.gops = 2.0 * static_cast<double>(br.macs_owned) * be.fps * 1e-9;
    be.efficiency = efficiency_eq3(be.gops, beta, be.dsps, freq_hz);
    // Traffic: parameters fetched once per frame wave (fps / batch waves per
    // second, broadcast to copies), features per delivered frame.
    const double waves_per_s = be.batch > 0 ? be.fps / be.batch : 0.0;
    double param_bytes = 0;
    double feature_bytes = 0;
    for (const StageEval& se : be.stages) {
      param_bytes += static_cast<double>(se.res.param_stream_bytes);
      feature_bytes += static_cast<double>(se.res.feature_stream_bytes);
    }
    be.bw_gbps =
        (param_bytes * waves_per_s + feature_bytes * be.fps) * 1e-9;

    eval.dsps += be.dsps;
    eval.luts += be.luts;
    eval.brams += be.brams;
    eval.bw_gbps += be.bw_gbps;
    total_gops += be.gops;
  }
  eval.min_fps = eval.branches.empty() ? 0.0 : eval.branches[0].fps;
  for (const BranchEval& be : eval.branches) {
    eval.min_fps = std::min(eval.min_fps, be.fps);
  }
  eval.efficiency = efficiency_eq3(total_gops, beta, eval.dsps, freq_hz);
  eval.accuracy_proxy = config.datapath.accuracy_proxy();
  return eval;
}

}  // namespace fcad::arch
