#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/ddr.hpp"
#include "sim/stage.hpp"

namespace fcad::sim {
namespace {

constexpr int kFrames = 4;  ///< simulated frames (steady state by the end)
static_assert(kFrames >= 2, "the frame period needs two simulated frames");
constexpr int kRowOverheadCycles = 8;  ///< control overhead per row
/// Accumulator drain / weight-select penalty per output-channel tile per
/// row — the dominant source of the few-percent analytical-vs-real gap.
constexpr int kTileOverheadCycles = 12;
/// Achievable fraction of the DDR's nominal bandwidth (burst boundaries,
/// refresh, arbitration).
constexpr double kDdrEfficiency = 0.85;
constexpr int kDdrPasses = 2;  ///< congestion fix-point iterations

struct StageState {
  StageSimModel model;
  int owner_branch = -1;
  /// Conv-row completion times for the previous and current frame.
  std::vector<std::int64_t> prev_rows;
  std::vector<std::int64_t> rows;
  std::int64_t fetch_done_prev = 0;
  std::int64_t busy = 0;
  std::int64_t stall = 0;
};

/// One full multi-pipeline simulation at a fixed DDR congestion factor.
/// Returns per-branch frame completion times (frames x branches).
std::vector<std::vector<std::int64_t>> run_pass(
    const arch::ReorganizedModel& model, const arch::AcceleratorConfig& config,
    const DdrModel& ddr, std::vector<StageState>& states) {
  const int num_stages = static_cast<int>(model.fused.stages.size());

  // Build stage timing models, indexed by stage id.
  states.assign(static_cast<std::size_t>(num_stages), {});
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    const arch::BranchPipeline& br = model.branches[b];
    const arch::BranchHardwareConfig& hw = config.branches[b];
    for (std::size_t i = 0; i < br.stages.size(); ++i) {
      StageState& st = states[static_cast<std::size_t>(br.stages[i])];
      st.model = build_stage_sim(model, br.stages[i], hw.units[i],
                                 config.datapath.dw, config.datapath.ww);
      st.owner_branch = static_cast<int>(b);
    }
  }

  std::vector<std::vector<std::int64_t>> completions(
      static_cast<std::size_t>(kFrames),
      std::vector<std::int64_t>(model.branches.size(), 0));

  for (int frame = 0; frame < kFrames; ++frame) {
    for (int s = 0; s < num_stages; ++s) {
      StageState& st = states[static_cast<std::size_t>(s)];
      const StageSimModel& m = st.model;
      FCAD_CHECK_MSG(st.owner_branch >= 0, "stage not owned by any branch");

      st.rows.assign(static_cast<std::size_t>(m.conv_rows), 0);

      // Double-buffered weight prefetch: fetch for frame n pipelines behind
      // fetch n-1; frame n cannot begin before its fetch lands.
      const std::int64_t fetch_cycles = ddr.cycles(m.weight_fetch_bytes);
      const std::int64_t fetch_done =
          (frame == 0 ? 0 : st.fetch_done_prev) + fetch_cycles;
      st.fetch_done_prev = fetch_done;

      const std::int64_t row_ddr =
          ddr.cycles(m.bias_bytes_per_row + m.input_bytes_per_row);
      const std::int64_t step =
          std::max(m.row_cycles + m.out_tile_passes * kTileOverheadCycles,
                   row_ddr) +
          kRowOverheadCycles;

      const StageState* prod =
          m.producer >= 0 ? &states[static_cast<std::size_t>(m.producer)]
                          : nullptr;

      for (int slab = 0; slab < m.slabs; ++slab) {
        const int row_begin = slab * m.rows_per_slab;
        const int row_end = std::min(m.conv_rows, row_begin + m.rows_per_slab);
        // The slab's engines are busy with the previous frame until its last
        // row completed there.
        std::int64_t prev_end = 0;
        if (frame > 0 && row_end > row_begin) {
          prev_end = st.prev_rows[static_cast<std::size_t>(row_end - 1)];
        }
        std::int64_t t = std::max(prev_end, fetch_done);
        for (int r = row_begin; r < row_end; ++r) {
          std::int64_t avail = 0;
          if (prod != nullptr) {
            const int in_row = m.needed_input_row(r);
            const int prod_row = prod->model.conv_row_for_final(in_row);
            avail = prod->rows[static_cast<std::size_t>(prod_row)];
          }
          const std::int64_t start = std::max(t, avail);
          st.stall += start - t;
          t = start + step;
          st.busy += m.row_cycles;
          st.rows[static_cast<std::size_t>(r)] = t;
        }
      }
      st.prev_rows = st.rows;
    }

    for (std::size_t b = 0; b < model.branches.size(); ++b) {
      const int out_stage =
          model.fused.output_stages[static_cast<std::size_t>(b)];
      const StageState& st = states[static_cast<std::size_t>(out_stage)];
      completions[static_cast<std::size_t>(frame)][b] = st.rows.back();
    }
  }
  return completions;
}

}  // namespace

SimResult simulate(const arch::ReorganizedModel& model,
                   const arch::AcceleratorConfig& config,
                   const arch::Platform& platform) {
  FCAD_CHECK_MSG(config.branches.size() == model.branches.size(),
                 "sim: config arity mismatch");
  const double freq_hz = config.freq_mhz * 1e6;
  const double bytes_per_cycle =
      platform.bw_gbps * 1e9 * kDdrEfficiency / freq_hz;

  // Static resource view (DSP counts for efficiency, stream totals for the
  // congestion fix-point).
  const arch::AcceleratorEval res_eval =
      arch::evaluate(model, config, arch::EvalMode::kQuantized);

  double congestion = 1.0;
  SimResult result;
  std::vector<StageState> states;
  for (int pass = 0; pass < kDdrPasses; ++pass) {
    const DdrModel ddr(bytes_per_cycle, congestion);
    const auto completions = run_pass(model, config, ddr, states);

    result.branches.assign(model.branches.size(), {});
    const double beta = config.datapath.beta_ops_per_dsp();
    double total_gops = 0;
    double demand_bytes_per_s = 0;
    for (std::size_t b = 0; b < model.branches.size(); ++b) {
      const arch::BranchPipeline& br = model.branches[b];
      const int batch = config.branches[b].batch;
      const std::int64_t last =
          completions[static_cast<std::size_t>(kFrames - 1)][b];
      const std::int64_t prev =
          completions[static_cast<std::size_t>(kFrames - 2)][b];
      const double period = static_cast<double>(last - prev);
      BranchSimResult& bs = result.branches[b];
      bs.latency_cycles = static_cast<double>(completions[0][b]);
      bs.fps = period > 0 ? batch * freq_hz / period : 0.0;
      bs.gops = 2.0 * static_cast<double>(br.macs_owned) * bs.fps * 1e-9;
      const int dsps = res_eval.branches[b].dsps;
      bs.efficiency = arch::efficiency_eq3(bs.gops, beta, dsps, freq_hz);
      total_gops += bs.gops;

      // Sustained DDR demand at the simulated rate.
      double param_bytes = 0;
      double feature_bytes = 0;
      for (const arch::StageEval& se : res_eval.branches[b].stages) {
        param_bytes += static_cast<double>(se.res.param_stream_bytes);
        feature_bytes += static_cast<double>(se.res.feature_stream_bytes);
      }
      demand_bytes_per_s +=
          param_bytes * (bs.fps / batch) + feature_bytes * bs.fps;
    }
    result.min_fps = result.branches.empty() ? 0 : result.branches[0].fps;
    for (const BranchSimResult& bs : result.branches) {
      result.min_fps = std::min(result.min_fps, bs.fps);
    }
    result.efficiency =
        arch::efficiency_eq3(total_gops, beta, res_eval.dsps, freq_hz);
    result.ddr_demand_gbps = demand_bytes_per_s * 1e-9;
    result.ddr_congestion = congestion;

    const double next_congestion =
        DdrModel::congestion_for(demand_bytes_per_s, platform.bw_gbps * 1e9);
    if (next_congestion <= congestion + 1e-9) break;  // fix-point reached
    congestion = next_congestion;
  }

  result.stages.clear();
  for (const StageState& st : states) {
    if (st.owner_branch < 0) continue;
    StageSimStats ss;
    ss.stage = st.model.stage_idx;
    // busy/stall accumulated over all frames; report per-frame averages.
    ss.busy_cycles = st.busy / kFrames;
    ss.stall_cycles = st.stall / kFrames;
    result.stages.push_back(ss);
  }
  return result;
}

}  // namespace fcad::sim
