// Row-level cycle simulator of the multi-pipeline elastic accelerator.
//
// This is the reproduction's substitute for the paper's board-level
// implementations: per pipeline stage it replays every output row with
// ceil-quantized tile compute, line-buffer-gated producer/consumer
// handshakes (the fine-grained pipelining adopted from DNNBuilder),
// double-buffered per-frame weight streams, per-row bias/input streams, and
// a shared DDR with congestion. The gap between arch::evaluate(kAnalytical)
// and this simulator is what Figs. 6-7 quantify as estimation error.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/evaluate.hpp"
#include "arch/platform.hpp"

namespace fcad::sim {

struct SimOptions {
  int frames = 4;               ///< simulated frames (steady state by the end)
  int row_overhead_cycles = 8;  ///< control overhead per row
  /// Accumulator drain / weight-select penalty per output-channel tile per
  /// row — the dominant source of the few-percent analytical-vs-real gap.
  int tile_overhead_cycles = 12;
  /// Achievable fraction of the DDR's nominal bandwidth (burst boundaries,
  /// refresh, arbitration).
  double ddr_efficiency = 0.85;
  int ddr_passes = 2;           ///< congestion fix-point iterations
};

struct BranchSimResult {
  double fps = 0;              ///< steady-state, all batch copies
  double latency_cycles = 0;   ///< first-frame completion (pipeline fill)
  double efficiency = 0;       ///< Eq. 3 at the simulated throughput
  double gops = 0;
};

struct StageSimStats {
  int stage = -1;
  /// row_cycles summed over every row of every H-partition slab of the
  /// final DDR pass, divided by the frame count. The slabs run in parallel,
  /// so this is engine-cycles across slabs, not the stage's per-frame span.
  std::int64_t busy_cycles = 0;
  /// Cycles rows waited on their producer's output, summed over slabs the
  /// same way. Weight-fetch and previous-frame waits, DDR-bound row steps
  /// and row/tile overheads are not counted.
  std::int64_t stall_cycles = 0;
};

struct SimResult {
  std::vector<BranchSimResult> branches;
  double min_fps = 0;
  double efficiency = 0;       ///< whole accelerator
  double ddr_demand_gbps = 0;  ///< sustained traffic at simulated FPS
  double ddr_congestion = 1;   ///< final congestion factor applied
  std::vector<StageSimStats> stages;
};

/// Simulates `config` on `model` with the platform's bandwidth and clock.
SimResult simulate(const arch::ReorganizedModel& model,
                   const arch::AcceleratorConfig& config,
                   const arch::Platform& platform, const SimOptions& options = {});

}  // namespace fcad::sim
