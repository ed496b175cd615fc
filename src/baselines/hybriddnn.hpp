// Reimplementation of HybridDNN's folded accelerator (Ye et al., DAC'20) at
// the fidelity the F-CAD paper analyzes it:
//  * one shared compute engine executes all layers sequentially;
//  * the engine scales coarsely — lane counts are powers of two, so the next
//    step up doubles the instance (Sec. III: "requires double-sized
//    accelerator instance to continue scaling");
//  * on-chip buffering grows with the engine, which is what blocks the
//    2048-lane step on ZU9CG's BRAM budget in the paper's Scheme 3.
#pragma once

#include <vector>

#include "arch/reorg.hpp"
#include "arch/platform.hpp"
#include "nn/dtype.hpp"

namespace fcad::baselines {

struct HybridDnnLayerExec {
  int stage = -1;
  int cpf = 1, kpf = 1, spf = 1;  ///< chosen engine split for this layer
  double compute_cycles = 0;
  double ddr_cycles = 0;   ///< feature spills + weight stream
  double cycles = 0;       ///< max(compute, ddr) + reconfig
  bool memory_bound = false;
  double utilization = 0;  ///< useful MACs / (lanes * cycles)
};

struct HybridDnnResult {
  int lanes = 0;  ///< MAC lanes of the selected engine
  int dsps = 0;
  int brams = 0;
  double fps = 0;
  double gops = 0;
  double efficiency = 0;
  /// True when the next (doubled) engine fit the DSP budget but not the
  /// BRAM budget — the paper's scaling-stop condition.
  bool bram_blocked_scaling = false;
  std::vector<HybridDnnLayerExec> layers;
};

/// Selects the largest engine that fits `platform` and executes the whole
/// network on it, layer by layer.
HybridDnnResult run_hybriddnn(const arch::ReorganizedModel& model,
                              const arch::Platform& platform,
                              nn::DataType dtype);

}  // namespace fcad::baselines
