// Reimplementation of DNNBuilder's accelerator generation (Zhang et al.,
// ICCAD'18) at the fidelity the F-CAD paper analyzes it (Sec. III):
//  * unfolded architecture — one dedicated unit per pipeline stage;
//  * two-level parallelism only (cpf x kpf), maximum parallel factor
//    InCh * OutCh per layer — no H-partition;
//  * resource allocation proportional to per-layer computation, so scaling
//    the budget past a capped bottleneck layer inflates utilization without
//    improving throughput (the Fig. 3 plateau).
#pragma once

#include <vector>

#include "arch/evaluate.hpp"
#include "arch/platform.hpp"

namespace fcad::baselines {

struct DnnBuilderLayer {
  int stage = -1;
  arch::UnitConfig cfg;         ///< h always 1
  std::int64_t pf = 1;          ///< cpf * kpf
  bool capped = false;          ///< pf reached InCh * OutCh
  int dsps = 0;
  int brams = 0;
  double cycles = 0;            ///< quantized stage latency
  double latency_ms = 0;
};

struct DnnBuilderResult {
  std::vector<DnnBuilderLayer> layers;  ///< one per fused stage
  int dsps = 0;
  int brams = 0;
  double fps = 0;
  double gops = 0;
  double efficiency = 0;
  double bottleneck_cycles = 0;
};

/// Generates and evaluates a DNNBuilder-style accelerator for the whole
/// network (all branches laid out as dedicated stage pipelines, shared
/// stages instantiated once) under `platform`'s budgets.
DnnBuilderResult run_dnnbuilder(const arch::ReorganizedModel& model,
                                const arch::Platform& platform,
                                nn::DataType dtype);

}  // namespace fcad::baselines
