// The elastic architecture (Sec. V-B): basic architecture units arranged on
// a 2D plane — X expansion = pipeline stages within a branch, Y expansion =
// branches — plus batch replication of whole pipelines. This header defines
// the full hardware configuration and the analytical evaluator the DSE uses.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/datapath.hpp"
#include "arch/reorg.hpp"
#include "arch/resource_model.hpp"
#include "arch/unit.hpp"
#include "nn/dtype.hpp"

namespace fcad::arch {

/// Hardware configuration of one branch pipeline (a config_j of Table III).
struct BranchHardwareConfig {
  int batch = 1;                  ///< replicated pipeline copies
  std::vector<UnitConfig> units;  ///< parallel to BranchPipeline::stages
};

/// Full accelerator configuration (the Config of Algorithm 1).
struct AcceleratorConfig {
  std::vector<BranchHardwareConfig> branches;
  /// Precision x MAC microarchitecture (DW/WW widths ride inside). The
  /// default pipelined-int8 reproduces the pre-datapath model exactly.
  Datapath datapath;
  double freq_mhz = 200.0;
};

enum class EvalMode {
  kAnalytical,  ///< smooth Eq. 4 latency (what the DSE optimizes)
  kQuantized,   ///< ceil-quantized tile counts (closer to the real datapath)
};

struct StageEval {
  int stage = -1;
  UnitConfig cfg;
  double cycles = 0;      ///< latency of this stage, one frame
  UnitResources res;      ///< per pipeline copy
};

struct BranchEval {
  std::vector<StageEval> stages;  ///< owned stages only
  int batch = 1;
  int dsps = 0;                   ///< all copies
  int luts = 0;                   ///< fabric multipliers (LUT datapaths)
  int brams = 0;
  double bottleneck_cycles = 0;   ///< max stage latency (own stages)
  double fps = 0;                 ///< Eq. 5, cross-branch caps applied
  double gops = 0;                ///< delivered GOP/s at `fps`
  double efficiency = 0;          ///< Eq. 3
  double bw_gbps = 0;             ///< sustained DDR traffic
};

struct AcceleratorEval {
  std::vector<BranchEval> branches;
  int dsps = 0;
  int luts = 0;              ///< fabric-multiplier LUTs (LUT datapaths)
  int brams = 0;
  double bw_gbps = 0;
  double min_fps = 0;        ///< slowest branch
  double efficiency = 0;     ///< whole-accelerator Eq. 3
  /// The evaluated datapath's precision penalty (Datapath::accuracy_proxy),
  /// so objectives and frontiers can trade throughput against precision.
  double accuracy_proxy = 0;

  /// `max_luts` defaults to 0: without an explicit LUT budget, any
  /// LUT-fabric compute is over budget (DSP datapaths use no LUTs).
  bool within(int max_dsps, int max_brams, double max_bw_gbps,
              int max_luts = 0) const {
    return dsps <= max_dsps && luts <= max_luts && brams <= max_brams &&
           bw_gbps <= max_bw_gbps;
  }
};

/// Evaluates `config` against `model`. The config must supply one
/// BranchHardwareConfig per branch with one UnitConfig per owned stage.
///
/// FPS per branch follows Eq. 5 (batch / max stage latency), then is capped
/// by the production rate of any shared stage the branch consumes but does
/// not own (a branch cannot outrun its shared prefix).
AcceleratorEval evaluate(const ReorganizedModel& model,
                         const AcceleratorConfig& config, EvalMode mode);

/// Eq. 3: EFFI = GOPS / (beta * DSPs * FREQ), with beta the datapath's ops
/// per DSP per cycle (Datapath::beta_ops_per_dsp). 0 when no DSPs are used.
inline double efficiency_eq3(double gops, double beta, int dsps,
                             double freq_hz) {
  return dsps > 0 ? gops * 1e9 / (beta * dsps * freq_hz) : 0.0;
}

}  // namespace fcad::arch
