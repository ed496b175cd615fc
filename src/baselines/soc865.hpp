// Analytical model of a Snapdragon-865-class mobile SoC running the decoder
// (Table II, first row). The paper attributes the SoC's poor efficiency to
// its limited cache: HD intermediate feature maps do not fit, forcing
// repeated DDR round-trips. We model each layer as
//   time = max(compute at peak MACs, over-fetched DDR traffic / bandwidth)
// with the over-fetch factor growing with working-set-to-cache ratio.
#pragma once

#include <vector>

#include "arch/reorg.hpp"

namespace fcad::baselines {

struct SocLayerTime {
  int stage = -1;
  double compute_ms = 0;
  double memory_ms = 0;
  bool memory_bound = false;
  double overfetch = 1.0;
};

struct Soc865Result {
  double fps = 0;
  double gops = 0;
  double efficiency = 0;    ///< vs the engine's theoretical peak
  double compute_ms = 0;    ///< sum over layers
  double memory_ms = 0;
  std::vector<SocLayerTime> layers;
};

/// `cache_mib` is the effectively usable last-level cache — the one knob
/// the Table-II mechanism turns on (bench_ablation section F sweeps it).
Soc865Result run_soc865(const arch::ReorganizedModel& model,
                        double cache_mib = 2.0);

}  // namespace fcad::baselines
