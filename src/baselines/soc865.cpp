#include "baselines/soc865.hpp"

#include <algorithm>
#include <cmath>

#include "nn/dtype.hpp"

namespace fcad::baselines {
namespace {

constexpr int kMacsPerCycle = 1024;  ///< 8-bit MAC array of the AI engine
constexpr double kFreqGhz = 1.45;
/// Sustainable (not peak) LPDDR bandwidth.
constexpr double kDdrGbps = 12.0;
constexpr double kMaxOverfetch = 8.0;  ///< cap on the re-fetch multiplier
constexpr nn::DataType kDataType = nn::DataType::kInt8;

}  // namespace

Soc865Result run_soc865(const arch::ReorganizedModel& model,
                        double cache_mib) {
  Soc865Result result;
  const double peak_macs_per_s =
      static_cast<double>(kMacsPerCycle) * kFreqGhz * 1e9;
  const double cache_bytes = cache_mib * 1024.0 * 1024.0;
  const double bw_bytes_per_s = kDdrGbps * 1e9;
  const int elem_bytes = nn::bytes(kDataType);

  double total_s = 0;
  std::int64_t total_ops = 0;
  for (std::size_t s = 0; s < model.fused.stages.size(); ++s) {
    const arch::FusedStage& st = model.fused.stages[s];
    SocLayerTime lt;
    lt.stage = static_cast<int>(s);

    const double compute_s = static_cast<double>(st.macs) / peak_macs_per_s;

    const double in_bytes = static_cast<double>(st.in_ch) * st.in_h * st.in_w *
                            elem_bytes;
    const double out_bytes = static_cast<double>(st.final_ch) * st.final_h *
                             st.final_w * elem_bytes;
    const double weight_bytes =
        static_cast<double>(st.weight_params + st.bias_params) * elem_bytes;
    const double working_set = in_bytes + out_bytes + weight_bytes;

    double traffic = weight_bytes;  // weights always come from DRAM once
    if (working_set > cache_bytes) {
      // Tiled execution re-fetches activations; the re-fetch multiplier
      // grows with how badly the working set overflows the cache.
      lt.overfetch =
          std::min(kMaxOverfetch, std::ceil(working_set / cache_bytes));
      traffic += lt.overfetch * (in_bytes + out_bytes);
    } else {
      traffic += in_bytes + out_bytes;  // first touch still misses
    }
    const double memory_s = traffic / bw_bytes_per_s;

    lt.compute_ms = compute_s * 1e3;
    lt.memory_ms = memory_s * 1e3;
    lt.memory_bound = memory_s > compute_s;
    total_s += std::max(compute_s, memory_s);
    total_ops += 2 * st.macs;
    result.compute_ms += lt.compute_ms;
    result.memory_ms += lt.memory_ms;
    result.layers.push_back(lt);
  }

  result.fps = total_s > 0 ? 1.0 / total_s : 0.0;
  result.gops = static_cast<double>(total_ops) * result.fps * 1e-9;
  // Peak ops = 2 ops per MAC at the full MAC array rate (equivalently Eq. 3
  // with beta = 4 and half the MACs counted as "multipliers").
  const double peak_gops = 2.0 * peak_macs_per_s * 1e-9;
  result.efficiency = result.gops / peak_gops;
  return result;
}

}  // namespace fcad::baselines
