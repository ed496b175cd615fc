#include "baselines/dnnbuilder.hpp"

#include <algorithm>
#include <cmath>

#include "arch/resource_model.hpp"

namespace fcad::baselines {
namespace {

struct Allocation {
  std::vector<DnnBuilderLayer> layers;
  int dsps = 0;
  int brams = 0;
};

/// Ops-proportional allocation at scale `lambda` (parallel lanes per MAC of
/// the heaviest layer), quantized through get_pf_2d and capped per layer.
Allocation allocate(const arch::ReorganizedModel& model, double lambda,
                    nn::DataType dtype) {
  const arch::Datapath datapath{arch::MacStyle::kPipelined, dtype, dtype};
  Allocation alloc;
  std::int64_t max_macs = 1;
  for (const arch::FusedStage& st : model.fused.stages) {
    max_macs = std::max(max_macs, st.macs);
  }
  for (std::size_t s = 0; s < model.fused.stages.size(); ++s) {
    const arch::FusedStage& st = model.fused.stages[s];
    DnnBuilderLayer layer;
    layer.stage = static_cast<int>(s);
    const double share =
        lambda * static_cast<double>(st.macs) / static_cast<double>(max_macs);
    const std::int64_t target =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(share)));
    layer.cfg = arch::get_pf_2d(target, st);
    layer.pf = layer.cfg.lanes();
    layer.capped =
        layer.pf >= static_cast<std::int64_t>(st.max_cpf()) * st.max_kpf();

    arch::UnitStreamContext ctx;
    ctx.reads_external_input =
        model.fused.stage_inputs[s].empty();
    ctx.writes_external_output = !model.fused.stage_outputs[s].empty();
    const arch::UnitResources res =
        arch::unit_resources(st, layer.cfg, datapath, ctx);
    layer.dsps = res.dsps;
    layer.brams = res.brams;
    layer.cycles =
        static_cast<double>(arch::cycles_quantized(st, layer.cfg));
    alloc.dsps += layer.dsps;
    alloc.brams += layer.brams;
    alloc.layers.push_back(layer);
  }
  return alloc;
}

}  // namespace

DnnBuilderResult run_dnnbuilder(const arch::ReorganizedModel& model,
                                const arch::Platform& platform,
                                nn::DataType dtype) {
  // Largest ops-proportional scale that fits both DSP and BRAM budgets.
  // lambda is lanes on the heaviest layer; it is bounded by that layer's cap
  // times a slack factor, so the bisection range is finite.
  double lo = 0.0;
  double hi = 1.0;
  std::int64_t max_cap = 1;
  for (const arch::FusedStage& st : model.fused.stages) {
    max_cap = std::max(max_cap,
                       static_cast<std::int64_t>(st.max_cpf()) * st.max_kpf());
  }
  hi = static_cast<double>(max_cap);
  auto fits = [&](double lambda) {
    const Allocation a = allocate(model, lambda, dtype);
    return a.dsps <= platform.dsps && a.brams <= platform.brams18k;
  };
  if (!fits(1.0)) {
    // Even unit parallelism everywhere is over budget; report it anyway.
    hi = 1.0;
  } else {
    while (fits(hi) && hi < 4.0 * static_cast<double>(max_cap)) hi *= 2;
    for (int i = 0; i < 48; ++i) {
      const double mid = 0.5 * (lo + hi);
      (fits(mid) ? lo : hi) = mid;
    }
  }
  const Allocation a = allocate(model, std::max(lo, 1.0), dtype);

  DnnBuilderResult result;
  result.layers = a.layers;
  result.dsps = a.dsps;
  result.brams = a.brams;
  const double freq_hz = platform.freq_mhz * 1e6;
  std::int64_t total_mac_ops = 0;  // 2 ops per MAC, matching Eq. 3's peak
  for (std::size_t s = 0; s < model.fused.stages.size(); ++s) {
    total_mac_ops += 2 * model.fused.stages[s].macs;
  }
  for (DnnBuilderLayer& layer : result.layers) {
    layer.latency_ms = layer.cycles / freq_hz * 1e3;
    result.bottleneck_cycles = std::max(result.bottleneck_cycles, layer.cycles);
  }
  result.fps =
      result.bottleneck_cycles > 0 ? freq_hz / result.bottleneck_cycles : 0.0;
  result.gops = static_cast<double>(total_mac_ops) * result.fps * 1e-9;
  const double beta = nn::beta_ops_per_dsp(dtype);
  result.efficiency =
      arch::efficiency_eq3(result.gops, beta, result.dsps, freq_hz);
  return result;
}

}  // namespace fcad::baselines
