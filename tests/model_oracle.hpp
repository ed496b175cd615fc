// Independent oracles for the analytical model (paper Eqs. 3-4), written
// from the formulas rather than from the production code, so tests can
// cross-check arch::cycles_quantized, arch::cycles_analytical and
// arch::evaluate against something other than their own past outputs.
#pragma once

#include <cstdint>

#include "arch/datapath.hpp"
#include "arch/fusion.hpp"
#include "arch/unit.hpp"

namespace fcad::oracle {

/// Cycle-exact schedule of one unit: walk every (output tile, row tile)
/// pass; a staged MAC chain fills once per pass, then each input tile
/// spends out_w * K * K cycles. This is the ground truth cycles_quantized
/// summarizes in closed form.
inline std::int64_t brute_force_cycles(const arch::FusedStage& st,
                                       const arch::UnitConfig& cfg,
                                       const arch::Datapath& dp) {
  std::int64_t cycles = 0;
  const auto fill = static_cast<std::int64_t>(dp.fill_cycles());
  for (int ko = 0; ko < st.out_ch; ko += cfg.kpf) {
    for (int ro = 0; ro < st.out_h; ro += cfg.h) {
      cycles += fill;
      for (int ci = 0; ci < st.in_ch; ci += cfg.cpf) {
        cycles +=
            static_cast<std::int64_t>(st.out_w) * st.kernel * st.kernel;
      }
    }
  }
  return cycles;
}

/// Eq. 4 for a stride-1 same-padded Conv layer (InCh x H x W input, OutCh x
/// InCh x K x K kernel) under 3D parallelism (cpf, kpf, h), plus a staged
/// MAC chain's `fill_cycles` once per output tile pass, of which the layer
/// runs (out_ch / kpf) * (height / h). `fill_cycles == 0` is plain Eq. 4.
inline double eq4_cycles(int out_ch, int in_ch, int height, int width,
                         int kernel, int cpf, int kpf, int h,
                         double fill_cycles = 0) {
  const double macs = static_cast<double>(out_ch) * in_ch * height * width *
                      kernel * kernel;
  const double base = macs / (static_cast<double>(cpf) * kpf * h);
  const double passes = static_cast<double>(out_ch) / kpf *
                        (static_cast<double>(height) / h);
  return base + fill_cycles * passes;
}

/// Eq. 3 as delivered over peak: peak GOP/s of `dsps` slices at beta ops
/// per DSP per cycle and `freq_mhz`, then EFFI = gops / peak (0 when the
/// peak is 0).
inline double eq3_efficiency(double gops, int beta, int dsps,
                             double freq_mhz) {
  const double peak_gops =
      static_cast<double>(beta) * dsps * freq_mhz * 1e-3;  // 1e6 Hz * 1e-9
  return peak_gops > 0 ? gops / peak_gops : 0.0;
}

}  // namespace fcad::oracle
