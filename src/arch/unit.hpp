// The basic architecture unit (Sec. V-C): one pipeline stage's hardware, with
// 3D parallelism — channel parallelism cpf (input channels), kernel
// parallelism kpf (output channels), and H-partition h (input feature map
// split along its height into h independently processed slabs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "arch/fusion.hpp"

namespace fcad::arch {

/// 3D parallelism configuration of one basic architecture unit.
struct UnitConfig {
  int cpf = 1;  ///< input-channel parallel factor (MACs per PE)
  int kpf = 1;  ///< output-channel parallel factor (PEs per engine)
  int h = 1;    ///< H-partition (engines per unit)

  std::int64_t lanes() const {
    return static_cast<std::int64_t>(cpf) * kpf * h;
  }
  bool operator==(const UnitConfig&) const = default;
  std::string to_string() const;
};

/// True when the factors respect the stage's dimensions (cpf <= InCh,
/// kpf <= OutCh, h <= out height) and are all positive.
bool fits_stage(const UnitConfig& cfg, const FusedStage& stage);

/// Largest parallelism a stage can absorb.
std::int64_t max_lanes(const FusedStage& stage);

/// One entry of GetPF's lane table: the preferred divisor-triple config for
/// one reachable lane count (lowest h, then lowest kpf, among the triples).
struct LaneEntry {
  std::int64_t lanes = 0;
  UnitConfig cfg;
};

/// The lane table get_pf searches for `stage`: one entry per lane count some
/// divisor triple reaches, ascending by lanes, starting at (1,1,1). get_pf(t)
/// is the first entry with lanes >= t, or the last entry when t exceeds them
/// all. Memoized per stage signature; the reference stays valid for the
/// process lifetime.
const std::vector<LaneEntry>& lane_entries(const FusedStage& stage);

/// GetPF (Algorithm 2, line 15): factorizes a scalar parallelism target into
/// (cpf, kpf, h) for this stage. Searches divisor triples of the stage
/// dimensions and returns the feasible config with the smallest lane count
/// >= `pf_target`; when the target exceeds the stage's maximum parallelism,
/// returns the largest feasible config. Divisor triples keep every tile
/// full, so quantized latency equals the analytical Eq. 4 latency at the
/// chosen factors.
UnitConfig get_pf(std::int64_t pf_target, const FusedStage& stage);

/// As get_pf, but with the H-partition forced to 1 (the two-level parallelism
/// of DNNBuilder-style units, used by the baseline model and ablations).
UnitConfig get_pf_2d(std::int64_t pf_target, const FusedStage& stage);

/// Analytical stage latency in cycles (paper Eq. 4): macs / lanes. Equivalent
/// to the Datapath overload at the default pipelined MAC (fill == 0).
double cycles_analytical(const FusedStage& stage, const UnitConfig& cfg);

/// Quantized latency in cycles, as the unit actually executes: tile counts
/// are rounded up per dimension, so non-divisor factors waste slots.
std::int64_t cycles_quantized(const FusedStage& stage, const UnitConfig& cfg);

/// Datapath-aware Eq. 4: macs / lanes, plus — for staged MACs — the chain's
/// fill_cycles() once per output tile-row pass ((OutCh/kpf) * (OutH/h)
/// passes; smooth, like the base term). Bit-identical to the 2-arg overload
/// when dp.fill_cycles() == 0 (every pipelined datapath).
double cycles_analytical(const FusedStage& stage, const UnitConfig& cfg,
                         const Datapath& dp);

/// Datapath-aware quantized latency: the 2-arg tile schedule, plus the fill
/// overhead once per (output tile, row tile) group — exactly what the
/// cycle-exact enumeration in tests/datapath_test.cpp counts.
std::int64_t cycles_quantized(const FusedStage& stage, const UnitConfig& cfg,
                              const Datapath& dp);

}  // namespace fcad::arch
