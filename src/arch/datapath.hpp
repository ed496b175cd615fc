// The datapath layer: precision x MAC microarchitecture as one first-class
// value type, so every model that prices or times a multiply-accumulate array
// (arch/unit, arch/resource_model, arch/evaluate, the DSE stack) asks one
// oracle instead of re-deriving packing constants from nn::DataType.
//
// Two MAC styles:
//   * kPipelined — fully pipelined MAC array, initiation interval 1. The
//     paper's Table I/II datapath; Eq. 4 latency holds exactly.
//   * kStaged   — multi-stage multiply/accumulate chain without internal
//     forwarding. Same steady-state rate, but each output tile-row group must
//     fill and drain the chain, adding fill_cycles() per (kpf, h) tile pass.
//
// Four precision points (feature width DW x weight width WW):
//   int4 (4x4), int8 (8x8), int16 (16x16), and mixed int8x4 (8-bit features,
//   4-bit weights). 8/16-bit weights map multipliers onto DSP slices (2/1 per
//   DSP48); 4-bit weights fall back to LUT-fabric multipliers (0 DSPs,
//   luts_per_multiplier() LUTs per lane) — the packing the registry exposes.
//
// This file and src/nn/dtype.cpp are the only two allowed to branch on
// nn::DataType (enforced by a CI grep gate).
#pragma once

#include <string>
#include <vector>

#include "nn/dtype.hpp"
#include "util/status.hpp"

namespace fcad::arch {

/// MAC microarchitecture of the basic unit's compute array.
enum class MacStyle {
  kPipelined,  ///< II=1 pipelined array (the paper's datapath)
  kStaged,     ///< staged chain: adds a pipeline fill per output tile pass
};

/// One precision x microarchitecture point. Plain value type; equality and
/// ordering are structural so it can key caches and hashes.
struct Datapath {
  MacStyle mac = MacStyle::kPipelined;
  nn::DataType dw = nn::DataType::kInt8;  ///< feature width (DW)
  nn::DataType ww = nn::DataType::kInt8;  ///< weight width (WW)

  bool operator==(const Datapath&) const = default;

  /// Multipliers one DSP slice implements at this weight width; 0 when the
  /// multipliers live in the LUT fabric instead (lut_multipliers()).
  int multipliers_per_dsp() const;

  /// Paper Eq. 3 beta: ops (1 MAC = 2 ops) per DSP per cycle. 0 for
  /// LUT-fabric datapaths, whose efficiency is DSP-free by construction.
  int beta_ops_per_dsp() const;

  /// True when multipliers are built from LUTs (4-bit weights): the compute
  /// array consumes 0 DSPs and lanes * luts_per_multiplier() LUTs.
  bool lut_multipliers() const;

  /// Fabric cost of one 4-bit multiplier lane (0 for DSP-mapped widths).
  int luts_per_multiplier() const;

  /// Staged-MAC pipeline-fill overhead in cycles, paid once per output
  /// tile-row pass (see arch/unit.hpp cycles_* with a Datapath). 0 for
  /// pipelined MACs — which keeps the default datapath's Eq. 4 latency
  /// bit-identical to the pre-datapath model.
  double fill_cycles() const;

  /// Accuracy-degradation proxy of this precision (Top-1-style penalty,
  /// >= 0, higher is worse): 0 for int16, growing as widths shrink. Lets
  /// objectives/frontiers trade throughput against precision.
  double accuracy_proxy() const;
};

/// Canonical grammar: "<mac>-<precision>" with mac in {pipelined, staged}
/// and precision in {int4, int8, int16, int8x4} (int8x4 = 8-bit features,
/// 4-bit weights). Examples: "pipelined-int8" (the default), "staged-int16".
std::string datapath_to_string(const Datapath& dp);

/// Parses the canonical grammar; rejects anything not in the registry.
StatusOr<Datapath> datapath_from_string(const std::string& name);

/// All supported datapaths (2 MAC styles x 4 precisions), in canonical
/// order: pipelined before staged, widest precision first.
const std::vector<Datapath>& registered_datapaths();

/// Canonical names of registered_datapaths(), same order.
std::vector<std::string> registered_datapath_names();

}  // namespace fcad::arch
