// In-branch greedy optimization (Algorithm 2): given one branch's slice of
// the resource budget, derive bandwidth-normalized per-stage parallelism
// targets, then greedily shrink them (halving) until the branch's batch-size
// target fits the slice.
//
// Everything Algorithm 2 asks of a stage — its demand, GetPF's answer, the
// unit's resources and Eq.-4 cycles — depends only on (stage, lane count,
// datapath), never on the candidate. A BranchTable precomputes that half
// once per search, so each halving step is one binary search per stage plus
// array reads.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/evaluate.hpp"
#include "dse/design_space.hpp"

namespace fcad::dse {

struct InBranchResult {
  arch::BranchHardwareConfig config;
  /// True when the requested batch size fits the resource slice.
  bool met_batch_target = false;
  /// Resources consumed by the configured branch (all batch copies).
  double c_used = 0;   ///< DSPs
  double m_used = 0;   ///< BRAM18K blocks
  double bw_used = 0;  ///< GB/s at the achieved throughput
  /// Analytical bottleneck latency of one pipeline copy, in cycles.
  double bottleneck_cycles = 0;
  int halvings = 0;  ///< greedy iterations taken
};

/// Algorithm 2's candidate-independent half for one branch on one datapath.
struct BranchTable {
  /// One owned stage, in pipeline order.
  struct Stage {
    double ops = 0;           ///< op_k: MACs (the Eq. 4 work term)
    double stream_bytes = 0;  ///< per-frame DDR bytes at pf = 1 (GetReuse)
    std::int64_t max_lanes = 1;
    /// arch::lane_entries(stage)'s lane counts, ascending.
    std::vector<std::int64_t> lanes;
    /// Per lane-table entry: the config, arch::unit_resources and
    /// arch::cycles_analytical on the table's datapath.
    std::vector<arch::UnitConfig> configs;
    std::vector<arch::UnitResources> resources;
    std::vector<double> cycles;

    /// Index of arch::get_pf(pf_target, stage) in the per-entry arrays.
    std::size_t lookup(std::int64_t pf_target) const;
  };
  std::vector<Stage> stages;
};

/// Builds the table of `branch` of `model` on datapath `dp`.
BranchTable build_branch_table(const arch::ReorganizedModel& model,
                               int branch, const arch::Datapath& dp);

/// One table per branch of `model`, in branch order.
std::vector<BranchTable> build_branch_tables(
    const arch::ReorganizedModel& model, const arch::Datapath& dp);

/// Runs Algorithm 2 on a prebuilt table under budget slice `rd`.
/// `batch_target` is the user's BatchSize_j. Always returns a structurally
/// valid config (parallelism >= 1 everywhere); check met_batch_target and
/// the usage fields for feasibility.
InBranchResult in_branch_optimize(const BranchTable& table,
                                  const ResourceBudget& rd, int batch_target,
                                  double freq_mhz);

/// Runs Algorithm 2 for `branch` of `model` on the given datapath: builds
/// the branch's table and runs the table-driven overload.
InBranchResult in_branch_optimize(const arch::ReorganizedModel& model,
                                  int branch, const ResourceBudget& rd,
                                  int batch_target, const arch::Datapath& dp,
                                  double freq_mhz);

}  // namespace fcad::dse
