// The multi-branch dynamic design space (Table III): per-branch batch size
// and per-stage 3D parallelism factors, with user customization (the
// datapath, which carries the paper's quantization Q, branch-wise target
// batch sizes, branch priorities) and the three global resource budgets
// {Cmax, Mmax, BWmax}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "util/status.hpp"

namespace fcad::dse {

/// User customization (Table III, bottom rows, plus the datapath axis).
struct Customization {
  /// Precision x MAC microarchitecture in the canonical grammar of
  /// arch/datapath.hpp ("pipelined-int8", "staged-int8x4", ...).
  std::string datapath = "pipelined-int8";
  std::vector<int> batch_sizes;     ///< BatchSize_1..B (default all 1)
  std::vector<double> priorities;   ///< P_1..B (default all 1.0)

  /// Expands defaults for a model with `num_branches` branches; fails when a
  /// user-supplied vector has the wrong arity or non-positive entries, or
  /// when `datapath` is not a registered name.
  Status normalize(int num_branches);

  /// The parsed `datapath`. Checks that the name is registered.
  arch::Datapath resolved_datapath() const;
};

/// The resource budget triple (Cmax = DSPs, Mmax = BRAM18K, BWmax = GB/s),
/// plus the fabric-LUT capacity `l` bounding LUT-multiplier datapaths
/// (arch/datapath.hpp). `l` rides the compute axis: distributions slice it
/// with the same c_frac as the DSPs, so the search space stays three
/// fractions per branch regardless of which fabric the datapath computes on.
struct ResourceBudget {
  double c = 0;
  double m = 0;
  double bw = 0;
  double l = 0;  ///< fabric LUTs for LUT-multiplier datapaths (0: none)

  static ResourceBudget from_platform(const arch::Platform& p) {
    return {static_cast<double>(p.dsps), static_cast<double>(p.brams18k),
            p.bw_gbps, static_cast<double>(p.luts)};
  }
};

/// One cross-branch resource distribution candidate (an `rd` of Algorithm
/// 1): per-branch fractions of each budget, each summing to <= 1.
struct ResourceDistribution {
  std::vector<double> c_frac;
  std::vector<double> m_frac;
  std::vector<double> bw_frac;

  /// Branch j's absolute slice of `budget`.
  ResourceBudget slice(const ResourceBudget& budget, int branch) const;
};

/// Size metrics of the dynamic design space (for reports/tests): number of
/// configurable dimensions and a log10 estimate of the discrete
/// configuration count.
struct DesignSpaceStats {
  int branches = 0;
  int stages = 0;
  /// The customization (datapath) axis, plus batch per branch, plus 3
  /// factors per stage.
  int dimensions = 0;
  double log10_configs = 0;  ///< log10 of prod over stages of |divisor triples|
};

DesignSpaceStats design_space_stats(const arch::ReorganizedModel& model,
                                    int max_batch = 8);

}  // namespace fcad::dse
