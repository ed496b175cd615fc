// Service-time model: how long one batch pass of each decoder branch
// occupies an accelerator instance, derived from the analytical evaluator
// (Eqs. 3-5) or the cycle-level simulator of the searched config.
#pragma once

#include <vector>

#include "arch/evaluate.hpp"
#include "sim/simulator.hpp"

namespace fcad::serving {

/// One branch's serving characteristics on a fixed accelerator config.
struct BranchService {
  int capacity = 1;    ///< requests per pass (replicated pipeline copies)
  double pass_us = 0;  ///< wall time one full pass occupies the instance
};

/// Per-branch service times of one accelerator instance. A pass costs
/// `pass_us` whether or not every pipeline copy is filled — that is the
/// batching trade-off the aggregator's timeout manages.
struct ServiceModel {
  std::vector<BranchService> branches;

  int num_branches() const { return static_cast<int>(branches.size()); }
  std::vector<int> capacities() const;

  /// Saturation throughput of ONE instance under a uniform branch mix (each
  /// branch offered the same request rate r): the instance is a single
  /// server, so it saturates when sum_j r / fps_j reaches 1, i.e. at
  /// B / sum_j(capacity_j / pass_j)^-1 requests/second in total.
  double peak_rps() const;
};

/// Builds the model from the analytical evaluation of `config` (what the
/// DSE scores): branch j serves `batch_j` requests per pass in
/// batch_j / fps_j seconds (BranchEval::fps counts all pipeline copies).
ServiceModel service_model_from_eval(const arch::AcceleratorConfig& config,
                                     const arch::AcceleratorEval& eval);

/// Same, from the cycle-level simulator result (the "board" numbers).
ServiceModel service_model_from_sim(const arch::AcceleratorConfig& config,
                                    const sim::SimResult& result);

}  // namespace fcad::serving
