#include "dse/design_space.hpp"

#include <cmath>

namespace fcad::dse {
namespace {

int count_divisors(int n) {
  int count = 0;
  for (int d = 1; d * d <= n; ++d) {
    if (n % d == 0) count += (d == n / d) ? 1 : 2;
  }
  return count;
}

}  // namespace

Status Customization::normalize(int num_branches) {
  if (num_branches <= 0) {
    return Status::invalid_argument("customization: no branches");
  }
  if (batch_sizes.empty()) {
    batch_sizes.assign(static_cast<std::size_t>(num_branches), 1);
  }
  if (priorities.empty()) {
    priorities.assign(static_cast<std::size_t>(num_branches), 1.0);
  }
  if (batch_sizes.size() != static_cast<std::size_t>(num_branches)) {
    return Status::invalid_argument("customization: batch_sizes arity != B");
  }
  if (priorities.size() != static_cast<std::size_t>(num_branches)) {
    return Status::invalid_argument("customization: priorities arity != B");
  }
  for (int b : batch_sizes) {
    if (b < 1) return Status::invalid_argument("batch sizes must be >= 1");
  }
  for (std::size_t j = 0; j < priorities.size(); ++j) {
    if (priorities[j] <= 0) {
      return Status::invalid_argument(
          "customization: priority must be > 0 (branch " + std::to_string(j) +
          ")");
    }
  }
  if (auto dp = arch::datapath_from_string(datapath); !dp.is_ok()) {
    return Status::invalid_argument("customization: " +
                                    dp.status().message());
  }
  return Status::ok();
}

arch::Datapath Customization::resolved_datapath() const {
  auto dp = arch::datapath_from_string(datapath);
  FCAD_CHECK_MSG(dp.is_ok(), dp.status().message());
  return *dp;
}

ResourceBudget ResourceDistribution::slice(const ResourceBudget& budget,
                                           int branch) const {
  const auto b = static_cast<std::size_t>(branch);
  FCAD_CHECK(b < c_frac.size() && b < m_frac.size() && b < bw_frac.size());
  // The LUT capacity rides the compute fraction (see ResourceBudget).
  return {budget.c * c_frac[b], budget.m * m_frac[b], budget.bw * bw_frac[b],
          budget.l * c_frac[b]};
}

DesignSpaceStats design_space_stats(const arch::ReorganizedModel& model,
                                    int max_batch) {
  DesignSpaceStats stats;
  stats.branches = model.num_branches();
  // The global customization axis: one datapath (precision x MAC style) per
  // design, chosen from the registry.
  stats.dimensions += 1;
  stats.log10_configs += std::log10(
      static_cast<double>(arch::registered_datapaths().size()));
  for (const arch::BranchPipeline& br : model.branches) {
    stats.stages += static_cast<int>(br.stages.size());
    stats.dimensions += 1;  // batchsize_j
    stats.log10_configs += std::log10(static_cast<double>(max_batch));
    for (int s : br.stages) {
      const arch::FusedStage& stage = model.stage(s);
      stats.dimensions += 3;  // cpf, kpf, h
      const double combos =
          static_cast<double>(count_divisors(stage.max_cpf())) *
          count_divisors(stage.max_kpf()) * count_divisors(stage.max_h());
      stats.log10_configs += std::log10(combos);
    }
  }
  return stats;
}

}  // namespace fcad::dse
