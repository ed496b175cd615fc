#include "dse/in_branch.hpp"

#include <algorithm>
#include <cmath>

namespace fcad::dse {

std::size_t BranchTable::Stage::lookup(std::int64_t pf_target) const {
  FCAD_CHECK(pf_target >= 1);
  const auto it = std::lower_bound(lanes.begin(), lanes.end(), pf_target);
  // A target beyond the largest lane count clamps to it, as get_pf does.
  if (it == lanes.end()) return lanes.size() - 1;
  return static_cast<std::size_t>(it - lanes.begin());
}

BranchTable build_branch_table(const arch::ReorganizedModel& model,
                               int branch, const arch::Datapath& dp) {
  FCAD_CHECK(branch >= 0 && branch < model.num_branches());
  const arch::BranchPipeline& br =
      model.branches[static_cast<std::size_t>(branch)];
  BranchTable table;
  table.stages.reserve(br.stages.size());
  // Lines 4-7: layer-wise compute demand and data-reuse characteristics,
  // plus every configuration GetPF (line 15) can return for the stage.
  for (int s : br.stages) {
    const arch::FusedStage& stage = model.stage(s);
    arch::UnitStreamContext ctx;
    ctx.reads_external_input =
        model.fused.stage_inputs[static_cast<std::size_t>(s)].empty();
    ctx.writes_external_output =
        !model.fused.stage_outputs[static_cast<std::size_t>(s)].empty();

    const std::vector<arch::LaneEntry>& entries = arch::lane_entries(stage);
    FCAD_CHECK(!entries.empty() && entries.front().lanes == 1);
    BranchTable::Stage& t = table.stages.emplace_back();
    t.ops = static_cast<double>(stage.macs);
    t.max_lanes = arch::max_lanes(stage);
    t.lanes.reserve(entries.size());
    t.configs.reserve(entries.size());
    t.resources.reserve(entries.size());
    t.cycles.reserve(entries.size());
    for (const arch::LaneEntry& e : entries) {
      t.lanes.push_back(e.lanes);
      t.configs.push_back(e.cfg);
      t.resources.push_back(arch::unit_resources(stage, e.cfg, dp, ctx));
      t.cycles.push_back(arch::cycles_analytical(stage, e.cfg, dp));
    }
    // The first entry is the (1,1,1) unit: its traffic is the stage's
    // unit-parallelism stream demand.
    t.stream_bytes =
        static_cast<double>(t.resources.front().total_stream_bytes());
  }
  return table;
}

std::vector<BranchTable> build_branch_tables(
    const arch::ReorganizedModel& model, const arch::Datapath& dp) {
  std::vector<BranchTable> tables;
  tables.reserve(static_cast<std::size_t>(model.num_branches()));
  for (int b = 0; b < model.num_branches(); ++b) {
    tables.push_back(build_branch_table(model, b, dp));
  }
  return tables;
}

InBranchResult in_branch_optimize(const arch::ReorganizedModel& model,
                                  int branch, const ResourceBudget& rd,
                                  int batch_target, const arch::Datapath& dp,
                                  double freq_mhz) {
  return in_branch_optimize(build_branch_table(model, branch, dp), rd,
                            batch_target, freq_mhz);
}

InBranchResult in_branch_optimize(const BranchTable& table,
                                  const ResourceBudget& rd, int batch_target,
                                  double freq_mhz) {
  FCAD_CHECK(batch_target >= 1);
  const std::vector<BranchTable::Stage>& demands = table.stages;
  const double freq_hz = freq_mhz * 1e6;
  const double bw_bytes = rd.bw * 1e9;

  InBranchResult result;
  result.config.batch = 1;
  if (demands.empty()) {
    // Branch owns nothing (fully shared into another branch); trivially met.
    result.met_batch_target = true;
    result.config.batch = batch_target;
    return result;
  }

  // Lines 8-12: most optimistic parallelism targets that just exhaust the
  // allocated bandwidth. norm_param_k = bytes/op (GetReuse); the closed form
  // reduces to pf_k = BW * op_k / (freq * sum bytes).
  double op_min = demands[0].ops;
  for (const BranchTable::Stage& d : demands) {
    op_min = std::min(op_min, std::max(d.ops, 1.0));
  }
  op_min = std::max(op_min, 1.0);
  double norm_bw = 0;  // bytes/s at unit parallelism scale
  for (const BranchTable::Stage& d : demands) {
    const double norm_param = d.stream_bytes / std::max(d.ops, 1.0);
    norm_bw += (d.ops / op_min) * norm_param * freq_hz;
  }

  std::vector<std::int64_t> pf(demands.size(), 1);
  for (std::size_t k = 0; k < demands.size(); ++k) {
    const std::int64_t cap = demands[k].max_lanes;
    double target;
    if (norm_bw > 0) {
      target = std::ceil(bw_bytes / norm_bw * (demands[k].ops / op_min));
    } else {
      target = static_cast<double>(cap);  // nothing streams: no BW bound
    }
    pf[k] = std::clamp<std::int64_t>(static_cast<std::int64_t>(target), 1, cap);
  }

  // Lines 13-24: greedy halving until the batch target fits. Each step
  // reads the table entry GetPF picks for every stage.
  std::vector<std::size_t> picked(demands.size(), 0);
  const auto finish = [&](int batch, bool met, double c_sum, double m_sum,
                          double param_bytes, double feature_bytes,
                          double waves_per_s, double max_lat) {
    result.config.batch = batch;
    result.config.units.reserve(demands.size());
    for (std::size_t k = 0; k < demands.size(); ++k) {
      result.config.units.push_back(demands[k].configs[picked[k]]);
    }
    result.met_batch_target = met;
    result.c_used = c_sum * batch;
    result.m_used = m_sum * batch;
    result.bw_used =
        (param_bytes + feature_bytes * batch) * waves_per_s * 1e-9;
    result.bottleneck_cycles = max_lat;
  };
  while (true) {
    double c_sum = 0;
    double l_sum = 0;
    double m_sum = 0;
    double param_bytes = 0;
    double feature_bytes = 0;
    double max_lat = 0;
    for (std::size_t k = 0; k < demands.size(); ++k) {
      const BranchTable::Stage& d = demands[k];
      picked[k] = d.lookup(pf[k]);
      const arch::UnitResources& res = d.resources[picked[k]];
      c_sum += res.dsps;
      l_sum += res.luts;
      m_sum += res.brams;
      param_bytes += static_cast<double>(res.param_stream_bytes);
      feature_bytes += static_cast<double>(res.feature_stream_bytes);
      max_lat = std::max(max_lat, d.cycles[picked[k]]);
    }

    // Line 18: how many pipeline copies fit the slice. Parameters are
    // broadcast to lock-stepped copies, features scale per copy.
    const double waves_per_s = max_lat > 0 ? freq_hz / max_lat : 0.0;
    // The compute bound comes from whichever fabric the datapath multiplies
    // on: DSP slices, fabric LUTs (lut_multipliers()), or neither (no
    // compute streams: unbounded, like batch_bw below).
    double batch_c = static_cast<double>(batch_target);
    if (c_sum > 0) batch_c = std::min(batch_c, rd.c / c_sum);
    if (l_sum > 0) batch_c = std::min(batch_c, rd.l / l_sum);
    double batch_m = m_sum > 0 ? rd.m / m_sum : 0.0;
    double batch_bw = static_cast<double>(batch_target);
    if (feature_bytes * waves_per_s > 0) {
      batch_bw = (bw_bytes - param_bytes * waves_per_s) /
                 (feature_bytes * waves_per_s);
    } else if (param_bytes * waves_per_s > bw_bytes) {
      batch_bw = 0;
    }
    const double batch_f = std::min({batch_c, batch_m, batch_bw});
    const int batch = static_cast<int>(std::floor(batch_f));

    if (batch < batch_target) {
      // Line 20: halve the targets and retry, unless already minimal.
      bool can_halve = false;
      for (std::int64_t p : pf) can_halve = can_halve || p > 1;
      if (!can_halve) {
        finish(std::max(batch, 1), false, c_sum, m_sum, param_bytes,
               feature_bytes, waves_per_s, max_lat);
        return result;
      }
      for (std::int64_t& p : pf) p = std::max<std::int64_t>(1, p / 2);
      ++result.halvings;
      continue;
    }

    // Line 22: clamp to the requested batch and stop.
    finish(batch_target, true, c_sum, m_sum, param_bytes, feature_bytes,
           waves_per_s, max_lat);
    return result;
  }
}

}  // namespace fcad::dse
