#include "dse/cross_branch.hpp"

#include "dse/fitness_cache.hpp"
#include "dse/strategy.hpp"

namespace fcad::dse {
namespace {

void normalize_fractions(std::vector<double>& frac) {
  double sum = 0;
  for (double f : frac) sum += f;
  if (sum <= 0) {
    frac.assign(frac.size(), 1.0 / static_cast<double>(frac.size()));
    return;
  }
  for (double& f : frac) f /= sum;
}

}  // namespace

/// Demand-proportional warm start: compute fractions follow each branch's
/// owned MAC work x batch target; memory fractions follow the branch's
/// minimum-parallelism BRAM floor (line buffers and overheads do not shrink
/// with pf, so a branch starved below its floor can never meet its batch
/// target no matter how the search evolves); bandwidth follows stream bytes.
/// Seeding the swarm with this point (and jittered copies) lets the search
/// find the narrow feasible sliver on BRAM-tight cases.
ResourceDistribution demand_proportional_distribution(
    const arch::ReorganizedModel& model, const Customization& cust) {
  const int B = model.num_branches();
  const arch::Datapath dp = cust.resolved_datapath();
  ResourceDistribution rd;
  rd.c_frac.resize(static_cast<std::size_t>(B));
  rd.m_frac.resize(static_cast<std::size_t>(B));
  rd.bw_frac.resize(static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b) {
    const arch::BranchPipeline& br =
        model.branches[static_cast<std::size_t>(b)];
    const double batch =
        static_cast<double>(cust.batch_sizes[static_cast<std::size_t>(b)]);
    double floor_brams = 0;
    double stream_bytes = 0;
    for (int s : br.stages) {
      const arch::FusedStage& stage = model.stage(s);
      arch::UnitStreamContext ctx;
      ctx.reads_external_input =
          model.fused.stage_inputs[static_cast<std::size_t>(s)].empty();
      ctx.writes_external_output =
          !model.fused.stage_outputs[static_cast<std::size_t>(s)].empty();
      const arch::UnitResources res =
          arch::unit_resources(stage, arch::UnitConfig{1, 1, 1}, dp, ctx);
      floor_brams += res.brams;
      stream_bytes += static_cast<double>(res.total_stream_bytes());
    }
    rd.c_frac[static_cast<std::size_t>(b)] =
        static_cast<double>(br.macs_owned) * batch + 1.0;
    rd.m_frac[static_cast<std::size_t>(b)] = floor_brams * batch + 1.0;
    rd.bw_frac[static_cast<std::size_t>(b)] = stream_bytes * batch + 1.0;
  }
  normalize_fractions(rd.c_frac);
  normalize_fractions(rd.m_frac);
  normalize_fractions(rd.bw_frac);
  return rd;
}

DistributionEval evaluate_distribution(const arch::ReorganizedModel& model,
                                       const std::vector<BranchTable>& tables,
                                       const ResourceBudget& budget,
                                       const ResourceDistribution& rd,
                                       const Customization& cust,
                                       const CrossBranchOptions& opt,
                                       SearchTrace& trace,
                                       FitnessCache* cache) {
  FCAD_CHECK(tables.size() == static_cast<std::size_t>(model.num_branches()));
  DistributionEval ce;
  ce.config.datapath = cust.resolved_datapath();
  ce.config.freq_mhz = opt.freq_mhz;
  ce.config.branches.reserve(tables.size());

  int unmet = 0;
  std::uint64_t met_mask = 0;
  for (int b = 0; b < model.num_branches(); ++b) {
    const ResourceBudget slice = rd.slice(budget, b);
    InBranchResult ib = in_branch_optimize(
        tables[static_cast<std::size_t>(b)], slice,
        cust.batch_sizes[static_cast<std::size_t>(b)], opt.freq_mhz);
    ++trace.evaluations;
    if (ib.met_batch_target) {
      met_mask |= std::uint64_t{1} << (b % 64);
    } else {
      ++unmet;
    }
    ce.config.branches.push_back(std::move(ib.config));
  }

  // Nearby distributions quantize to the same discrete config; once one of
  // them has been scored, the rest are cache hits.
  FitnessCache::Key key;
  if (cache) {
    key = FitnessCache::config_key(ce.config, met_mask);
    if (const auto entry = cache->find(key)) {
      ce.fitness = entry->fitness;
      ce.feasible = entry->feasible;
      return ce;
    }
  }

  // Candidates score analytically; the loop re-evaluates its winner quantized.
  const arch::AcceleratorEval eval =
      arch::evaluate(model, ce.config, arch::EvalMode::kAnalytical);
  // A candidate must also respect the global budget once quantization and
  // cross-branch caps are accounted for.
  if (!eval.within(static_cast<int>(budget.c), static_cast<int>(budget.m),
                   budget.bw, static_cast<int>(budget.l))) {
    ++unmet;
  }
  ce.fitness =
      opt.objective.score(objective_input(eval, cust.priorities, unmet));
  ce.feasible = unmet == 0;
  if (cache) cache->insert(key, {ce.fitness, ce.feasible});
  return ce;
}

SearchResult cross_branch_search(const arch::ReorganizedModel& model,
                                 const ResourceBudget& budget,
                                 const Customization& customization,
                                 const CrossBranchOptions& options,
                                 const RunScope* scope) {
  auto result = run_search_strategy(kDefaultStrategy, model, budget,
                                    customization, options, scope);
  FCAD_CHECK_MSG(result.is_ok(), result.status().message());
  return std::move(result).value();
}

}  // namespace fcad::dse
