#include "dse/spec_hash.hpp"

namespace fcad::dse {
namespace {

void absorb_customization(util::Hash128& h, const Customization& cust) {
  // Registered datapath names are canonical (arch/datapath.hpp), so the
  // name itself identifies the datapath. An unregistered name hashes as its
  // raw string; the run itself rejects it.
  h.absorb_string(cust.datapath);
  h.absorb(cust.batch_sizes.size());
  for (int b : cust.batch_sizes) h.absorb(static_cast<std::uint64_t>(b));
  h.absorb(cust.priorities.size());
  for (double p : cust.priorities) h.absorb_double(p);
}

void absorb_options(util::Hash128& h, const CrossBranchOptions& opt) {
  h.absorb(static_cast<std::uint64_t>(opt.iterations));
  h.absorb(static_cast<std::uint64_t>(opt.population));
  h.absorb(opt.seed);
  h.absorb_double(opt.fitness.alpha);
  h.absorb_double(opt.fitness.infeasible_demerit);
  h.absorb_double(opt.w_local);
  h.absorb_double(opt.w_global);
  h.absorb_double(opt.jitter);
  h.absorb(static_cast<std::uint64_t>(opt.eval_mode));
  // freq_mhz and threads are resolved by the driver (platform / RunControl)
  // and never change results; progress_label is cosmetic. The objective
  // hashes by description — term names and weights.
  h.absorb_string(opt.objective.empty() ? "" : opt.objective.describe());
}

void absorb_traffic(util::Hash128& h, const TrafficSpec& traffic) {
  h.absorb(static_cast<std::uint64_t>(traffic.workload.process));
  h.absorb(static_cast<std::uint64_t>(traffic.workload.users));
  h.absorb(static_cast<std::uint64_t>(traffic.workload.branches));
  h.absorb_double(traffic.workload.frame_rate_hz);
  h.absorb_double(traffic.workload.duration_s);
  h.absorb(traffic.workload.seed);
  h.absorb_double(traffic.workload.burst_on_s);
  h.absorb_double(traffic.workload.burst_off_s);
  h.absorb_double(traffic.workload.burst_factor);
  h.absorb(traffic.workload.trace_arrivals_us.size());
  for (double t : traffic.workload.trace_arrivals_us) h.absorb_double(t);
  h.absorb(static_cast<std::uint64_t>(traffic.workload.target_requests));
  h.absorb(static_cast<std::uint64_t>(traffic.fleet.instances));
  h.absorb(static_cast<std::uint64_t>(traffic.fleet.policy));
  h.absorb_double(traffic.fleet.batch_timeout_us);
  h.absorb_double(traffic.fleet.switch_penalty_us);
  h.absorb_double(traffic.fleet.sla_bound_us);
  // The shard count is part of the serving model (it changes the stats),
  // keep_records changes what a v3 artifact stores, and the latency mode
  // selects the p99 candidates are scored on (exact or sketch); threads, the
  // checkpoint path, and the progress tail percentile are execution details
  // that never affect results.
  h.absorb(static_cast<std::uint64_t>(traffic.fleet.shards));
  h.absorb(static_cast<std::uint64_t>(traffic.fleet.keep_records));
  h.absorb(static_cast<std::uint64_t>(traffic.fleet.latency_mode));
  h.absorb(static_cast<std::uint64_t>(traffic.max_batch));
  h.absorb(static_cast<std::uint64_t>(traffic.max_users));
  h.absorb(static_cast<std::uint64_t>(traffic.use_simulator));
}

}  // namespace

util::Hash128 spec_hash(const SearchSpec& spec) {
  util::Hash128 h;
  h.absorb_string("fcad-search-spec v1");
  h.absorb(static_cast<std::uint64_t>(spec.kind));
  h.absorb_string(spec.strategy.empty() ? kDefaultStrategy : spec.strategy);
  absorb_customization(h, spec.customization);
  absorb_options(h, spec.search);
  h.absorb_string(spec.objective.empty() ? "" : spec.objective.describe());
  switch (spec.kind) {
    case SearchKind::kOptimize:
      break;
    case SearchKind::kTraffic:
      absorb_traffic(h, spec.traffic);
      break;
    case SearchKind::kMaxBatch:
      h.absorb(static_cast<std::uint64_t>(spec.batch_branch));
      h.absorb(static_cast<std::uint64_t>(spec.batch_probe_limit));
      break;
    case SearchKind::kSweep:
      h.absorb(spec.sweep.frequencies_mhz.size());
      for (double f : spec.sweep.frequencies_mhz) h.absorb_double(f);
      h.absorb(spec.sweep.datapaths.size());
      for (const std::string& name : spec.sweep.datapaths) {
        h.absorb_string(name);
      }
      h.absorb(spec.sweep.batch_scales.size());
      for (int s : spec.sweep.batch_scales) {
        h.absorb(static_cast<std::uint64_t>(s));
      }
      break;
    case SearchKind::kConvergence:
      h.absorb(static_cast<std::uint64_t>(spec.convergence_runs));
      break;
  }
  return h;
}

}  // namespace fcad::dse
