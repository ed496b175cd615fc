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

// Term names and exact weights, not describe(): its %g weights would let two
// objectives a few ulps apart share a key. A term's value function cannot be
// hashed; its name stands for it.
void absorb_objective(util::Hash128& h, const Objective& objective) {
  h.absorb(objective.terms().size());
  for (const Objective::Term& term : objective.terms()) {
    h.absorb_string(term.name);
    h.absorb_double(term.weight);
  }
}

void absorb_options(util::Hash128& h, const CrossBranchOptions& opt) {
  h.absorb(static_cast<std::uint64_t>(opt.iterations));
  h.absorb(static_cast<std::uint64_t>(opt.population));
  h.absorb(opt.seed);
  // freq_mhz and threads are resolved by the driver (platform / RunControl)
  // and never change results; progress_label is cosmetic.
  absorb_objective(h, opt.objective);
}

void absorb_traffic(util::Hash128& h, const TrafficSpec& traffic) {
  h.absorb(static_cast<std::uint64_t>(traffic.workload.process));
  h.absorb(static_cast<std::uint64_t>(traffic.workload.users));
  h.absorb(static_cast<std::uint64_t>(traffic.workload.branches));
  h.absorb_double(traffic.workload.frame_rate_hz);
  h.absorb_double(traffic.workload.duration_s);
  h.absorb(traffic.workload.seed);
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
  h.absorb_string("fcad-search-spec v3");
  h.absorb(static_cast<std::uint64_t>(spec.kind));
  h.absorb_string(spec.strategy.empty() ? kDefaultStrategy : spec.strategy);
  absorb_customization(h, spec.customization);
  absorb_options(h, spec.search);
  absorb_objective(h, spec.objective);
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
