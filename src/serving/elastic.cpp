#include "serving/elastic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "serving/engine.hpp"
#include "serving/spec_grammar.hpp"
#include "serving/stats.hpp"

namespace fcad::serving {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fair contiguous split of `total` over `bins`: floor(total/bins) each,
/// remainder to the low bins — the static fleet's instance partition.
std::vector<int> fair_split(int total, int bins) {
  std::vector<int> counts(static_cast<std::size_t>(bins));
  const int base = total / bins;
  const int extra = total % bins;
  for (int s = 0; s < bins; ++s) {
    counts[static_cast<std::size_t>(s)] = base + (s < extra ? 1 : 0);
  }
  return counts;
}

}  // namespace

// Every range check below is written so that NaN fails it: a NaN compares
// false both ways, so `!(x >= lo)` rejects it where `x < lo` would not.
Status validate_elastic(const ElasticSpec& spec) {
  if (spec.autoscale_enabled()) {
    const AutoscaleSpec& a = spec.autoscale;
    if (!(a.low_watermark > 0 && a.high_watermark > a.low_watermark &&
          a.high_watermark <= 1)) {
      return Status::invalid_argument(
          "elastic: watermarks need 0 < low < high <= 1");
    }
    if (a.min_instances < 1) {
      return Status::invalid_argument("elastic: min_instances must be >= 1");
    }
    if (a.min_instances > a.max_instances) {
      return Status::invalid_argument(
          "elastic: min_instances must be <= max_instances");
    }
    if (!(a.cooldown_us >= 0) || !std::isfinite(a.cooldown_us)) {
      return Status::invalid_argument(
          "elastic: scale cooldown_us must be finite and >= 0");
    }
  }
  // A NaN fraction reads as "disabled" to reshard_enabled(); validate it
  // anyway so it errors instead of silently dropping the policy.
  if (spec.reshard_enabled() || std::isnan(spec.reshard.p99_fraction)) {
    const ReshardSpec& r = spec.reshard;
    if (!std::isfinite(r.p99_fraction)) {
      return Status::invalid_argument("elastic: reshard frac must be finite");
    }
    if (r.window < 1) {
      return Status::invalid_argument("elastic: reshard window must be >= 1");
    }
    if (r.max_cells < 2) {
      return Status::invalid_argument(
          "elastic: max_cells must be >= 2 (a one-cell cap can never split)");
    }
    if (!(r.cooldown_us >= 0) || !std::isfinite(r.cooldown_us)) {
      return Status::invalid_argument(
          "elastic: reshard cooldown_us must be finite and >= 0");
    }
  }
  // Both layers evaluate on the autoscale window cadence.
  if (spec.enabled() &&
      (spec.autoscale.window_us <= 0 ||
       !std::isfinite(spec.autoscale.window_us))) {
    return Status::invalid_argument(
        "elastic: window_us must be positive and finite");
  }
  return Status::ok();
}

std::string elastic_to_string(const ElasticSpec& spec) {
  std::ostringstream out;
  bool first = true;
  if (spec.autoscale_enabled()) {
    const AutoscaleSpec& a = spec.autoscale;
    out << "scale:max=" << a.max_instances
        << ",high=" << format_spec_number(a.high_watermark)
        << ",low=" << format_spec_number(a.low_watermark)
        << ",window_us=" << format_spec_number(a.window_us)
        << ",cooldown_us=" << format_spec_number(a.cooldown_us)
        << ",min=" << a.min_instances;
    first = false;
  }
  if (spec.reshard_enabled()) {
    const ReshardSpec& r = spec.reshard;
    if (!first) out << ";";
    out << "reshard:frac=" << format_spec_number(r.p99_fraction)
        << ",window=" << r.window
        << ",cooldown_us=" << format_spec_number(r.cooldown_us)
        << ",cells=" << r.max_cells;
    first = false;
  }
  if (first) return "none";
  return out.str();
}

StatusOr<ElasticSpec> elastic_from_string(const std::string& text) {
  auto clauses = parse_spec_clauses("elastic", text);
  if (!clauses.is_ok()) return clauses.status();
  ElasticSpec spec;
  for (SpecClause& clause : *clauses) {
    for (const auto& [key, value] : clause.values) {
      if (!std::isfinite(value)) {
        return clause.error(clause.kind + " " + key + " must be finite");
      }
    }
    if (clause.kind == "scale") {
      AutoscaleSpec a;
      auto max = clause.take_int("max", &a.max_instances);
      if (!max.is_ok()) return max.status();
      if (!*max) return clause.error("scale needs max=");
      // max <= 0 is how a spec says "no autoscaler"; a clause that asks for
      // one must not silently vanish.
      if (a.max_instances < 1) return clause.error("scale max must be >= 1");
      clause.take("high", &a.high_watermark);
      clause.take("low", &a.low_watermark);
      clause.take("window_us", &a.window_us);
      clause.take("cooldown_us", &a.cooldown_us);
      if (auto s = clause.take_int("min", &a.min_instances); !s.is_ok()) {
        return s.status();
      }
      spec.autoscale = a;
    } else if (clause.kind == "reshard") {
      ReshardSpec r;
      if (!clause.take("frac", &r.p99_fraction)) {
        return clause.error("reshard needs frac=");
      }
      // Likewise frac <= 0 would read as "no resharding".
      if (!(r.p99_fraction > 0)) {
        return clause.error("reshard frac must be > 0");
      }
      if (auto s = clause.take_int("window", &r.window); !s.is_ok()) {
        return s.status();
      }
      clause.take("cooldown_us", &r.cooldown_us);
      if (auto s = clause.take_int("cells", &r.max_cells); !s.is_ok()) {
        return s.status();
      }
      spec.reshard = r;
    } else {
      return clause.error("unknown clause kind '" + clause.kind + "'");
    }
    if (Status s = clause.finish(); !s.is_ok()) return s;
  }
  if (Status s = validate_elastic(spec); !s.is_ok()) return s;
  return spec;
}

RollingP99Window::RollingP99Window(int window)
    : ring_(static_cast<std::size_t>(std::max(1, window)), 0.0) {}

void RollingP99Window::add(double value) {
  ring_[next_] = value;
  next_ = (next_ + 1) % ring_.size();
  ++count_;
  dirty_ = true;
}

double RollingP99Window::p99() const {
  if (count_ == 0) return 0;
  if (dirty_) {
    const std::size_t n =
        std::min<std::size_t>(static_cast<std::size_t>(count_), ring_.size());
    p99_ = percentile(
        {ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(n)}, 99);
    dirty_ = false;
  }
  return p99_;
}

StatusOr<std::vector<ShardElasticPlan>> plan_elastic_shards(
    const ElasticSpec& spec, const std::vector<InstanceFault>& faults,
    int instances, int shards) {
  if (spec.autoscale_enabled() && spec.autoscale.max_instances < instances) {
    return Status::invalid_argument(
        "elastic: autoscale.max_instances must be >= fleet instances (the "
        "fleet's instances are the initially active pool)");
  }
  const int provisioned_total =
      spec.autoscale_enabled() ? spec.autoscale.max_instances : instances;
  const std::vector<int> provisioned = fair_split(provisioned_total, shards);
  const std::vector<int> active = fair_split(instances, shards);
  const std::vector<int> floors = fair_split(
      spec.autoscale_enabled()
          ? std::min(spec.autoscale.min_instances, instances)
          : instances,
      shards);
  std::vector<ShardElasticPlan> plans(static_cast<std::size_t>(shards));
  int start = 0;
  for (int s = 0; s < shards; ++s) {
    ShardElasticPlan& plan = plans[static_cast<std::size_t>(s)];
    plan.first_instance = start;
    plan.provisioned = provisioned[static_cast<std::size_t>(s)];
    // Fair splits are monotone in the total, so the active prefix always
    // fits inside the provisioned slice.
    plan.initial_active = active[static_cast<std::size_t>(s)];
    plan.min_active = std::max(1, floors[static_cast<std::size_t>(s)]);
    start += plan.provisioned;
  }
  for (const InstanceFault& fault : faults) {
    if (fault.instance >= provisioned_total) {
      return Status::invalid_argument(
          "scenario: fault instance " + std::to_string(fault.instance) +
          " is outside the provisioned pool of " +
          std::to_string(provisioned_total));
    }
    for (auto& plan : plans) {
      if (fault.instance < plan.first_instance ||
          fault.instance >= plan.first_instance + plan.provisioned) {
        continue;
      }
      const int local = fault.instance - plan.first_instance;
      plan.faults.push_back({fault.fail_s * 1e6, local, true});
      plan.faults.push_back({fault.recover_s * 1e6, local, false});
      break;
    }
  }
  for (auto& plan : plans) {
    // Recovers sort before fails at equal (time, instance), so a
    // back-to-back recover/fail pair never leaves the instance down.
    std::sort(plan.faults.begin(), plan.faults.end(),
              [](const LocalFaultEvent& a, const LocalFaultEvent& b) {
                if (a.t_us != b.t_us) return a.t_us < b.t_us;
                if (a.local_instance != b.local_instance) {
                  return a.local_instance < b.local_instance;
                }
                return !a.fail && b.fail;
              });
  }
  return plans;
}

ElasticController::ElasticController(const ElasticSpec& spec,
                                     const ShardElasticPlan& plan,
                                     double sla_bound_us)
    : spec_(spec),
      plan_(plan),
      sla_bound_us_(sla_bound_us),
      scaled_on_(static_cast<std::size_t>(plan.provisioned), false),
      faulted_(static_cast<std::size_t>(plan.provisioned), false),
      eval_next_us_(spec.enabled() ? spec.autoscale.window_us : kInf),
      p99_window_(spec.reshard.window) {
  for (int k = 0; k < plan.initial_active; ++k) {
    scaled_on_[static_cast<std::size_t>(k)] = true;
  }
}

void ElasticController::tick(FleetEngine& engine, double now_us) {
  while (next_fault_ < plan_.faults.size() &&
         plan_.faults[next_fault_].t_us <= now_us) {
    apply_fault(engine, plan_.faults[next_fault_]);
    ++next_fault_;
  }
  if (now_us >= eval_next_us_) {
    // One evaluation per boundary crossing: the loop may jump far past the
    // boundary in one advance (idle spans), and evaluating once with the
    // actually elapsed span keeps utilization exact and replays identical.
    if (spec_.autoscale_enabled()) evaluate_autoscale(engine, now_us);
    if (spec_.reshard_enabled()) evaluate_reshard(engine, now_us);
    last_eval_us_ = now_us;
    last_busy_us_ = engine.total_busy_us();
    eval_next_us_ = now_us + spec_.autoscale.window_us;
  }
}

double ElasticController::next_event_us(double now_us) const {
  (void)now_us;
  double next = eval_next_us_;
  if (next_fault_ < plan_.faults.size()) {
    next = std::min(next, plan_.faults[next_fault_].t_us);
  }
  return next;
}

void ElasticController::on_complete(double latency_us) {
  if (spec_.reshard_enabled()) p99_window_.add(latency_us);
}

bool ElasticController::can_scale_up() const {
  if (!spec_.autoscale_enabled()) return false;
  for (std::size_t k = 0; k < scaled_on_.size(); ++k) {
    if (!scaled_on_[k] && !faulted_[k]) return true;
  }
  return false;
}

int ElasticController::effective_active() const {
  int active = 0;
  for (std::size_t k = 0; k < scaled_on_.size(); ++k) {
    if (scaled_on_[k] && !faulted_[k]) ++active;
  }
  return active;
}

void ElasticController::apply_fault(FleetEngine& engine,
                                    const LocalFaultEvent& event) {
  const auto k = static_cast<std::size_t>(event.local_instance);
  const bool was_active = scaled_on_[k] && !faulted_[k];
  faulted_[k] = event.fail;
  const bool is_active = scaled_on_[k] && !faulted_[k];
  if (was_active != is_active) {
    engine.set_instance_active(
        event.local_instance, is_active,
        event.fail ? ElasticReason::kFault : ElasticReason::kRecover);
  }
}

void ElasticController::evaluate_autoscale(FleetEngine& engine,
                                           double now_us) {
  const double elapsed_us = now_us - last_eval_us_;
  const int active = effective_active();
  if (elapsed_us <= 0 || active <= 0 || now_us < scale_ready_us_) return;
  const double utilization = (engine.total_busy_us() - last_busy_us_) /
                             (elapsed_us * active);
  if (utilization > spec_.autoscale.high_watermark) {
    // Join the lowest-index instance that is off and healthy.
    for (std::size_t k = 0; k < scaled_on_.size(); ++k) {
      if (scaled_on_[k] || faulted_[k]) continue;
      scaled_on_[k] = true;
      engine.set_instance_active(static_cast<int>(k), true,
                                 ElasticReason::kScaleUp);
      scale_ready_us_ = now_us + spec_.autoscale.cooldown_us;
      return;
    }
  } else if (utilization < spec_.autoscale.low_watermark &&
             active > plan_.min_active) {
    // Retire the highest-index healthy instance; it finishes any batch in
    // flight and then idles.
    for (std::size_t k = scaled_on_.size(); k-- > 0;) {
      if (!scaled_on_[k] || faulted_[k]) continue;
      scaled_on_[k] = false;
      engine.set_instance_active(static_cast<int>(k), false,
                                 ElasticReason::kScaleDown);
      scale_ready_us_ = now_us + spec_.autoscale.cooldown_us;
      return;
    }
  }
}

void ElasticController::evaluate_reshard(FleetEngine& engine,
                                         double now_us) {
  if (now_us < reshard_ready_us_ || !p99_window_.full()) return;
  if (p99_window_.p99() <= spec_.reshard.p99_fraction * sla_bound_us_) {
    return;
  }
  if (engine.num_cells() >= spec_.reshard.max_cells) return;
  if (engine.try_split_cell()) {
    reshard_ready_us_ = now_us + spec_.reshard.cooldown_us;
  }
}

}  // namespace fcad::serving
