#include "serving/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "serving/spec_grammar.hpp"
#include "serving/stream.hpp"

namespace fcad::serving {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

int ScenarioSpec::extra_users() const {
  int total = 0;
  for (const auto& f : flash) total += f.extra_users;
  return total;
}

// Every range check below is written so that NaN fails it: a NaN compares
// false both ways, so `!(x >= lo)` rejects it where `x < lo` would not.
Status validate_scenario(const ScenarioSpec& spec) {
  if (!std::isfinite(spec.diurnal.period_s)) {
    return Status::invalid_argument("scenario: diurnal period must be finite");
  }
  if (spec.diurnal.period_s > 0) {
    if (!(spec.diurnal.amplitude >= 0 && spec.diurnal.amplitude < 1)) {
      return Status::invalid_argument(
          "scenario: diurnal amp must be in [0, 1)");
    }
    if (!(spec.diurnal.phase >= 0 && spec.diurnal.phase < 1)) {
      return Status::invalid_argument(
          "scenario: diurnal phase must be in [0, 1)");
    }
  }
  for (const auto& f : spec.flash) {
    if (!(f.start_s >= 0 && f.end_s > f.start_s)) {
      return Status::invalid_argument(
          "scenario: flash window needs end > start >= 0");
    }
    if (!std::isfinite(f.end_s)) {
      return Status::invalid_argument("scenario: flash end must be finite");
    }
    if (!(f.rate_multiplier > 0) || !std::isfinite(f.rate_multiplier)) {
      return Status::invalid_argument(
          "scenario: flash rate must be finite and > 0");
    }
    if (f.extra_users < 0) {
      return Status::invalid_argument("scenario: flash users must be >= 0");
    }
    if (f.rate_multiplier == 1 && f.extra_users == 0) {
      return Status::invalid_argument(
          "scenario: flash window has no effect (rate=1, users=0)");
    }
  }
  for (const auto& c : spec.churn) {
    if (c.user < 0) {
      return Status::invalid_argument("scenario: churn user must be >= 0");
    }
    if (!(c.join_s >= 0 && c.leave_s > c.join_s)) {
      return Status::invalid_argument(
          "scenario: churn needs leave > join >= 0");
    }
  }
  for (const auto& fault : spec.faults) {
    if (fault.instance < 0) {
      return Status::invalid_argument(
          "scenario: fault instance must be >= 0");
    }
    // Rejecting non-recovering faults up front guarantees a shard can
    // never lose its whole instance slice forever and stall the replay.
    if (!(fault.fail_s >= 0 && fault.recover_s > fault.fail_s) ||
        !std::isfinite(fault.recover_s)) {
      return Status::invalid_argument(
          "scenario: fault needs finite recover > fail >= 0");
    }
  }
  return Status::ok();
}

double scenario_rate_multiplier(const ScenarioSpec& spec, double t_us) {
  const double t_s = t_us * 1e-6;
  double mult = 1.0;
  if (spec.diurnal.period_s > 0) {
    mult *= 1.0 + spec.diurnal.amplitude *
                      std::sin(2.0 * kPi *
                               (t_s / spec.diurnal.period_s +
                                spec.diurnal.phase));
  }
  for (const auto& f : spec.flash) {
    if (t_s >= f.start_s && t_s < f.end_s) mult *= f.rate_multiplier;
  }
  return mult;
}

std::string scenario_to_string(const ScenarioSpec& spec) {
  std::ostringstream out;
  bool first = true;
  auto clause = [&](const std::string& text) {
    if (!first) out << ";";
    out << text;
    first = false;
  };
  if (spec.diurnal.period_s > 0) {
    clause("diurnal:period=" + format_spec_number(spec.diurnal.period_s) +
           ",amp=" + format_spec_number(spec.diurnal.amplitude) +
           ",phase=" + format_spec_number(spec.diurnal.phase));
  }
  for (const auto& f : spec.flash) {
    clause("flash:start=" + format_spec_number(f.start_s) +
           ",end=" + format_spec_number(f.end_s) +
           ",rate=" + format_spec_number(f.rate_multiplier) +
           ",users=" + std::to_string(f.extra_users));
  }
  for (const auto& c : spec.churn) {
    clause("churn:user=" + std::to_string(c.user) +
           ",join=" + format_spec_number(c.join_s) +
           ",leave=" + format_spec_number(c.leave_s));
  }
  for (const auto& fault : spec.faults) {
    clause("fault:instance=" + std::to_string(fault.instance) +
           ",fail=" + format_spec_number(fault.fail_s) +
           ",recover=" + format_spec_number(fault.recover_s));
  }
  if (first) return "none";
  return out.str();
}

StatusOr<ScenarioSpec> scenario_from_string(const std::string& text) {
  auto clauses = parse_spec_clauses("scenario", text);
  if (!clauses.is_ok()) return clauses.status();
  ScenarioSpec spec;
  for (SpecClause& clause : *clauses) {
    if (clause.kind == "diurnal") {
      DiurnalSpec d;
      if (!clause.take("period", &d.period_s)) {
        return clause.error("diurnal needs period=");
      }
      // A non-positive period is how a spec says "no diurnal shape"; a
      // clause that asks for one must not silently vanish.
      if (!(d.period_s > 0)) {
        return clause.error("diurnal period must be > 0");
      }
      clause.take("amp", &d.amplitude);
      clause.take("phase", &d.phase);
      spec.diurnal = d;
    } else if (clause.kind == "flash") {
      FlashCrowdSpec f;
      if (!clause.take("start", &f.start_s) || !clause.take("end", &f.end_s)) {
        return clause.error("flash needs start=,end=");
      }
      clause.take("rate", &f.rate_multiplier);
      if (auto s = clause.take_int("users", &f.extra_users); !s.is_ok()) {
        return s.status();
      }
      spec.flash.push_back(f);
    } else if (clause.kind == "churn") {
      ChurnEvent c;
      auto user = clause.take_int("user", &c.user);
      if (!user.is_ok()) return user.status();
      if (!*user) return clause.error("churn needs user=");
      clause.take("join", &c.join_s);
      clause.take("leave", &c.leave_s);
      spec.churn.push_back(c);
    } else if (clause.kind == "fault") {
      InstanceFault fault;
      auto instance = clause.take_int("instance", &fault.instance);
      if (!instance.is_ok()) return instance.status();
      if (!*instance || !clause.take("fail", &fault.fail_s) ||
          !clause.take("recover", &fault.recover_s)) {
        return clause.error("fault needs instance=,fail=,recover=");
      }
      spec.faults.push_back(fault);
    } else {
      return clause.error("unknown clause kind '" + clause.kind + "'");
    }
    if (Status s = clause.finish(); !s.is_ok()) return s;
  }
  if (Status s = validate_scenario(spec); !s.is_ok()) return s;
  return spec;
}

StatusOr<std::vector<Request>> generate_scenario_workload(
    const WorkloadOptions& options, const ScenarioSpec& spec) {
  // The pull-based stream (stream.cpp) is the single copy of the shaped
  // generator — thinning, churn windows, flash users, heap merge, and the
  // branch fan-out all live there; this entry point just drains it.
  auto stream = make_request_stream(options, spec);
  if (!stream.is_ok()) return stream.status();
  return drain_request_stream(**stream, options.target_requests);
}

}  // namespace fcad::serving
