// Scenario-generator suite (serving step 8a): deterministic workload
// shaping — diurnal drift, flash crowds, churn, fault schedules — must be a
// pure function of (options, spec), reduce to the base generator when no
// clause shapes arrivals, and reject every malformed spec at the boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "serving/scenario.hpp"
#include "serving/workload.hpp"

namespace fcad::serving {
namespace {

WorkloadOptions base_options() {
  WorkloadOptions wl;
  wl.users = 4;
  wl.branches = 2;
  wl.frame_rate_hz = 30;
  wl.duration_s = 3.0;
  wl.seed = 77;
  return wl;
}

ScenarioSpec composed_spec() {
  ScenarioSpec spec;
  spec.diurnal.period_s = 2.0;
  spec.diurnal.amplitude = 0.5;
  FlashCrowdSpec flash;
  flash.start_s = 1.0;
  flash.end_s = 2.0;
  flash.rate_multiplier = 2.0;
  flash.extra_users = 2;
  spec.flash.push_back(flash);
  ChurnEvent churn;
  churn.user = 1;
  churn.join_s = 0.5;
  churn.leave_s = 2.5;
  spec.churn.push_back(churn);
  return spec;
}

void expect_same_trace(const std::vector<Request>& a,
                       const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].branch, b[i].branch);
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
  }
}

TEST(ScenarioTest, TrivialSpecMatchesBaseGeneratorBitExactly) {
  // An empty scenario must not even perturb the RNG consumption pattern:
  // the thinning path is bypassed entirely and the trace is the base
  // generator's, byte for byte.
  const WorkloadOptions wl = base_options();
  auto base = generate_workload(wl);
  ASSERT_TRUE(base.is_ok());
  auto shaped = generate_scenario_workload(wl, ScenarioSpec{});
  ASSERT_TRUE(shaped.is_ok());
  expect_same_trace(*base, *shaped);
}

TEST(ScenarioTest, FaultOnlySpecLeavesArrivalsUntouched) {
  // A fault schedule changes the fleet, never the trace.
  const WorkloadOptions wl = base_options();
  ScenarioSpec spec;
  InstanceFault fault;
  fault.instance = 0;
  fault.fail_s = 1.0;
  fault.recover_s = 2.0;
  spec.faults.push_back(fault);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(spec.shapes_arrivals());
  auto base = generate_workload(wl);
  ASSERT_TRUE(base.is_ok());
  auto shaped = generate_scenario_workload(wl, spec);
  ASSERT_TRUE(shaped.is_ok());
  expect_same_trace(*base, *shaped);
}

TEST(ScenarioTest, ComposedScenarioMatchesGolden) {
  // Pinned output of the composed diurnal+flash+churn generator at seed 77
  // (captured at introduction). A change here means the seeded draw order
  // changed — a reproducibility break, not a tolerable drift.
  auto trace = generate_scenario_workload(base_options(), composed_spec());
  ASSERT_TRUE(trace.is_ok());
  ASSERT_EQ(trace->size(), 1104u);
  EXPECT_EQ((*trace)[0].id, 0);
  EXPECT_EQ((*trace)[0].user, 2);
  EXPECT_EQ((*trace)[0].branch, 0);
  EXPECT_EQ((*trace)[0].arrival_us, 16659.257986970755);
  EXPECT_EQ((*trace)[1].id, 1);
  EXPECT_EQ((*trace)[1].user, 2);
  EXPECT_EQ((*trace)[1].branch, 1);
  EXPECT_EQ((*trace)[1].arrival_us, 16659.257986970755);
  EXPECT_EQ((*trace)[2].id, 2);
  EXPECT_EQ((*trace)[2].user, 2);
  EXPECT_EQ((*trace)[2].branch, 0);
  EXPECT_EQ((*trace)[2].arrival_us, 19125.89822731457);
  EXPECT_EQ(trace->back().id, 1103);
  EXPECT_EQ(trace->back().user, 0);
  EXPECT_EQ(trace->back().branch, 1);
  EXPECT_EQ(trace->back().arrival_us, 2996030.723373807);
  double sum = 0;
  for (const Request& r : *trace) sum += r.arrival_us;
  EXPECT_EQ(sum, 1664015915.2813795);
}

TEST(ScenarioTest, GenerationIsRepeatable) {
  auto a = generate_scenario_workload(base_options(), composed_spec());
  auto b = generate_scenario_workload(base_options(), composed_spec());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  expect_same_trace(*a, *b);
}

TEST(ScenarioTest, StringRoundTripIsStable) {
  const ScenarioSpec spec = composed_spec();
  const std::string text = scenario_to_string(spec);
  EXPECT_EQ(text,
            "diurnal:period=2,amp=0.5,phase=0;"
            "flash:start=1,end=2,rate=2,users=2;"
            "churn:user=1,join=0.5,leave=2.5");
  auto parsed = scenario_from_string(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(scenario_to_string(*parsed), text);

  auto none = scenario_from_string("none");
  ASSERT_TRUE(none.is_ok());
  EXPECT_FALSE(none->enabled());
  EXPECT_EQ(scenario_to_string(*none), "none");

  ScenarioSpec faulty;
  InstanceFault fault;
  fault.instance = 3;
  fault.fail_s = 1.5;
  fault.recover_s = 4.0;
  faulty.faults.push_back(fault);
  auto fault_rt = scenario_from_string(scenario_to_string(faulty));
  ASSERT_TRUE(fault_rt.is_ok());
  ASSERT_EQ(fault_rt->faults.size(), 1u);
  EXPECT_EQ(fault_rt->faults[0].instance, 3);
  EXPECT_EQ(fault_rt->faults[0].fail_s, 1.5);
  EXPECT_EQ(fault_rt->faults[0].recover_s, 4.0);
}

TEST(ScenarioTest, ValidationRejectsMalformedSpecs) {
  const WorkloadOptions wl = base_options();
  {
    ScenarioSpec s;
    s.diurnal.period_s = 1.0;
    s.diurnal.amplitude = 1.0;  // rate would hit zero: rejected
    EXPECT_EQ(generate_scenario_workload(wl, s).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    ScenarioSpec s;
    FlashCrowdSpec f;
    f.start_s = 2.0;
    f.end_s = 1.0;  // end <= start
    f.rate_multiplier = 2.0;
    s.flash.push_back(f);
    EXPECT_EQ(generate_scenario_workload(wl, s).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    ScenarioSpec s;
    FlashCrowdSpec f;  // rate 1, users 0: a window with no effect
    f.start_s = 0.5;
    f.end_s = 1.0;
    s.flash.push_back(f);
    EXPECT_EQ(generate_scenario_workload(wl, s).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    ScenarioSpec s;
    ChurnEvent c;
    c.user = 0;
    c.join_s = 2.0;
    c.leave_s = 1.0;  // leave <= join
    s.churn.push_back(c);
    EXPECT_EQ(generate_scenario_workload(wl, s).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    ScenarioSpec s;
    InstanceFault f;
    f.instance = 0;
    f.fail_s = 2.0;
    f.recover_s = 2.0;  // recover must be strictly after fail
    s.faults.push_back(f);
    EXPECT_EQ(generate_scenario_workload(wl, s).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(scenario_from_string("flash:start=0,end=1,rate=2,bogus=1")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scenario_from_string("tide:high=1").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScenarioTest, NonFiniteAndOutOfRangeFieldsAreRejected) {
  // Each text asks for a shape the parser cannot honour; it must error and
  // name the offending field, never drop the clause silently.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"diurnal:period=nan,amp=0.4", "period"},
      {"diurnal:period=inf,amp=0.4", "period"},
      {"diurnal:period=0,amp=0.4", "period"},
      {"diurnal:period=-5,amp=0.4", "period"},
      {"diurnal:period=10,amp=nan", "amp"},
      {"diurnal:period=10,amp=0.4,phase=nan", "phase"},
      {"flash:start=nan,end=2,rate=2", "start"},
      {"flash:start=0,end=nan,rate=2", "end"},
      {"flash:start=0,end=inf,rate=2", "end"},
      {"flash:start=0,end=2,rate=nan", "rate"},
      {"flash:start=0,end=2,rate=inf", "rate"},
      {"flash:start=0,end=2,users=nan", "users"},
      {"flash:start=0,end=2,users=1.5", "users"},
      {"flash:start=0,end=2,users=1e12", "users"},
      {"churn:user=nan,join=0,leave=1", "user"},
      {"churn:user=1,join=nan,leave=1", "join"},
      {"churn:user=1,join=0,leave=nan", "leave"},
      {"fault:instance=nan,fail=0,recover=1", "instance"},
      {"fault:instance=0,fail=nan,recover=1", "fail"},
      {"fault:instance=0,fail=0,recover=nan", "recover"},
      {"fault:instance=0,fail=0,recover=inf", "recover"},
  };
  for (const auto& [text, field] : bad) {
    auto parsed = scenario_from_string(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find(field), std::string::npos)
        << text << " -> " << parsed.status().message();
  }

  // The struct-level validator is NaN-safe too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScenarioSpec diurnal;
  diurnal.diurnal.period_s = nan;
  EXPECT_EQ(validate_scenario(diurnal).code(), StatusCode::kInvalidArgument);
  ScenarioSpec flash;
  flash.flash.push_back({0, 1, nan, 0});
  EXPECT_EQ(validate_scenario(flash).code(), StatusCode::kInvalidArgument);
  ScenarioSpec churn;
  churn.churn.push_back({0, nan, 1});
  EXPECT_EQ(validate_scenario(churn).code(), StatusCode::kInvalidArgument);
  ScenarioSpec fault;
  fault.faults.push_back({0, nan, 1});
  EXPECT_EQ(validate_scenario(fault).code(), StatusCode::kInvalidArgument);

  // The canonical default churn leave is +inf, which stays legal.
  EXPECT_TRUE(scenario_from_string("churn:user=1,join=0,leave=inf").is_ok());
}

TEST(ScenarioTest, RateMultiplierComposesClauses) {
  ScenarioSpec s = composed_spec();
  // Diurnal sine at t=0 is exactly 1; inside the flash window the step
  // multiplier stacks on top of it; the window is half-open at the end.
  EXPECT_EQ(scenario_rate_multiplier(ScenarioSpec{}, 0.0), 1.0);
  EXPECT_EQ(scenario_rate_multiplier(s, 0.0), 1.0);
  const double quarter = 0.5e6;  // period 2 s: sine peak at t = 0.5 s
  EXPECT_NEAR(scenario_rate_multiplier(s, quarter), 1.5, 1e-12);
  const double in_flash = 1.5e6;  // sine trough x flash step
  EXPECT_NEAR(scenario_rate_multiplier(s, in_flash), 0.5 * 2.0, 1e-12);
  EXPECT_NEAR(scenario_rate_multiplier(s, 2.0e6), 1.0, 1e-12)
      << "flash window is half-open: t = end is outside";
}

TEST(ScenarioTest, ChurnBoundsUserActivity) {
  const WorkloadOptions wl = base_options();
  ScenarioSpec s;
  ChurnEvent c;
  c.user = 1;
  c.join_s = 0.5;
  c.leave_s = 2.5;
  s.churn.push_back(c);
  auto trace = generate_scenario_workload(wl, s);
  ASSERT_TRUE(trace.is_ok());
  bool saw_user = false;
  for (const Request& r : *trace) {
    if (r.user != 1) continue;
    saw_user = true;
    EXPECT_GE(r.arrival_us, 0.5e6);
    EXPECT_LT(r.arrival_us, 2.5e6);
  }
  EXPECT_TRUE(saw_user);
}

TEST(ScenarioTest, FlashCrowdAddsTransientUsersInWindowOnly) {
  const WorkloadOptions wl = base_options();
  ScenarioSpec s;
  FlashCrowdSpec f;
  f.start_s = 1.0;
  f.end_s = 2.0;
  f.rate_multiplier = 1.5;
  f.extra_users = 3;
  s.flash.push_back(f);
  EXPECT_EQ(s.extra_users(), 3);
  auto trace = generate_scenario_workload(wl, s);
  ASSERT_TRUE(trace.is_ok());
  bool saw_extra = false;
  for (const Request& r : *trace) {
    if (r.user < wl.users) continue;
    saw_extra = true;
    EXPECT_LT(r.user, wl.users + 3);
    EXPECT_GE(r.arrival_us, 1.0e6);
    EXPECT_LT(r.arrival_us, 2.0e6);
  }
  EXPECT_TRUE(saw_extra);
}

TEST(ScenarioTest, DiurnalModulationShiftsLoadAcrossHalves) {
  // Period == duration with a positive first half-wave: the first half of
  // the trace must carry strictly more arrivals than the second.
  WorkloadOptions wl = base_options();
  wl.duration_s = 2.0;
  ScenarioSpec s;
  s.diurnal.period_s = 2.0;
  s.diurnal.amplitude = 0.8;
  auto trace = generate_scenario_workload(wl, s);
  ASSERT_TRUE(trace.is_ok());
  std::int64_t first_half = 0, second_half = 0;
  for (const Request& r : *trace) {
    (r.arrival_us < 1.0e6 ? first_half : second_half) += 1;
  }
  EXPECT_GT(first_half, second_half);
}

TEST(ScenarioTest, TargetRequestsResolveAcrossShapedStreams) {
  WorkloadOptions wl = base_options();
  wl.duration_s = 0;
  wl.target_requests = 500;
  auto trace = generate_scenario_workload(wl, composed_spec());
  ASSERT_TRUE(trace.is_ok());
  EXPECT_EQ(static_cast<std::int64_t>(trace->size()), 500);
  EXPECT_TRUE(std::is_sorted(trace->begin(), trace->end(),
                             [](const Request& a, const Request& b) {
                               return a.arrival_us < b.arrival_us;
                             }));
  // Dense ids in arrival order — the same contract the base generator pins.
  for (std::size_t i = 0; i < trace->size(); ++i) {
    EXPECT_EQ((*trace)[i].id, static_cast<std::int64_t>(i));
  }
}

TEST(ScenarioTest, UnreachableTargetIsRejected) {
  // Every stream goes silent after 1 s; a target beyond what the active
  // windows can produce must fail loudly instead of spinning forever.
  WorkloadOptions wl = base_options();
  wl.duration_s = 0;
  wl.target_requests = 1000000;
  ScenarioSpec s;
  for (int u = 0; u < wl.users; ++u) {
    ChurnEvent c;
    c.user = u;
    c.join_s = 0;
    c.leave_s = 1.0;
    s.churn.push_back(c);
  }
  EXPECT_EQ(generate_scenario_workload(wl, s).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fcad::serving
