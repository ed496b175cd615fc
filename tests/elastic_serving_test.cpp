// Elastic serving suite (serving step 8b): autoscaling and dynamic
// resharding layered over the fleet must (1) reproduce the static fleet
// exactly when disabled, (2) strictly improve the tail on the pinned
// flash-crowd scenario when enabled, (3) apply fault schedules with visible
// counters, and (4) stay bit-identical across repeated runs. Named
// elastic_serving_test because tests/elastic_test.cpp covers src/arch.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serving/daemon.hpp"
#include "serving/elastic.hpp"
#include "serving/fleet.hpp"
#include "serving/scenario.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "serving_goldens.hpp"

namespace fcad::serving {
namespace {

ServiceModel toy_service() {
  ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};
  return service;
}

/// The pinned flash-crowd drift scenario: a 4-instance fleet that holds the
/// SLA at base load, swamped 3x (plus transient users) for the middle half
/// of the trace.
ScenarioSpec flash_scenario() {
  ScenarioSpec spec;
  FlashCrowdSpec flash;
  flash.start_s = 1.0;
  flash.end_s = 3.0;
  flash.rate_multiplier = 3.0;
  flash.extra_users = 4;
  spec.flash.push_back(flash);
  return spec;
}

std::vector<Request> flash_trace() {
  WorkloadOptions wl;
  wl.users = 8;
  wl.branches = 2;
  wl.frame_rate_hz = 40;
  wl.duration_s = 4.0;
  wl.seed = 21;
  auto trace = generate_scenario_workload(wl, flash_scenario());
  FCAD_CHECK(trace.is_ok());
  return std::move(trace).value();
}

ServeSpec flash_spec() {
  ServeSpec spec;
  spec.fleet.instances = 4;
  spec.fleet.shards = 2;
  spec.fleet.threads = 1;
  spec.fleet.sla_bound_us = 25000;
  spec.scenario = flash_scenario();
  return spec;
}

ElasticSpec scale_policy() {
  ElasticSpec elastic;
  elastic.autoscale.max_instances = 12;
  elastic.autoscale.high_watermark = 0.6;
  elastic.autoscale.low_watermark = 0.2;
  elastic.autoscale.window_us = 100000;
  elastic.autoscale.cooldown_us = 100000;
  return elastic;
}

TEST(ElasticSpecTest, ValidationRejectsMalformedSpecs) {
  {
    ElasticSpec s;
    s.autoscale.max_instances = 4;
    s.autoscale.low_watermark = 0.9;  // low >= high
    EXPECT_EQ(validate_elastic(s).code(), StatusCode::kInvalidArgument);
  }
  {
    ElasticSpec s;
    s.autoscale.max_instances = 4;
    s.autoscale.min_instances = 8;  // floor above the cap
    EXPECT_EQ(validate_elastic(s).code(), StatusCode::kInvalidArgument);
  }
  {
    ElasticSpec s;
    s.autoscale.max_instances = 4;
    s.autoscale.window_us = 0;
    EXPECT_EQ(validate_elastic(s).code(), StatusCode::kInvalidArgument);
  }
  {
    ElasticSpec s;
    s.reshard.p99_fraction = 0.5;
    s.reshard.max_cells = 1;  // can never split
    EXPECT_EQ(validate_elastic(s).code(), StatusCode::kInvalidArgument);
  }
  {
    ElasticSpec s;
    s.reshard.p99_fraction = 0.5;
    s.reshard.window = 0;
    EXPECT_EQ(validate_elastic(s).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(validate_elastic(ElasticSpec{}).is_ok());
  EXPECT_TRUE(validate_elastic(scale_policy()).is_ok());
}

TEST(ElasticSpecTest, StringRoundTripIsStable) {
  ElasticSpec spec = scale_policy();
  spec.reshard.p99_fraction = 0.25;
  spec.reshard.window = 64;
  const std::string text = elastic_to_string(spec);
  EXPECT_EQ(text,
            "scale:max=12,high=0.6,low=0.2,window_us=100000,"
            "cooldown_us=100000,min=1;"
            "reshard:frac=0.25,window=64,cooldown_us=250000,cells=4");
  auto parsed = elastic_from_string(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(elastic_to_string(*parsed), text);

  auto none = elastic_from_string("none");
  ASSERT_TRUE(none.is_ok());
  EXPECT_FALSE(none->enabled());
  EXPECT_EQ(elastic_to_string(*none), "none");

  EXPECT_EQ(elastic_from_string("scale:max=4,bogus=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(elastic_from_string("stretch:by=2").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ElasticSpecTest, NonFiniteAndVanishingClausesAreRejected) {
  // Each text asks for a policy the parser cannot honour; it must error and
  // name the offending field, never parse to a spec without that policy.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"reshard:frac=nan,cells=4", "frac"},
      {"reshard:frac=inf,cells=4", "frac"},
      {"reshard:frac=0,cells=4", "frac"},
      {"reshard:frac=-1", "frac"},
      {"reshard:frac=0.5,window=nan", "window"},
      {"reshard:frac=0.5,window=2.5", "window"},
      {"reshard:frac=0.5,cooldown_us=nan", "cooldown_us"},
      {"reshard:frac=0.5,cells=inf", "cells"},
      {"scale:max=nan", "max"},
      {"scale:max=0", "max"},
      {"scale:max=1e12", "max"},
      {"scale:max=8,high=nan", "high"},
      {"scale:max=8,low=nan", "low"},
      {"scale:max=8,window_us=nan", "window_us"},
      {"scale:max=8,window_us=inf", "window_us"},
      {"scale:max=8,cooldown_us=nan", "cooldown_us"},
      {"scale:max=8,min=nan", "min"},
  };
  for (const auto& [text, field] : bad) {
    auto parsed = elastic_from_string(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find(field), std::string::npos)
        << text << " -> " << parsed.status().message();
  }

  // The struct-level validator is NaN-safe too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ElasticSpec reshard;
  reshard.reshard.p99_fraction = nan;
  EXPECT_EQ(validate_elastic(reshard).code(), StatusCode::kInvalidArgument);
  ElasticSpec watermark = scale_policy();
  watermark.autoscale.low_watermark = nan;
  EXPECT_EQ(validate_elastic(watermark).code(),
            StatusCode::kInvalidArgument);
  ElasticSpec cooldown = scale_policy();
  cooldown.autoscale.cooldown_us = nan;
  EXPECT_EQ(validate_elastic(cooldown).code(), StatusCode::kInvalidArgument);
}

TEST(ElasticSpecTest, ReparsingTheCanonicalFormIsIdempotent) {
  // parse(to_string(parse(s))) == parse(s) for every valid spec.
  for (const std::string text :
       {"none", "scale:max=12,high=0.5,low=0.1,window_us=200000,"
                "cooldown_us=200000",
        "scale:max=16,high=0.6,low=0.2,window_us=500000,cooldown_us=500000",
        "scale:max=16,high=0.6,low=0.2;reshard:frac=0.6,cells=4",
        "reshard:frac=0.25,window=64", "scale:max=4,min=2",
        "scale:max=8,high=0.7,low=0.30000000000000004"}) {
    auto parsed = elastic_from_string(text);
    ASSERT_TRUE(parsed.is_ok()) << text << ": " << parsed.status().message();
    auto reparsed = elastic_from_string(elastic_to_string(*parsed));
    ASSERT_TRUE(reparsed.is_ok()) << text;
    EXPECT_TRUE(*reparsed == *parsed) << text;
  }
}

TEST(ElasticSpecTest, RollingP99WindowTracksExactNearestRank) {
  RollingP99Window window(4);
  EXPECT_EQ(window.p99(), 0.0);
  EXPECT_FALSE(window.full());
  window.add(10);
  window.add(20);
  window.add(30);
  EXPECT_FALSE(window.full());
  window.add(40);
  EXPECT_TRUE(window.full());
  EXPECT_EQ(window.p99(), 40.0);
  window.add(5);  // evicts 10; window now {5, 20, 30, 40}
  EXPECT_EQ(window.p99(), 40.0);
  window.add(1);  // evicts 20
  window.add(2);  // evicts 30
  window.add(3);  // evicts 40; window now {5, 1, 2, 3}
  EXPECT_EQ(window.p99(), 5.0);
}

TEST(ElasticPlanTest, DisabledSpecReproducesStaticPartition) {
  auto plans = plan_elastic_shards(ElasticSpec{}, {}, 8, 3);
  ASSERT_TRUE(plans.is_ok());
  ASSERT_EQ(plans->size(), 3u);
  // The classic fair split: floor(8/3) each, remainder to the low shards.
  const int first[] = {0, 3, 6};
  const int count[] = {3, 3, 2};
  for (int s = 0; s < 3; ++s) {
    const ShardElasticPlan& plan = (*plans)[static_cast<std::size_t>(s)];
    EXPECT_EQ(plan.first_instance, first[s]);
    EXPECT_EQ(plan.provisioned, count[s]);
    EXPECT_EQ(plan.initial_active, count[s]) << "all provisioned are active";
    EXPECT_TRUE(plan.faults.empty());
  }
}

TEST(ElasticPlanTest, AutoscaleProvisionsUpToMaxAndActivatesPrefix) {
  auto plans = plan_elastic_shards(scale_policy(), {}, 4, 2);
  ASSERT_TRUE(plans.is_ok());
  ASSERT_EQ(plans->size(), 2u);
  EXPECT_EQ((*plans)[0].provisioned, 6);
  EXPECT_EQ((*plans)[0].initial_active, 2);
  EXPECT_EQ((*plans)[1].first_instance, 6);
  EXPECT_EQ((*plans)[1].provisioned, 6);
  EXPECT_EQ((*plans)[1].initial_active, 2);
}

TEST(ElasticPlanTest, FaultsRouteToOwningShardAsLocalPairs) {
  std::vector<InstanceFault> faults;
  InstanceFault f;
  f.instance = 5;  // shard 1's slice [4, 8) under a 2-way split of 8
  f.fail_s = 1.0;
  f.recover_s = 2.0;
  faults.push_back(f);
  auto plans = plan_elastic_shards(ElasticSpec{}, faults, 8, 2);
  ASSERT_TRUE(plans.is_ok());
  EXPECT_TRUE((*plans)[0].faults.empty());
  ASSERT_EQ((*plans)[1].faults.size(), 2u);
  EXPECT_EQ((*plans)[1].faults[0].local_instance, 1);
  EXPECT_EQ((*plans)[1].faults[0].t_us, 1.0e6);
  EXPECT_TRUE((*plans)[1].faults[0].fail);
  EXPECT_EQ((*plans)[1].faults[1].t_us, 2.0e6);
  EXPECT_FALSE((*plans)[1].faults[1].fail);

  f.instance = 8;  // outside the provisioned pool
  EXPECT_EQ(plan_elastic_shards(ElasticSpec{}, {f}, 8, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ElasticFleetTest, DisabledPolicyIsBitIdenticalToStaticFleet) {
  const ServiceModel service = toy_service();
  const std::vector<Request> trace = flash_trace();
  ServeSpec spec = flash_spec();
  auto plain = simulate_fleet(service, trace, spec);
  ASSERT_TRUE(plain.is_ok());
  // ElasticSpec{} must not change a single byte of the outcome — the
  // provisioned pool degenerates to the active fleet and no controller is
  // constructed.
  spec.elastic = ElasticSpec{};
  auto elastic_off = simulate_fleet(service, trace, spec);
  ASSERT_TRUE(elastic_off.is_ok());
  EXPECT_EQ(serving_csv_row({}, *plain), serving_csv_row({}, *elastic_off));
  EXPECT_EQ(plain->scale_up_events, 0);
  EXPECT_EQ(plain->reshard_splits, 0);
}

TEST(ElasticFleetTest, AutoscalerAbsorbsTheFlashCrowd) {
  // The headline acceptance pin: on the same seeded flash-crowd trace the
  // static fleet misses the SLA and the elastic fleet meets it, with a
  // strictly better p99 — and the scale events are visible in the stats
  // and the always-on obs counters.
  const ServiceModel service = toy_service();
  const std::vector<Request> trace = flash_trace();
  const ServeSpec off_spec = flash_spec();
  auto off = simulate_fleet(service, trace, off_spec);
  ASSERT_TRUE(off.is_ok());
  EXPECT_FALSE(off->sla_met);
  EXPECT_EQ(off->scale_up_events + off->scale_down_events, 0);

  ServeSpec on_spec = flash_spec();
  on_spec.elastic = scale_policy();
  const std::int64_t scale_ups_before = obs::MetricsRegistry::global()
                                            .counter(
                                                "serving.elastic."
                                                "scale_up_events")
                                            .value();
  auto on = simulate_fleet(service, trace, on_spec);
  ASSERT_TRUE(on.is_ok());
  EXPECT_TRUE(on->sla_met);
  EXPECT_LT(on->latency.p99, off->latency.p99);
  EXPECT_GT(on->scale_up_events, 0);
  EXPECT_GT(on->scale_down_events, 0) << "the crowd leaving scales back in";
  EXPECT_EQ(obs::MetricsRegistry::global()
                    .counter("serving.elastic.scale_up_events")
                    .value() -
                scale_ups_before,
            on->scale_up_events);

  // And the elastic replay is repeatable bit for bit.
  auto again = simulate_fleet(service, trace, on_spec);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(serving_csv_row({}, *on), serving_csv_row({}, *again));
}

TEST(ElasticFleetTest, FaultScheduleFiresAndRecoversWithCounters) {
  const ServiceModel service = toy_service();
  const std::vector<Request> trace = flash_trace();
  ServeSpec spec = flash_spec();
  InstanceFault fault;
  fault.instance = 1;
  fault.fail_s = 0.5;
  fault.recover_s = 2.0;
  spec.scenario.faults.push_back(fault);
  auto stats = simulate_fleet(service, trace, spec);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->fault_events, 1);
  EXPECT_EQ(stats->recover_events, 1);
  EXPECT_EQ(stats->completed, stats->offered)
      << "a faulted instance parks its work, never loses it";
}

TEST(ElasticFleetTest, ReshardSplitsCellsUnderTailDrift) {
  const ServiceModel service = toy_service();
  WorkloadOptions wl;
  wl.users = 8;
  wl.branches = 2;
  wl.frame_rate_hz = 100;
  wl.duration_s = 2.0;
  wl.seed = 5;
  auto trace = generate_workload(wl);
  ASSERT_TRUE(trace.is_ok());
  ServeSpec spec;
  spec.fleet.instances = 4;
  spec.fleet.shards = 2;
  spec.fleet.threads = 1;
  spec.fleet.sla_bound_us = 30000;
  spec.elastic.reshard.p99_fraction = 0.25;
  spec.elastic.reshard.window = 64;
  spec.elastic.reshard.cooldown_us = 100000;
  spec.elastic.reshard.max_cells = 4;
  auto stats = simulate_fleet(service, *trace, spec);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT(stats->reshard_splits, 0);
  // max_cells bounds splits per shard: at most (cells - 1) splits each.
  EXPECT_LE(stats->reshard_splits, 2 * (4 - 1));
  EXPECT_EQ(stats->completed, stats->offered);

  auto again = simulate_fleet(service, *trace, spec);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(serving_csv_row({}, *stats), serving_csv_row({}, *again));
}

TEST(ElasticFleetTest, ElasticRunsRoundTripThroughCheckpointText)
{
  // The elastic counters ride the artifact stats text format.
  const ServiceModel service = toy_service();
  const std::vector<Request> trace = flash_trace();
  ServeSpec spec = flash_spec();
  spec.elastic = scale_policy();
  auto stats = simulate_fleet(service, trace, spec);
  ASSERT_TRUE(stats.is_ok());
  std::stringstream text;
  serving_stats_to_text(text, *stats);
  auto reloaded = serving_stats_from_text(text);
  ASSERT_TRUE(reloaded.is_ok());
  EXPECT_EQ(reloaded->scale_up_events, stats->scale_up_events);
  EXPECT_EQ(reloaded->scale_down_events, stats->scale_down_events);
  EXPECT_EQ(reloaded->reshard_splits, stats->reshard_splits);
  EXPECT_EQ(reloaded->fault_events, stats->fault_events);
  EXPECT_EQ(reloaded->recover_events, stats->recover_events);
}

TEST(ElasticDaemonTest, TracePathMatchesSimulateFleetWithElasticOn) {
  // Replay/live parity extends to elastic fleets: the daemon's online
  // submit path (admission off) must reproduce simulate_fleet bit for bit
  // under the same policy.
  const ServiceModel service = toy_service();
  const std::vector<Request> trace = flash_trace();
  ServeSpec spec = flash_spec();
  spec.elastic = scale_policy();
  auto replay = simulate_fleet(service, trace, spec);
  ASSERT_TRUE(replay.is_ok());
  const Daemon daemon(service, spec, {});
  auto live = daemon.run_trace(trace);
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(live->shed, 0);
  EXPECT_EQ(serving_csv_row({}, *replay), serving_csv_row({}, live->stats));
}

TEST(ElasticDaemonTest, ShedsOnlyAfterScaleUpHeadroomIsExhausted) {
  // Admission alone sheds through the flash crowd; with the elastic policy
  // the daemon grows first, so strictly fewer requests are dropped and the
  // scale events show the growth happened.
  const ServiceModel service = toy_service();
  const std::vector<Request> trace = flash_trace();
  DaemonOptions admission;
  admission.admission_enabled = true;
  admission.admission_window = 64;

  ServeSpec static_spec = flash_spec();
  static_spec.fleet.keep_records = true;
  const Daemon static_daemon(service, static_spec, admission);
  auto static_run = static_daemon.run_trace(trace);
  ASSERT_TRUE(static_run.is_ok());
  EXPECT_GT(static_run->shed, 0);

  ServeSpec elastic_spec = static_spec;
  elastic_spec.elastic = scale_policy();
  const Daemon elastic_daemon(service, elastic_spec, admission);
  auto elastic_run = elastic_daemon.run_trace(trace);
  ASSERT_TRUE(elastic_run.is_ok());
  EXPECT_LT(elastic_run->shed, static_run->shed);
  EXPECT_GT(elastic_run->stats.scale_up_events, 0);

  // Goldens captured before the daemon shared fleet.cpp's shard loop.
  EXPECT_EQ(static_run->shed, 5890);
  EXPECT_EQ(csv_line(static_run->stats),
            "1238,1238,938.9438,8214.4939,7565.6806,18052.2796,22614.7620,"
            "26249.2464,18846.9414,653,0.7109,3.9572,33,25000.0000,0.0032,1,"
            "0.4795,0,0,0,0,0");
  EXPECT_EQ(static_run->stats.records.size(), 1238u);
  EXPECT_EQ(decisions_digest(static_run->stats),
            "4cb2d077d80e47e6ea2180126f36070e");
  EXPECT_EQ(elastic_run->shed, 0);
  EXPECT_EQ(csv_line(elastic_run->stats),
            "7128,7128,1777.9753,5707.6812,5432.3747,9000.0000,11773.1093,"
            "19591.4684,8107.4528,3210,0.8327,3.0362,27,25000.0000,0.0000,1,"
            "0.2533,6,6,0,0,0");
  EXPECT_EQ(elastic_run->stats.records.size(), 7128u);
  EXPECT_EQ(decisions_digest(elastic_run->stats),
            "986837e1d1af7cfbe8c1b1a3c0774a6e");

  // Grow first: while scale-up headroom remains nothing is shed, even with
  // the gate's bound at half the SLA (its window is far above it).
  DaemonOptions tight = admission;
  tight.admission_headroom = 0.5;
  auto tight_run = Daemon(service, elastic_spec, tight).run_trace(trace);
  ASSERT_TRUE(tight_run.is_ok());
  EXPECT_EQ(tight_run->shed, 0);
  EXPECT_EQ(decisions_digest(tight_run->stats),
            "986837e1d1af7cfbe8c1b1a3c0774a6e");
}

}  // namespace
}  // namespace fcad::serving
