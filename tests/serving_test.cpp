#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "arch/platform.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "serving/batcher.hpp"
#include "serving/fleet.hpp"
#include "serving/replay.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "serving_goldens.hpp"
#include "util/args.hpp"

namespace fcad::serving {
namespace {

Request make_request(std::int64_t id, int branch, double arrival_us,
                     int user = 0) {
  Request r;
  r.id = id;
  r.user = user;
  r.branch = branch;
  r.arrival_us = arrival_us;
  return r;
}

ServiceModel make_service(std::vector<BranchService> branches) {
  ServiceModel m;
  m.branches = std::move(branches);
  return m;
}

/// ServeSpec wrapper for the FleetOptions-level tests below (the spec-level
/// SLA/clock resolution gets its own coverage in ServeSpecTest/clock_test).
StatusOr<ServingStats> run_fleet(const ServiceModel& service,
                                 const std::vector<Request>& workload,
                                 const FleetOptions& options,
                                 const util::RunScope* scope = nullptr) {
  ServeSpec spec;
  spec.fleet = options;
  return simulate_fleet(service, workload, spec, scope);
}

// --------------------------------------------------------------- workload --
TEST(WorkloadTest, PoissonIsDeterministicForAFixedSeed) {
  WorkloadOptions options;
  options.users = 4;
  options.branches = 3;
  options.frame_rate_hz = 30;
  options.duration_s = 2.0;
  options.seed = 99;
  auto a = generate_workload(options);
  auto b = generate_workload(options);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(a->size(), b->size());
  ASSERT_FALSE(a->empty());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].id, (*b)[i].id);
    EXPECT_EQ((*a)[i].user, (*b)[i].user);
    EXPECT_EQ((*a)[i].branch, (*b)[i].branch);
    EXPECT_EQ((*a)[i].arrival_us, (*b)[i].arrival_us);  // bit-identical
  }
}

TEST(WorkloadTest, DifferentSeedsProduceDifferentArrivals) {
  WorkloadOptions options;
  options.users = 2;
  options.duration_s = 1.0;
  options.seed = 1;
  auto a = generate_workload(options);
  options.seed = 2;
  auto b = generate_workload(options);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  ASSERT_FALSE(a->empty());
  bool any_differs = a->size() != b->size();
  for (std::size_t i = 0; !any_differs && i < a->size(); ++i) {
    any_differs = (*a)[i].arrival_us != (*b)[i].arrival_us;
  }
  EXPECT_TRUE(any_differs);
}

TEST(WorkloadTest, PoissonRateIsApproximatelyHonored) {
  WorkloadOptions options;
  options.users = 8;
  options.frame_rate_hz = 50;
  options.duration_s = 5.0;
  options.seed = 7;
  auto workload = generate_workload(options);
  ASSERT_TRUE(workload.is_ok());
  const double expected = 8 * 50 * 5.0;  // one branch per event
  EXPECT_GT(workload->size(), expected * 0.8);
  EXPECT_LT(workload->size(), expected * 1.2);
}

TEST(WorkloadTest, ArrivalsAreSortedWithDenseIds) {
  WorkloadOptions options;
  options.users = 3;
  options.branches = 2;
  options.duration_s = 1.0;
  auto workload = generate_workload(options);
  ASSERT_TRUE(workload.is_ok());
  for (std::size_t i = 0; i < workload->size(); ++i) {
    EXPECT_EQ((*workload)[i].id, static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_GE((*workload)[i].arrival_us, (*workload)[i - 1].arrival_us);
    }
  }
}

TEST(WorkloadTest, BurstyGeneratesWithinHorizon) {
  WorkloadOptions options;
  options.process = ArrivalProcess::kBursty;
  options.users = 4;
  options.frame_rate_hz = 30;
  options.duration_s = 2.0;
  options.seed = 5;
  auto workload = generate_workload(options);
  ASSERT_TRUE(workload.is_ok());
  ASSERT_FALSE(workload->empty());
  for (const Request& r : *workload) {
    EXPECT_LT(r.arrival_us, 2.0e6);
    EXPECT_GE(r.arrival_us, 0.0);
  }
}

TEST(WorkloadTest, RejectsBadOptions) {
  WorkloadOptions options;
  options.users = 0;
  EXPECT_FALSE(generate_workload(options).is_ok());
  options.users = 1;
  options.frame_rate_hz = 0;
  EXPECT_FALSE(generate_workload(options).is_ok());
}

TEST(WorkloadTest, TargetRequestsGeneratesExactCount) {
  WorkloadOptions options;
  options.users = 6;
  options.branches = 3;
  options.frame_rate_hz = 30;
  options.duration_s = 0;  // ignored in target mode
  options.seed = 13;
  options.target_requests = 10000;
  auto workload = generate_workload(options);
  ASSERT_TRUE(workload.is_ok()) << workload.status().to_string();
  EXPECT_EQ(workload->size(), 10000u);
  for (std::size_t i = 0; i < workload->size(); ++i) {
    EXPECT_EQ((*workload)[i].id, static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_GE((*workload)[i].arrival_us, (*workload)[i - 1].arrival_us);
    }
  }
  // A second generation is bit-identical.
  auto again = generate_workload(options);
  ASSERT_TRUE(again.is_ok());
  ASSERT_EQ(again->size(), workload->size());
  for (std::size_t i = 0; i < workload->size(); ++i) {
    EXPECT_EQ((*again)[i].arrival_us, (*workload)[i].arrival_us);
    EXPECT_EQ((*again)[i].user, (*workload)[i].user);
  }
}

TEST(WorkloadTest, TargetRequestsMatchesDurationBoundedPrefix) {
  // The lazily merged per-user streams draw the same arrivals as the
  // duration-bounded generator — the target-mode trace is a prefix of the
  // duration-mode trace whenever the horizon covers it.
  WorkloadOptions bounded;
  bounded.users = 4;
  bounded.branches = 2;
  bounded.frame_rate_hz = 40;
  bounded.duration_s = 4.0;
  bounded.seed = 21;
  auto full = generate_workload(bounded);
  ASSERT_TRUE(full.is_ok());
  ASSERT_GT(full->size(), 400u);

  WorkloadOptions target = bounded;
  target.duration_s = 0;
  target.target_requests = 400;
  auto prefix = generate_workload(target);
  ASSERT_TRUE(prefix.is_ok());
  ASSERT_EQ(prefix->size(), 400u);
  for (std::size_t i = 0; i < prefix->size(); ++i) {
    EXPECT_EQ((*prefix)[i].arrival_us, (*full)[i].arrival_us) << i;
    EXPECT_EQ((*prefix)[i].user, (*full)[i].user) << i;
    EXPECT_EQ((*prefix)[i].branch, (*full)[i].branch) << i;
  }
  // Bursty streams go through the same lazy path.
  target.process = ArrivalProcess::kBursty;
  EXPECT_TRUE(generate_workload(target).is_ok());
}

TEST(WorkloadTest, TargetRequestsRejectsNegatives) {
  WorkloadOptions options;
  options.target_requests = -1;
  EXPECT_FALSE(generate_workload(options).is_ok());
}

TEST(WorkloadTest, ProcessNamesRoundTrip) {
  EXPECT_EQ(*arrival_process_by_name("Poisson"), ArrivalProcess::kPoisson);
  EXPECT_EQ(*arrival_process_by_name("bursty"), ArrivalProcess::kBursty);
  EXPECT_FALSE(arrival_process_by_name("uniform").is_ok());
  EXPECT_FALSE(arrival_process_by_name("trace").is_ok());
}

// ---------------------------------------------------------------- batcher --
TEST(BatcherTest, EmptyQueueIsNeverReady) {
  BatchAggregator agg({4}, 1000);
  EXPECT_FALSE(agg.has_ready(1e9));
  Batch batch;
  batch.branch = 7;
  EXPECT_FALSE(agg.pop_ready(1e9, batch));
  EXPECT_EQ(batch.branch, 7);  // untouched when nothing is ready
  EXPECT_EQ(agg.next_deadline_us(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(agg.pending(), 0u);
}

TEST(BatcherTest, SingleRequestWaitsForTimeout) {
  BatchAggregator agg({4}, 1000);
  agg.enqueue(make_request(0, 0, 500));
  EXPECT_FALSE(agg.has_ready(500));
  EXPECT_FALSE(agg.has_ready(1499));
  EXPECT_EQ(agg.next_deadline_us(), 1500);
  ASSERT_TRUE(agg.has_ready(1500));
  Batch batch;
  ASSERT_TRUE(agg.pop_ready(1500, batch));
  EXPECT_EQ(batch.requests.size(), 1u);
  EXPECT_EQ(batch.branch, 0);
  EXPECT_EQ(batch.formed_us, 1500);
  EXPECT_EQ(agg.pending(), 0u);
}

TEST(BatcherTest, FullBatchIsReadyImmediately) {
  BatchAggregator agg({2}, 1e6);
  agg.enqueue(make_request(0, 0, 10));
  EXPECT_FALSE(agg.has_ready(10));
  agg.enqueue(make_request(1, 0, 11));
  EXPECT_TRUE(agg.has_ready(11));
}

TEST(BatcherTest, OverflowPopsAreCappedAndFifo) {
  BatchAggregator agg({2}, 1000);
  for (int i = 0; i < 5; ++i) {
    agg.enqueue(make_request(i, 0, static_cast<double>(i)));
  }
  Batch batch;
  ASSERT_TRUE(agg.pop_ready(10, batch));
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_EQ(batch.requests[0].id, 0);
  EXPECT_EQ(batch.requests[1].id, 1);
  // Popping into the same Batch replaces its requests, reusing the buffer.
  const Request* buffer = batch.requests.data();
  ASSERT_TRUE(agg.pop_ready(10, batch));
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_EQ(batch.requests[0].id, 2);
  EXPECT_EQ(batch.requests[1].id, 3);
  EXPECT_EQ(batch.requests.data(), buffer);
  // Two popped batches leave one stranded request below the cap.
  EXPECT_EQ(agg.pending(), 1u);
  EXPECT_FALSE(agg.has_ready(10));
  EXPECT_TRUE(agg.has_ready(4 + 1000));
}

TEST(BatcherTest, CloseDrainsPartialBatches) {
  BatchAggregator agg({8}, 0);  // no timeout
  agg.enqueue(make_request(0, 0, 5));
  EXPECT_FALSE(agg.has_ready(1e12));
  agg.close();
  ASSERT_TRUE(agg.has_ready(6));
  Batch batch;
  ASSERT_TRUE(agg.pop_ready(6, batch));
  EXPECT_EQ(batch.requests.size(), 1u);
}

TEST(BatcherTest, ReadyTieBreaksTowardOldestHeadOfLine) {
  BatchAggregator agg({1, 1}, 1000);
  agg.enqueue(make_request(0, 1, 20));  // branch 1, older? no: arrives at 20
  agg.enqueue(make_request(1, 0, 10));  // branch 0 head is older
  EXPECT_EQ(agg.ready_branch(50), 0);
  Batch batch;
  ASSERT_TRUE(agg.pop_ready(50, batch));
  EXPECT_EQ(batch.branch, 0);
  EXPECT_EQ(agg.ready_branch(50), 1);
}

// ------------------------------------------------------------ percentiles --
TEST(StatsTest, NearestRankPercentilesAreExact) {
  const std::vector<double> decades = {10, 20, 30, 40, 50,
                                       60, 70, 80, 90, 100};
  EXPECT_EQ(percentile(decades, 50), 50);
  EXPECT_EQ(percentile(decades, 95), 100);
  EXPECT_EQ(percentile(decades, 99), 100);
  EXPECT_EQ(percentile(decades, 100), 100);
  EXPECT_EQ(percentile(decades, 10), 10);
  EXPECT_EQ(percentile(decades, 1), 10);
  EXPECT_EQ(percentile({42.0}, 99), 42.0);
  // Order of the input must not matter.
  EXPECT_EQ(percentile({9, 1, 5, 3, 7}, 60), 5);
}

TEST(StatsTest, PercentileValidationReturnsStatusInsteadOfCrashing) {
  EXPECT_TRUE(validate_percentile(0.001).is_ok());
  EXPECT_TRUE(validate_percentile(100).is_ok());
  EXPECT_FALSE(validate_percentile(0).is_ok());
  EXPECT_FALSE(validate_percentile(-5).is_ok());
  EXPECT_FALSE(validate_percentile(100.5).is_ok());
}

TEST(StatsTest, TailTrackerMatchesExactPartialPercentiles) {
  // Deterministic pseudo-random stream; the tracker's partial estimate must
  // equal the exact nearest-rank percentile over every prefix it is asked
  // at, while holding only ~the top 1% of the stream.
  const std::int64_t total = 5000;
  TailTracker tracker(total, 99);
  std::vector<double> seen;
  std::uint64_t state = 12345;
  for (std::int64_t i = 0; i < total; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double sample = static_cast<double>(state >> 40);
    tracker.add(sample);
    seen.push_back(sample);
    if (i % 617 == 0 || i == total - 1) {
      EXPECT_EQ(tracker.partial(), percentile(seen, 99)) << "prefix " << i;
    }
  }
  EXPECT_EQ(tracker.seen(), total);

  // pct = 100 tracks the running maximum with a single-slot tail.
  TailTracker max_tracker(3, 100);
  max_tracker.add(2);
  max_tracker.add(9);
  max_tracker.add(4);
  EXPECT_EQ(max_tracker.partial(), 9);
}

TEST(StatsTest, ServingStatsSerializationRoundTripsBitExact) {
  // Build real stats (records kept) and round-trip them through the text
  // format; every field must survive bit-exactly and re-serialize to the
  // same text.
  WorkloadOptions wl;
  wl.users = 5;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 1.0;
  wl.seed = 17;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  FleetOptions options;
  options.instances = 3;
  options.keep_records = true;
  const ServiceModel service = make_service({{2, 4000.0}, {4, 6000.0}});
  auto stats = run_fleet(service, *workload, options);
  ASSERT_TRUE(stats.is_ok());
  ASSERT_FALSE(stats->records.empty());
  ASSERT_EQ(stats->branch_completed.size(), 2u);

  std::ostringstream os;
  serving_stats_to_text(os, *stats);
  const std::string text = os.str();
  std::istringstream in(text);
  auto restored = serving_stats_from_text(in);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();

  EXPECT_EQ(restored->offered, stats->offered);
  EXPECT_EQ(restored->completed, stats->completed);
  EXPECT_EQ(restored->makespan_us, stats->makespan_us);
  EXPECT_EQ(restored->throughput_rps, stats->throughput_rps);
  EXPECT_EQ(restored->latency.count, stats->latency.count);
  EXPECT_EQ(restored->latency.mean, stats->latency.mean);
  EXPECT_EQ(restored->latency.p50, stats->latency.p50);
  EXPECT_EQ(restored->latency.p95, stats->latency.p95);
  EXPECT_EQ(restored->latency.p99, stats->latency.p99);
  EXPECT_EQ(restored->latency.max, stats->latency.max);
  EXPECT_EQ(restored->queue_wait.p99, stats->queue_wait.p99);
  EXPECT_EQ(restored->batches, stats->batches);
  EXPECT_EQ(restored->mean_batch_fill, stats->mean_batch_fill);
  EXPECT_EQ(restored->mean_queue_depth, stats->mean_queue_depth);
  EXPECT_EQ(restored->max_queue_depth, stats->max_queue_depth);
  EXPECT_EQ(restored->sla_bound_us, stats->sla_bound_us);
  EXPECT_EQ(restored->sla_violations, stats->sla_violations);
  EXPECT_EQ(restored->sla_violation_rate, stats->sla_violation_rate);
  EXPECT_EQ(restored->sla_met, stats->sla_met);
  EXPECT_EQ(restored->fleet_utilization, stats->fleet_utilization);
  EXPECT_EQ(restored->branch_completed, stats->branch_completed);
  ASSERT_EQ(restored->instances.size(), stats->instances.size());
  for (std::size_t i = 0; i < stats->instances.size(); ++i) {
    EXPECT_EQ(restored->instances[i].instance, stats->instances[i].instance);
    EXPECT_EQ(restored->instances[i].batches, stats->instances[i].batches);
    EXPECT_EQ(restored->instances[i].busy_us, stats->instances[i].busy_us);
    EXPECT_EQ(restored->instances[i].utilization,
              stats->instances[i].utilization);
  }
  ASSERT_EQ(restored->records.size(), stats->records.size());
  for (std::size_t i = 0; i < stats->records.size(); ++i) {
    EXPECT_EQ(restored->records[i].id, stats->records[i].id);
    EXPECT_EQ(restored->records[i].instance, stats->records[i].instance);
    EXPECT_EQ(restored->records[i].arrival_us, stats->records[i].arrival_us);
    EXPECT_EQ(restored->records[i].finish_us, stats->records[i].finish_us);
  }
  // The CSV row — the full deterministic field set — matches too, and
  // re-serializing reproduces the exact same text.
  EXPECT_EQ(serving_csv_row({}, *restored), serving_csv_row({}, *stats));
  std::ostringstream again;
  serving_stats_to_text(again, *restored);
  EXPECT_EQ(again.str(), text);
}

TEST(StatsTest, TornSerializedStatsAreRejected) {
  ServingStats stats;
  stats.offered = 10;
  stats.completed = 10;
  stats.branch_completed = {4, 6};
  stats.instances.resize(2);
  std::ostringstream os;
  serving_stats_to_text(os, stats);
  const std::string text = os.str();
  ASSERT_NE(text.find("serving_stats_end"), std::string::npos);

  // Missing end marker (torn tail write).
  {
    std::istringstream in(text.substr(0, text.size() - 18));
    EXPECT_FALSE(serving_stats_from_text(in).is_ok());
  }
  // Cut mid-instance-list: the counted block catches the short read.
  {
    std::istringstream in(text.substr(0, text.find("instance 0")));
    EXPECT_FALSE(serving_stats_from_text(in).is_ok());
  }
  // Wrong header.
  {
    std::istringstream in("not_stats\n" + text);
    EXPECT_FALSE(serving_stats_from_text(in).is_ok());
  }
  // Unknown field.
  {
    std::istringstream in("serving_stats\nbogus 1\nserving_stats_end\n");
    EXPECT_FALSE(serving_stats_from_text(in).is_ok());
  }
}

TEST(StatsTest, SummarizeComputesMeanMaxAndTails) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const LatencySummary s = summarize(samples);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p95, 95);
  EXPECT_EQ(s.p99, 99);
  EXPECT_EQ(s.max, 100);
  EXPECT_EQ(summarize(std::vector<double>{}).count, 0);

  // Seeded random sets, sizes 1..2000 with heavy duplication (values drawn
  // from a handful of levels, plus a few distinct ones): every field must
  // equal the sort-based nearest-rank reference bit for bit.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::mt19937_64 rng(20210308);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = trial < 20 ? static_cast<std::size_t>(trial + 1)
                                     : 1 + rng() % 2000;
    const std::uint64_t levels = 1 + rng() % 8;
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng() % 16 == 0 ? static_cast<double>(rng() % 1000000) * 0.37
                          : 1000.0 * static_cast<double>(rng() % levels);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = [&](double pct) {
      const auto r = static_cast<std::size_t>(
          std::ceil(pct / 100.0 * static_cast<double>(n)));
      return sorted[std::max<std::size_t>(r, 1) - 1];
    };
    double sum = 0;
    for (double v : values) sum += v;
    const LatencySummary got = summarize(values);
    ASSERT_EQ(got.count, static_cast<std::int64_t>(n)) << "trial " << trial;
    EXPECT_EQ(bits(got.mean), bits(sum / static_cast<double>(n)))
        << "trial " << trial;
    EXPECT_EQ(bits(got.p50), bits(rank(50))) << "trial " << trial;
    EXPECT_EQ(bits(got.p95), bits(rank(95))) << "trial " << trial;
    EXPECT_EQ(bits(got.p99), bits(rank(99))) << "trial " << trial;
    EXPECT_EQ(bits(got.max), bits(sorted.back())) << "trial " << trial;
    EXPECT_EQ(bits(percentile(values, 99)), bits(rank(99)))
        << "trial " << trial;
  }
}

// ------------------------------------------------------------------ fleet --
TEST(FleetTest, ConservesEveryRequest) {
  WorkloadOptions wl;
  wl.users = 6;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 1.0;
  wl.seed = 3;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());

  FleetOptions options;
  options.instances = 2;
  options.batch_timeout_us = 2000;
  const ServiceModel service =
      make_service({{2, 4000.0}, {4, 6000.0}});
  auto stats = run_fleet(service, *workload, options);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->offered, static_cast<std::int64_t>(workload->size()));
  EXPECT_EQ(stats->completed, stats->offered);
  EXPECT_GT(stats->throughput_rps, 0);
  EXPECT_GT(stats->makespan_us, 0);
}

TEST(FleetTest, StatsAreBitReproducible) {
  WorkloadOptions wl;
  wl.users = 4;
  wl.branches = 3;
  wl.duration_s = 1.0;
  wl.seed = 11;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  FleetOptions options;
  options.instances = 3;
  options.policy = DispatchPolicy::kLeastLoaded;
  const ServiceModel service =
      make_service({{1, 2000.0}, {2, 5000.0}, {2, 3000.0}});
  auto a = run_fleet(service, *workload, options);
  auto b = run_fleet(service, *workload, options);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(serving_csv_row({}, *a), serving_csv_row({}, *b));
}

TEST(FleetTest, RunControlStreamsPartialPercentiles) {
  WorkloadOptions wl;
  wl.users = 6;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 1.0;
  wl.seed = 3;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  FleetOptions options;
  options.instances = 2;
  const ServiceModel service = make_service({{2, 4000.0}, {4, 6000.0}});

  util::RunControl control;
  std::vector<util::ProgressEvent> events;
  control.on_progress = [&](const util::ProgressEvent& event) {
    events.push_back(event);
  };
  const util::RunScope scope(control);
  auto observed = run_fleet(service, *workload, options, &scope);
  ASSERT_TRUE(observed.is_ok());

  ASSERT_GE(events.size(), 2u);
  for (const util::ProgressEvent& event : events) {
    EXPECT_EQ(event.stage, "fleet");
    EXPECT_GT(event.step, 0);
    EXPECT_EQ(event.total_steps,
              static_cast<int>(workload->size()));
    // The partial p99 estimate is a real latency, not a fitness.
    EXPECT_GT(event.best_fitness, 0);
  }
  // Steps are monotone and the final estimate converges on the true p99.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].step, events[i - 1].step);
  }
  EXPECT_DOUBLE_EQ(events.back().best_fitness, observed->latency.p99);
  // The whole tick sequence, pinned: which completion counts tick and the
  // exact partial tail each carries.
  expect_fleet_ticks(
      events, {{40, 748, 10000},
               {74, 748, 11683.803571711745},
               {112, 748, 15185.495979460655},
               {148, 748, 15185.495979460655},
               {186, 748, 15185.495979460655},
               {224, 748, 14474.201945701469},
               {259, 748, 14474.201945701469},
               {297, 748, 14474.201945701469},
               {334, 748, 14330.356241963629},
               {370, 748, 14330.356241963629},
               {408, 748, 14330.356241963629},
               {444, 748, 14330.356241963629},
               {483, 748, 14330.356241963629},
               {519, 748, 14474.201945701469},
               {555, 748, 15112.265649867128},
               {594, 748, 15458.365155116422},
               {630, 748, 15185.495979460655},
               {666, 748, 15185.495979460655},
               {705, 748, 15112.265649867128},
               {740, 748, 15112.265649867128},
               {748, 748, 15112.265649867128}});

  // Observation never changes the stats.
  auto unobserved = run_fleet(service, *workload, options);
  ASSERT_TRUE(unobserved.is_ok());
  EXPECT_EQ(serving_csv_row({}, *observed), serving_csv_row({}, *unobserved));
}

TEST(FleetTest, RunControlCancelsAReplay) {
  WorkloadOptions wl;
  wl.users = 4;
  wl.branches = 2;
  wl.duration_s = 1.0;
  wl.seed = 11;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  const ServiceModel service = make_service({{2, 4000.0}, {4, 6000.0}});

  // Pre-cancelled: the replay stops at its first checkpoint.
  util::RunControl control;
  control.cancel.request_cancel();
  const util::RunScope scope(control);
  auto stats = run_fleet(service, *workload, FleetOptions{}, &scope);
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);

  // Cancelling mid-replay from the progress callback also stops it.
  util::RunControl midway;
  int ticks = 0;
  midway.on_progress = [&](const util::ProgressEvent&) {
    if (++ticks >= 2) midway.cancel.request_cancel();
  };
  const util::RunScope mid_scope(midway);
  auto mid = run_fleet(service, *workload, FleetOptions{}, &mid_scope);
  ASSERT_FALSE(mid.is_ok());
  EXPECT_EQ(mid.status().code(), StatusCode::kCancelled);
  EXPECT_NE(mid.status().message().find("cancelled"), std::string::npos);
}

TEST(FleetTest, SingleRequestLatencyIsTimeoutPlusPass) {
  // Capacity 4 with one lone request: it waits out the batching timeout and
  // then runs alone.
  const ServiceModel service = make_service({{4, 5000.0}});
  FleetOptions options;
  options.instances = 1;
  options.batch_timeout_us = 1000;
  auto stats =
      run_fleet(service, {make_request(0, 0, 100)}, options);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_DOUBLE_EQ(stats->latency.max, 1000 + 5000);
  EXPECT_EQ(stats->batches, 1);
  EXPECT_DOUBLE_EQ(stats->mean_batch_fill, 0.25);
}

TEST(FleetTest, RoundRobinSpreadsSimultaneousBatches) {
  const ServiceModel service = make_service({{1, 1000.0}});
  FleetOptions options;
  options.instances = 4;
  options.policy = DispatchPolicy::kRoundRobin;
  std::vector<Request> workload;
  for (int i = 0; i < 8; ++i) workload.push_back(make_request(i, 0, 0));
  auto stats = run_fleet(service, workload, options);
  ASSERT_TRUE(stats.is_ok());
  for (const auto& inst : stats->instances) {
    EXPECT_EQ(inst.batches, 2) << "instance " << inst.instance;
  }
}

TEST(FleetTest, LeastLoadedBalancesBusyTime) {
  const ServiceModel service = make_service({{1, 1000.0}});
  FleetOptions options;
  options.instances = 2;
  options.policy = DispatchPolicy::kLeastLoaded;
  std::vector<Request> workload;
  for (int i = 0; i < 16; ++i) workload.push_back(make_request(i, 0, 0));
  auto stats = run_fleet(service, workload, options);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->instances[0].batches, 8);
  EXPECT_EQ(stats->instances[1].batches, 8);
}

TEST(FleetTest, NoStarvationDispatchIsFifoPerBranch) {
  // Overload one instance and verify per-branch dispatch follows arrival
  // order — the oldest request can never be bypassed by a newer one.
  const ServiceModel service = make_service({{2, 3000.0}, {2, 3000.0}});
  FleetOptions options;
  options.instances = 1;
  options.batch_timeout_us = 500;
  options.keep_records = true;
  std::vector<Request> workload;
  for (int i = 0; i < 40; ++i) {
    workload.push_back(
        make_request(i, i % 2, 100.0 * i, /*user=*/i % 5));
  }
  auto stats = run_fleet(service, workload, options);
  ASSERT_TRUE(stats.is_ok());
  ASSERT_EQ(stats->records.size(), workload.size());
  // Records are appended in dispatch order; within a branch the FIFO queue
  // must preserve arrival (= id) order.
  std::int64_t last_id[2] = {-1, -1};
  for (const RequestRecord& rec : stats->records) {
    EXPECT_GT(rec.id, last_id[rec.branch]);
    last_id[rec.branch] = rec.id;
    EXPECT_GE(rec.start_us, rec.arrival_us);
    EXPECT_GT(rec.finish_us, rec.start_us);
  }
}

TEST(FleetTest, BranchAffinityAvoidsSwitchPenalties) {
  // Two alternating branches on three instances, spaced so every instance
  // is idle again before the next arrival: round-robin's modular cycling
  // keeps retargeting instances (3 does not divide 2), while affinity pins
  // each branch to the instance that last ran it.
  const ServiceModel service = make_service({{1, 1000.0}, {1, 1000.0}});
  std::vector<Request> workload;
  for (int i = 0; i < 30; ++i) {
    workload.push_back(make_request(i, i % 2, 1500.0 * i));
  }
  FleetOptions options;
  options.instances = 3;
  options.switch_penalty_us = 500;
  options.batch_timeout_us = 100;

  options.policy = DispatchPolicy::kBranchAffinity;
  auto affinity = run_fleet(service, workload, options);
  options.policy = DispatchPolicy::kRoundRobin;
  auto round_robin = run_fleet(service, workload, options);
  ASSERT_TRUE(affinity.is_ok() && round_robin.is_ok());

  auto total_switches = [](const ServingStats& s) {
    std::int64_t n = 0;
    for (const auto& inst : s.instances) n += inst.branch_switches;
    return n;
  };
  EXPECT_LT(total_switches(*affinity), total_switches(*round_robin));
  EXPECT_LE(affinity->latency.p99, round_robin->latency.p99);
}

TEST(FleetTest, DispatchDecisionsMatchPreHeapGoldens) {
  // Golden pin across the O(K)-scan -> heap/ordered-set dispatcher rewrite:
  // these constants were captured from the linear-scan implementation
  // (users 10, 3 branches, 25 Hz, 2 s, seed 77; service {2x4000, 1x2500,
  // 4x6000}; 4 instances, timeout 1500, switch penalty 300). The heap
  // dispatcher must reproduce every decision bit for bit — a mismatch means
  // the pick order changed, not a tolerable drift.
  WorkloadOptions wl;
  wl.users = 10;
  wl.branches = 3;
  wl.frame_rate_hz = 25;
  wl.duration_s = 2.0;
  wl.seed = 77;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  ASSERT_EQ(workload->size(), 1473u);
  const ServiceModel service =
      make_service({{2, 4000.0}, {1, 2500.0}, {4, 6000.0}});

  struct Golden {
    DispatchPolicy policy;
    double p99, max, mean, wait_p99, fill, depth, makespan;
    std::int64_t batches, switches;
    int max_depth;
  };
  const std::vector<Golden> goldens = {
      {DispatchPolicy::kRoundRobin, 10330.283159261802, 13973.044393419084,
       5761.859252585723, 5093.1434313419741, 0.72879558948261236,
       1.0111572248102842, 2001586.5281865583, 1179, 858, 13},
      {DispatchPolicy::kLeastLoaded, 10110.165168074542, 13673.044393419084,
       5702.3474194867194, 5015.3863474554382, 0.72941426146010191,
       0.98737126748176918, 2001129.4778135957, 1178, 735, 12},
      {DispatchPolicy::kBranchAffinity, 10030.283159261802,
       13673.044393419084, 5641.3096825065304, 5015.3863474554382,
       0.72879558948261236, 0.97452422941809302, 2001129.4778135957, 1179,
       547, 12},
  };
  for (const Golden& golden : goldens) {
    FleetOptions options;
    options.instances = 4;
    options.policy = golden.policy;
    options.batch_timeout_us = 1500;
    options.switch_penalty_us = 300;
    options.sla_bound_us = 20000;
    auto stats = run_fleet(service, *workload, options);
    ASSERT_TRUE(stats.is_ok());
    const char* name = to_string(golden.policy);
    EXPECT_EQ(stats->latency.p99, golden.p99) << name;
    EXPECT_EQ(stats->latency.max, golden.max) << name;
    EXPECT_EQ(stats->latency.mean, golden.mean) << name;
    EXPECT_EQ(stats->queue_wait.p99, golden.wait_p99) << name;
    EXPECT_EQ(stats->mean_batch_fill, golden.fill) << name;
    EXPECT_EQ(stats->mean_queue_depth, golden.depth) << name;
    EXPECT_EQ(stats->makespan_us, golden.makespan) << name;
    EXPECT_EQ(stats->batches, golden.batches) << name;
    EXPECT_EQ(stats->max_queue_depth, golden.max_depth) << name;
    std::int64_t switches = 0;
    for (const auto& inst : stats->instances) switches += inst.branch_switches;
    EXPECT_EQ(switches, golden.switches) << name;
  }
}

TEST(FleetTest, LargeFleetDispatchMatchesSetBasedGoldens) {
  // 1 shard x 256 instances at ~56% utilization, so every policy keeps a
  // large free set to choose from (affinity settles on 197 instances, the
  // other two spread over all 256). Captured from the std::set dispatcher
  // before its array rewrite: the whole stats text (per-instance rows and
  // records included) and the per-request decisions must match bit for bit.
  WorkloadOptions wl;
  wl.users = 200;
  wl.branches = 3;
  wl.frame_rate_hz = 30;
  wl.duration_s = 1.0;
  wl.seed = 2021;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  ASSERT_EQ(workload->size(), 18297u);
  const ServiceModel service =
      make_service({{2, 16000.0}, {1, 10000.0}, {4, 24000.0}});

  struct Golden {
    DispatchPolicy policy;
    const char* csv;
    const char* text_digest;
    const char* decisions_digest;
  };
  const std::vector<Golden> goldens = {
      {DispatchPolicy::kRoundRobin,
       "18297,18297,17852.9729,16880.7590,16109.8974,24711.7674,25102.6508,"
       "25800.0000,920.6770,10677,0.9996,1.9795,7,100000.0000,0.0000,1,"
       "0.5617,0,0,0,0,0",
       "46856eaec91b49e38ac621482034c413", "01bf9480fd3003a284362208216fa189"},
      {DispatchPolicy::kLeastLoaded,
       "18297,18297,17852.9729,16965.0679,16300.0000,24780.4620,25146.3946,"
       "25800.0000,920.6770,10677,0.9996,1.9795,7,100000.0000,0.0000,1,"
       "0.5648,0,0,0,0,0",
       "6f9b3b90363398f01e2816cea6128a86", "ff5800fbf5347a80b85c731ce5bbdddf"},
      {DispatchPolicy::kBranchAffinity,
       "18297,18297,17858.2003,16777.5453,16000.0289,24523.6381,24903.9044,"
       "25500.0000,920.6770,10677,0.9996,1.9801,7,100000.0000,0.0000,1,"
       "0.5584,0,0,0,0,0",
       "33a11c41563be94aa33ab40ecbadfbb0", "87db1e4de4a67f86c4ad0299edc78869"},
  };
  for (const Golden& golden : goldens) {
    FleetOptions options;
    options.instances = 256;
    options.shards = 1;
    options.threads = 1;
    options.policy = golden.policy;
    options.batch_timeout_us = 1500;
    options.switch_penalty_us = 300;
    options.sla_bound_us = 100000;
    options.keep_records = true;
    auto stats = run_fleet(service, *workload, options);
    ASSERT_TRUE(stats.is_ok());
    const char* name = to_string(golden.policy);
    EXPECT_EQ(csv_line(*stats), golden.csv) << name;
    EXPECT_EQ(stats_text_digest(*stats), golden.text_digest) << name;
    EXPECT_EQ(decisions_digest(*stats), golden.decisions_digest) << name;
  }
}

TEST(FleetTest, ShardedReplayValidatesItsOptions) {
  const ServiceModel service = make_service({{1, 1000.0}});
  const std::vector<Request> workload = {make_request(0, 0, 0)};
  FleetOptions options;
  options.instances = 2;
  options.shards = 3;  // more shards than instances
  auto stats = run_fleet(service, workload, options);
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  options.shards = 0;
  EXPECT_FALSE(run_fleet(service, workload, options).is_ok());
  // A malformed progress percentile is a clean error, not a CHECK crash.
  options.shards = 1;
  options.progress_tail_pct = 0;
  auto bad_pct = run_fleet(service, workload, options);
  ASSERT_FALSE(bad_pct.is_ok());
  EXPECT_EQ(bad_pct.status().code(), StatusCode::kInvalidArgument);
  options.progress_tail_pct = 101;
  EXPECT_FALSE(run_fleet(service, workload, options).is_ok());
}

TEST(FleetTest, ShardedReplayConservesAndReproduces) {
  WorkloadOptions wl;
  wl.users = 12;
  wl.branches = 2;
  wl.frame_rate_hz = 50;
  wl.duration_s = 1.5;
  wl.seed = 23;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  const ServiceModel service = make_service({{2, 3000.0}, {4, 5000.0}});

  FleetOptions options;
  options.instances = 8;
  options.shards = 4;
  options.keep_records = true;
  auto a = run_fleet(service, *workload, options);
  auto b = run_fleet(service, *workload, options);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(a->offered, static_cast<std::int64_t>(workload->size()));
  EXPECT_EQ(a->completed, a->offered);
  EXPECT_EQ(a->instances.size(), 8u);
  EXPECT_EQ(serving_csv_row({}, *a), serving_csv_row({}, *b));
  ASSERT_EQ(a->records.size(), b->records.size());
  // Every user's requests stay inside their shard's instance slice (2
  // instances per shard, user u -> shard u mod 4).
  for (const RequestRecord& rec : a->records) {
    const int shard = rec.user % 4;
    EXPECT_GE(rec.instance, 2 * shard);
    EXPECT_LT(rec.instance, 2 * (shard + 1));
  }
  // Per-branch counters account for every request.
  std::int64_t branch_sum = 0;
  for (std::int64_t n : a->branch_completed) branch_sum += n;
  EXPECT_EQ(branch_sum, a->completed);
}

TEST(FleetTest, ShardedProgressEndsWithExactGlobalTail) {
  // A sharded run's in-loop ticks carry shard-local estimates; the terminal
  // tick must still be the exact tail percentile over ALL latencies — even
  // when the last in-loop tick lands exactly at completed == offered.
  WorkloadOptions wl;
  wl.users = 8;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 1.0;
  wl.seed = 57;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  const ServiceModel service = make_service({{2, 3000.0}, {4, 5000.0}});
  FleetOptions options;
  options.instances = 4;
  options.shards = 4;
  options.threads = 1;

  util::RunControl control;
  std::vector<util::ProgressEvent> events;
  control.on_progress = [&](const util::ProgressEvent& event) {
    events.push_back(event);
  };
  const util::RunScope scope(control);
  auto stats = run_fleet(service, *workload, options, &scope);
  ASSERT_TRUE(stats.is_ok());
  ASSERT_GE(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].step, events[i - 1].step);
  }
  EXPECT_EQ(events.back().step, static_cast<int>(stats->completed));
  EXPECT_DOUBLE_EQ(events.back().best_fitness, stats->latency.p99);
  // Pinned: shard-local in-loop estimates, then the exact global terminal.
  expect_fleet_ticks(events, {{48, 974, 13127.042398011807},
                              {97, 974, 13127.042398011807},
                              {144, 974, 12939.664472018194},
                              {192, 974, 12939.664472018194},
                              {240, 974, 12927.435057131952},
                              {288, 974, 12651.079038513082},
                              {336, 974, 17444.147243533633},
                              {384, 974, 13331.350805842492},
                              {432, 974, 13596.894944895525},
                              {481, 974, 13331.350805842492},
                              {528, 974, 12359.584266264224},
                              {576, 974, 13297.460358463926},
                              {624, 974, 12925.967779925442},
                              {672, 974, 12925.967779925442},
                              {720, 974, 12925.967779925442},
                              {769, 974, 12000},
                              {816, 974, 12708.633172712638},
                              {864, 974, 12480.711040492053},
                              {912, 974, 12708.633172712638},
                              {960, 974, 12999.447302240063},
                              {974, 974, 13243.109885479615}});
}

namespace {

/// Fresh per-test path for checkpoint files.
std::string checkpoint_path(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) /
      ("fcad-fleet-" + name + ".ckpt");
  std::filesystem::remove(path);
  return path.string();
}

/// Every serialized stats field, records included (resumed_shards is not
/// serialized).
std::string stats_text(const ServingStats& stats) {
  std::ostringstream os;
  serving_stats_to_text(os, stats);
  return os.str();
}

}  // namespace

TEST(FleetTest, CheckpointResumeMatchesUncancelledRun) {
  WorkloadOptions wl;
  wl.users = 8;
  wl.branches = 2;
  wl.frame_rate_hz = 60;
  wl.duration_s = 2.0;
  wl.seed = 31;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  const ServiceModel service = make_service({{2, 3000.0}, {4, 5000.0}});

  FleetOptions options;
  options.instances = 4;
  options.shards = 4;
  options.threads = 1;  // sequential shards: cancel-at-50% leaves some done
  options.checkpoint_path = checkpoint_path("resume");

  // Reference: the uninterrupted run, no checkpoint involved.
  FleetOptions plain = options;
  plain.checkpoint_path.clear();
  auto reference = run_fleet(service, *workload, plain);
  ASSERT_TRUE(reference.is_ok());

  // Cancel mid-replay; finished shards persist in the checkpoint.
  util::RunControl control;
  const auto cancel_after =
      static_cast<std::int64_t>(workload->size()) / 2;
  control.on_progress = [&](const util::ProgressEvent& event) {
    if (event.step >= cancel_after) control.cancel.request_cancel();
  };
  {
    const util::RunScope scope(control);
    auto cancelled = run_fleet(service, *workload, options, &scope);
    ASSERT_FALSE(cancelled.is_ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  }
  ASSERT_TRUE(std::filesystem::exists(options.checkpoint_path));

  // Resume: loaded shards are not re-simulated, and the merged stats are
  // bit-identical to the uninterrupted run.
  auto resumed = run_fleet(service, *workload, options);
  ASSERT_TRUE(resumed.is_ok());
  EXPECT_GT(resumed->resumed_shards, 0);
  EXPECT_LT(resumed->resumed_shards, 4);
  EXPECT_EQ(serving_csv_row({}, *resumed), serving_csv_row({}, *reference));
  EXPECT_EQ(resumed->latency.p99, reference->latency.p99);
  EXPECT_EQ(resumed->queue_wait.mean, reference->queue_wait.mean);
  EXPECT_EQ(resumed->branch_completed, reference->branch_completed);

  // A completed run leaves a full checkpoint behind: a rerun resumes every
  // shard without simulating anything.
  auto all_cached = run_fleet(service, *workload, options);
  ASSERT_TRUE(all_cached.is_ok());
  EXPECT_EQ(all_cached->resumed_shards, 4);
  EXPECT_EQ(serving_csv_row({}, *all_cached),
            serving_csv_row({}, *reference));
}

TEST(FleetTest, StaleOrTornCheckpointIsIgnored) {
  WorkloadOptions wl;
  wl.users = 4;
  wl.branches = 2;
  wl.duration_s = 0.5;
  wl.seed = 41;
  auto workload = generate_workload(wl);
  ASSERT_TRUE(workload.is_ok());
  const ServiceModel service = make_service({{2, 3000.0}, {4, 5000.0}});
  for (LatencyMode mode : {LatencyMode::kExact, LatencyMode::kSketch}) {
    SCOPED_TRACE(to_string(mode));
    FleetOptions options;
    options.instances = 2;
    options.shards = 2;
    options.latency_mode = mode;
    // Exact shards carry their per-request records through the checkpoint.
    options.keep_records = mode == LatencyMode::kExact;
    options.checkpoint_path = checkpoint_path("stale");

    // Garbage on disk: the replay restarts cleanly instead of misapplying
    // it.
    {
      std::ofstream out(options.checkpoint_path);
      out << "not a checkpoint\n";
    }
    auto garbage = run_fleet(service, *workload, options);
    ASSERT_TRUE(garbage.is_ok());
    EXPECT_EQ(garbage->resumed_shards, 0);

    // That run rewrote a complete matching checkpoint: a rerun resumes it,
    // records included...
    auto full = run_fleet(service, *workload, options);
    ASSERT_TRUE(full.is_ok());
    EXPECT_EQ(full->resumed_shards, 2);
    EXPECT_EQ(stats_text(*full), stats_text(*garbage));

    // ...but a *different* replay (other switch penalty) must not — the
    // fingerprint catches the mismatch.
    FleetOptions other = options;
    other.switch_penalty_us = 123;
    auto mismatched = run_fleet(service, *workload, other);
    ASSERT_TRUE(mismatched.is_ok());
    EXPECT_EQ(mismatched->resumed_shards, 0);

    // Truncating a matching checkpoint also restarts instead of loading a
    // torn file (the original run rewrites it first, since the mismatched
    // run above replaced it with its own).
    ASSERT_TRUE(run_fleet(service, *workload, options).is_ok());
    std::error_code ec;
    const auto size = std::filesystem::file_size(options.checkpoint_path, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(options.checkpoint_path, size / 2, ec);
    ASSERT_FALSE(ec);
    auto torn = run_fleet(service, *workload, options);
    ASSERT_TRUE(torn.is_ok());
    EXPECT_EQ(torn->resumed_shards, 0);
    EXPECT_EQ(serving_csv_row({}, *torn), serving_csv_row({}, *full));

    // Retired formats (text v1, binary v2) are ignored on resume.
    for (const char* header : {"fcad-fleet-checkpoint v1\n", "FCADFLT2"}) {
      {
        std::ofstream out(options.checkpoint_path,
                          std::ios::binary | std::ios::trunc);
        out << header << "fingerprint 0\nshards 2\nend\n";
      }
      auto retired = run_fleet(service, *workload, options);
      ASSERT_TRUE(retired.is_ok());
      EXPECT_EQ(retired->resumed_shards, 0) << header;
      EXPECT_EQ(serving_csv_row({}, *retired), serving_csv_row({}, *full));
    }
  }
}

TEST(FleetTest, SlaViolationsAreCounted) {
  const ServiceModel service = make_service({{1, 2000.0}});
  FleetOptions options;
  options.instances = 1;
  options.sla_bound_us = 2500;
  // Three back-to-back requests on one instance: latencies 2000, 4000, 6000.
  std::vector<Request> workload = {make_request(0, 0, 0),
                                   make_request(1, 0, 0),
                                   make_request(2, 0, 0)};
  auto stats = run_fleet(service, workload, options);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->sla_violations, 2);
  EXPECT_NEAR(stats->sla_violation_rate, 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(stats->sla_met);
}

TEST(FleetTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(*dispatch_policy_by_name("rr"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(*dispatch_policy_by_name("Least-Loaded"),
            DispatchPolicy::kLeastLoaded);
  EXPECT_EQ(*dispatch_policy_by_name("affinity"),
            DispatchPolicy::kBranchAffinity);
  EXPECT_FALSE(dispatch_policy_by_name("random").is_ok());
}

// ---------------------------------------------------------- service model --
TEST(ServiceModelTest, PassTimeFollowsBatchOverFps) {
  arch::AcceleratorConfig config;
  config.branches.resize(2);
  config.branches[0].batch = 2;
  config.branches[1].batch = 4;
  arch::AcceleratorEval eval;
  eval.branches.resize(2);
  eval.branches[0].fps = 100;  // 2 frames per pass => 20 ms per pass
  eval.branches[1].fps = 400;  // 4 frames per pass => 10 ms per pass
  const ServiceModel model = service_model_from_eval(config, eval);
  ASSERT_EQ(model.num_branches(), 2);
  EXPECT_EQ(model.branches[0].capacity, 2);
  EXPECT_DOUBLE_EQ(model.branches[0].pass_us, 20000.0);
  EXPECT_DOUBLE_EQ(model.branches[1].pass_us, 10000.0);
  // Uniform mix: r/100 + r/400 = 1 per instance => r = 80 per branch.
  EXPECT_DOUBLE_EQ(model.peak_rps(), 160.0);
  EXPECT_EQ(model.capacities(), (std::vector<int>{2, 4}));
}

// ---------------------------------------------------------- SLA objective --
/// Objective::sla() against a p99 bound.
double sla_score(int users, double p99_us, double violation_rate,
                 double bound_us) {
  dse::ObjectiveInput input;
  input.has_serving = true;
  input.users_served = users;
  input.p99_latency_us = p99_us;
  input.sla_bound_us = bound_us;
  input.sla_violation_rate = violation_rate;
  return dse::Objective::sla().score(input);
}

TEST(SlaFitnessTest, MoreUsersWinWithinTheBound) {
  EXPECT_GT(sla_score(10, 9000, 0, 10000), sla_score(8, 1000, 0, 10000));
}

TEST(SlaFitnessTest, MeetingTheBoundBeatsMissingIt) {
  EXPECT_GT(sla_score(1, 9999, 0, 10000), sla_score(100, 10001, 0.01, 10000));
}

TEST(SlaFitnessTest, LatencyBreaksTiesOnlyWithinSameUserCount) {
  EXPECT_GT(sla_score(5, 2000, 0, 10000), sla_score(5, 8000, 0, 10000));
  EXPECT_GT(sla_score(6, 9999, 0, 10000), sla_score(5, 1, 0, 10000));
}

// --------------------------------------------------------- traffic search --
TEST(TrafficSearchTest, FindsAConfigMeetingTheSla) {
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());

  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kTraffic;
  spec.search.population = 30;
  spec.search.iterations = 5;
  spec.search.seed = 7;
  spec.traffic.workload.users = 2;
  spec.traffic.workload.frame_rate_hz = 10;
  spec.traffic.workload.duration_s = 0.5;
  spec.traffic.workload.seed = 21;
  spec.traffic.fleet.instances = 2;
  spec.traffic.fleet.sla_bound_us = 250000;  // generous 250 ms bound
  spec.traffic.fleet.batch_timeout_us = 5000;
  spec.traffic.max_batch = 2;

  auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  const dse::TrafficSearchResult& result = outcome->traffic;
  EXPECT_TRUE(result.sla_met);
  EXPECT_GE(result.users_served, 2);
  EXPECT_LE(result.stats.latency.p99, spec.traffic.fleet.sla_bound_us);
  EXPECT_EQ(result.batch_sizes.size(),
            static_cast<std::size_t>(model->num_branches()));
  EXPECT_GT(result.stats.completed, 0);
}

TEST(TrafficSearchTest, ScalesUsersUpToTheCap) {
  // A hand-built fast service model is not possible here (the search runs
  // the real DSE), so keep the search tiny and the SLA loose; the doubling
  // search should then push users past the starting point.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());

  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kTraffic;
  spec.search.population = 20;
  spec.search.iterations = 4;
  spec.search.seed = 3;
  spec.traffic.workload.users = 1;
  spec.traffic.workload.frame_rate_hz = 5;
  spec.traffic.workload.duration_s = 0.5;
  spec.traffic.workload.seed = 9;
  spec.traffic.fleet.instances = 1;
  spec.traffic.fleet.sla_bound_us = 500000;
  spec.traffic.max_batch = 1;
  spec.traffic.max_users = 4;

  auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  const dse::TrafficSearchResult& result = outcome->traffic;
  EXPECT_GE(result.users_served, 1);
  EXPECT_LE(result.users_served, 4);
  if (result.sla_met) {
    EXPECT_LE(result.stats.latency.p99, spec.traffic.fleet.sla_bound_us);
  }
}

TEST(TrafficSearchTest, CallerSetBranchesRejected) {
  // The legacy TrafficProfile silently overwrote workload.branches; the
  // TrafficSpec rejects it with a clear message instead.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());

  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kTraffic;
  spec.search.population = 5;
  spec.search.iterations = 2;
  spec.traffic.workload.branches = 3;  // "helpfully" set by the caller
  auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
  ASSERT_FALSE(outcome.is_ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("derived from the model"),
            std::string::npos);
}

TEST(TrafficSearchTest, OutcomeFollowsTheFleetSlaBound) {
  // fleet.sla_bound_us is the one statement of the bound: the replay scores
  // latencies against it and the default objective shapes headroom by it.
  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  ASSERT_TRUE(model.is_ok());

  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kTraffic;
  spec.search.population = 5;
  spec.search.iterations = 2;
  spec.traffic.workload.users = 1;
  spec.traffic.workload.frame_rate_hz = 5;
  spec.traffic.workload.duration_s = 0.25;
  spec.traffic.max_batch = 1;
  for (const double bound_us : {250000.0, 1.0}) {
    spec.traffic.fleet.sla_bound_us = bound_us;
    auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg()).run(spec);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    const dse::TrafficSearchResult& result = outcome->traffic;
    EXPECT_EQ(result.stats.sla_bound_us, bound_us);
    EXPECT_EQ(result.sla_met, bound_us > 1.0);
    EXPECT_EQ(result.users_served, bound_us > 1.0 ? 1 : 0);
    EXPECT_EQ(result.sla_fitness,
              sla_score(result.users_served, result.stats.latency.p99,
                        result.stats.sla_violation_rate, bound_us));
  }
}

// -------------------------------------------------------------- serve spec --
StatusOr<ReplayJob> replay_job(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "serving_cli");
  auto args = ArgParser::parse(static_cast<int>(argv.size()), argv.data());
  if (!args.is_ok()) return args.status();
  return replay_job_from_args(*args);
}

TEST(ServeSpecTest, ReplayFlagsSetTheFleetBoundAndClock) {
  auto job = replay_job({"--sla-ms", "25", "--clock", "steady"});
  ASSERT_TRUE(job.is_ok()) << job.status().to_string();
  EXPECT_EQ(job->spec.fleet.sla_bound_us, 25000);
  EXPECT_EQ(job->spec.fleet.clock, ClockKind::kSteady);

  // The CLI's default bound is exactly one 30 Hz frame, not the struct's
  // rounded 33333.3 µs; the CLI's outputs depend on it.
  auto defaults = replay_job({});
  ASSERT_TRUE(defaults.is_ok()) << defaults.status().to_string();
  EXPECT_EQ(defaults->spec.fleet.sla_bound_us, 100.0 / 3.0 * 1e3);
  EXPECT_EQ(defaults->spec.fleet.clock, ClockKind::kVirtual);

  EXPECT_FALSE(replay_job({"--clock", "bogus"}).is_ok());
}

TEST(ServeSpecTest, NonFiniteAndOutOfRangeInputsNameTheirField) {
  // Each bad value is rejected at the spec boundary, naming its field —
  // never an invariant abort deep in the shard loop, never a silent report.
  const ServiceModel service = make_service({{2, 3000.0}, {2, 5000.0}});
  auto status_of = [&](std::vector<const char*> flags) {
    flags.insert(flags.end(),
                 {"--replay", "200", "--instances", "2", "--shards", "1"});
    auto job = replay_job(flags);
    if (!job.is_ok()) return job.status();
    return simulate_fleet_stream(service, job->spec).status();
  };
  EXPECT_TRUE(status_of({}).is_ok()) << status_of({}).to_string();
  const struct {
    std::vector<const char*> flags;
    const char* field;
  } cases[] = {
      {{"--timeout-us", "nan"}, "batch_timeout_us"},
      {{"--timeout-us", "inf"}, "batch_timeout_us"},
      {{"--switch-penalty-us", "nan"}, "switch_penalty_us"},
      {{"--switch-penalty-us", "-1e9"}, "switch_penalty_us"},
      {{"--sla-ms", "nan"}, "sla_bound_us"},
      {{"--sla-ms", "0"}, "sla_bound_us"},
      {{"--frame-rate", "nan"}, "frame_rate_hz"},
      {{"--frame-rate", "inf"}, "frame_rate_hz"},
      {{"--cancel-at", "7"}, "--cancel-at"},
      {{"--cancel-at", "nan"}, "--cancel-at"},
  };
  for (const auto& c : cases) {
    const Status status = status_of(c.flags);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.flags[0] << " " << c.flags[1];
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << status.to_string();
  }

  WorkloadOptions workload;
  workload.duration_s = std::numeric_limits<double>::quiet_NaN();
  const Status duration = validate_workload_options(workload);
  EXPECT_EQ(duration.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(duration.message().find("duration_s"), std::string::npos);
}

TEST(ServeSpecTest, SteadyClockReplayPacesTheTraceInRealTime) {
  // Wall mode is the live-pacing mode: the replay sleeps to each event's
  // trace timestamp, so recorded times carry genuine scheduler jitter and
  // are NOT expected to be bit-identical to the virtual run (only the
  // virtual clock is the reproducible mode). What must hold: every request
  // completes, the books balance, and no record dispatches before its
  // arrival or before the schedule allows.
  const ServiceModel service = make_service({{2, 3000.0}, {2, 5000.0}});
  std::vector<Request> workload;
  for (int i = 0; i < 40; ++i) {
    workload.push_back(make_request(i, i % 2, i * 500.0, i % 4));
  }

  ServeSpec steady;
  steady.fleet.instances = 2;
  steady.fleet.keep_records = true;
  steady.fleet.clock = ClockKind::kSteady;
  auto steady_run = simulate_fleet(service, workload, steady);
  ASSERT_TRUE(steady_run.is_ok());

  EXPECT_EQ(steady_run->completed,
            static_cast<std::int64_t>(workload.size()));
  EXPECT_EQ(steady_run->completed, steady_run->offered);
  ASSERT_EQ(steady_run->records.size(), workload.size());
  for (const RequestRecord& r : steady_run->records) {
    EXPECT_GE(r.start_us, r.arrival_us);
    EXPECT_GT(r.finish_us, r.start_us);
  }
  EXPECT_GT(steady_run->latency.p99, 0);
}

}  // namespace
}  // namespace fcad::serving
