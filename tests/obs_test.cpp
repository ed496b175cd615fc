// Pins of the obs:: layer: registry snapshot determinism, histogram bucket
// placement and merge associativity, Chrome-trace JSON well-formedness and
// lane ordering, bounded lane capacity, and the disabled-mode no-op
// contracts (null ambient tracer, collection flag off).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace fcad::obs {
namespace {

TEST(MetricsTest, CountersAndGaugesRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(4);
  reg.gauge("g").set(2.5);
  EXPECT_EQ(reg.counter("a").value(), 7);
  EXPECT_EQ(reg.gauge("g").value(), 2.5);
}

TEST(MetricsTest, SnapshotIsNameSortedRegardlessOfRegistrationOrder) {
  MetricsRegistry forward;
  forward.counter("alpha").add(1);
  forward.counter("beta").add(2);
  MetricsRegistry reverse;
  reverse.counter("beta").add(2);
  reverse.counter("alpha").add(1);

  const MetricsSnapshot a = forward.snapshot();
  const MetricsSnapshot b = reverse.snapshot();
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters[0].first, "alpha");
  EXPECT_EQ(a.counters[1].first, "beta");
  // Identical exports — registration order never leaks into output bytes.
  JsonWriter ja, jb;
  metrics_json(ja, a);
  metrics_json(jb, b);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(MetricsTest, HistogramBucketPlacementAndOverflow) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {10, 20, 30});
  h.observe(5);    // (-inf, 10]
  h.observe(10);   // boundary lands in its own bucket
  h.observe(15);   // (10, 20]
  h.observe(30);   // (20, 30]
  h.observe(31);   // overflow
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.total, 5);
  EXPECT_EQ(snap.sum, 5 + 10 + 15 + 30 + 31);
}

TEST(MetricsTest, HistogramMergeIsAssociativeAndCommutative) {
  const std::vector<double> bounds = {1, 2, 4};
  auto make = [&](std::vector<double> samples) {
    Histogram h("m", bounds);
    for (double s : samples) h.observe(s);
    return h.snapshot();
  };
  const HistogramSnapshot a = make({0.5, 3});
  const HistogramSnapshot b = make({1.5, 9});
  const HistogramSnapshot c = make({2, 2, 0.1});

  const HistogramSnapshot left = merge(merge(a, b), c);
  const HistogramSnapshot right = merge(a, merge(b, c));
  EXPECT_EQ(left.counts, right.counts);
  EXPECT_EQ(left.total, right.total);
  EXPECT_EQ(left.total, 7);
  const HistogramSnapshot swapped = merge(b, a);
  EXPECT_EQ(merge(a, b).counts, swapped.counts);
}

TEST(MetricsTest, ConcurrentCounterBumpsSumExactly) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  util::ThreadPool pool(4);
  pool.parallel_for(1000, [&](std::int64_t) { c.add(1); });
  EXPECT_EQ(c.value(), 1000);
}

TEST(MetricsTest, ResetDropsEverything) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(1);
  reg.histogram("h", {1}).observe(0.5);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsTest, CollectionFlagDefaultsOffAndToggles) {
  EXPECT_FALSE(metrics_collection());
  set_metrics_collection(true);
  EXPECT_TRUE(metrics_collection());
  set_metrics_collection(false);
  EXPECT_FALSE(metrics_collection());
}

TEST(MetricsTest, JsonExportCarriesSchemaAndAllKinds) {
  MetricsRegistry reg;
  reg.counter("c").add(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {10}).observe(3);
  JsonWriter json;
  metrics_json(json, reg.snapshot());
  const std::string text = json.str();
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  EXPECT_NE(text.find("\"c\":2"), std::string::npos);
}

TEST(TraceTest, AmbientTracerDefaultsToNull) {
  EXPECT_EQ(tracer(), nullptr);
  // WallSpan on a null tracer is a no-op, not a crash.
  { WallSpan span(nullptr, LaneId{kDsePid, 0}, "noop", "test"); }
}

TEST(TraceTest, JsonIsWellFormedAndLaneOrdered) {
  Tracer t;
  // Recorded against interleaved lanes; export must come out in LaneId
  // order (serving pid 1 before dse pid 2, tids ascending within a pid).
  t.name_lane({kDsePid, 0}, "dse", "driver");
  t.name_lane({kServingPid, 1}, "serving", "shard 1");
  t.name_lane({kServingPid, 0}, "serving", "shard 0");
  t.complete({kDsePid, 0}, "round 1", "dse", 10, 5);
  t.complete({kServingPid, 1}, "batch", "serving", 0, 100);
  t.instant({kServingPid, 0}, "checkpoint", "serving", 42);
  t.counter({kServingPid, 0}, "queue depth", 7, 3);

  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Lane order: shard 0 metadata precedes shard 1, which precedes dse.
  const std::size_t shard0 = json.find("shard 0");
  const std::size_t shard1 = json.find("shard 1");
  const std::size_t dse = json.find("\"dse\"");
  ASSERT_NE(shard0, std::string::npos);
  ASSERT_NE(shard1, std::string::npos);
  ASSERT_NE(dse, std::string::npos);
  EXPECT_LT(shard0, shard1);
  EXPECT_LT(shard1, dse);
  EXPECT_EQ(t.events(), 4);
  EXPECT_EQ(t.dropped(), 0);
}

TEST(TraceTest, IdenticalRecordingsProduceIdenticalBytes) {
  auto record = [] {
    Tracer t;
    t.name_lane({kServingPid, 0}, "serving", "shard 0");
    for (int i = 0; i < 50; ++i) {
      t.complete({kServingPid, 0}, "batch b" + std::to_string(i % 3),
                 "serving", i * 10.0, 5.0,
                 {{"requests", static_cast<double>(i)}});
    }
    return t.to_json();
  };
  EXPECT_EQ(record(), record());
}

TEST(TraceTest, LaneCapacityDropsDeterministically) {
  constexpr std::int64_t kCap = Tracer::kLaneCapacity;
  Tracer t;
  for (std::int64_t i = 0; i < kCap + 15; ++i) {
    t.complete({kServingPid, 0}, "e" + std::to_string(i), "serving",
               static_cast<double>(i), 1);
  }
  EXPECT_EQ(t.events(), kCap);
  EXPECT_EQ(t.dropped(), 15);
  const std::string json = t.to_json();
  // The export annotates the truncation so a viewer can tell.
  EXPECT_NE(json.find("beyond lane capacity"), std::string::npos);
  // The first kCap events survive; event kCap+ never appears.
  EXPECT_NE(json.find("\"e" + std::to_string(kCap - 1) + "\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"e" + std::to_string(kCap) + "\""),
            std::string::npos);
}

TEST(TraceTest, InstallAndUninstallRoundTrip) {
  Tracer t;
  install_tracer(&t);
  EXPECT_EQ(tracer(), &t);
  {
    WallSpan span(tracer(), LaneId{kDsePid, 0}, "scoped", "test");
  }
  install_tracer(nullptr);
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(t.events(), 1);
}

TEST(TraceTest, ConcurrentAppendsKeepEveryEvent) {
  Tracer t;
  util::ThreadPool pool(4);
  pool.parallel_for(200, [&](std::int64_t i) {
    // One lane per index parity: contended appends must not lose events.
    t.complete({kPoolPid, static_cast<int>(i % 2)},
               "task " + std::to_string(i), "pool", static_cast<double>(i),
               1.0);
  });
  EXPECT_EQ(t.events(), 200);
}

TEST(ObservationScopeTest, EmptyPathsStayDisabled) {
  ObservationScope scope("", "");
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_FALSE(metrics_collection());
  EXPECT_TRUE(scope.finish());
}

TEST(ObservationScopeTest, InstallsAndTearsDownTracer) {
  const std::string path = ::testing::TempDir() + "obs_scope_trace.json";
  {
    ObservationScope scope("", path);
    ASSERT_NE(tracer(), nullptr);
    tracer()->complete({kDsePid, 0}, "work", "test", 0, 1);
    EXPECT_TRUE(scope.finish());
    EXPECT_EQ(tracer(), nullptr);  // finish() tears down immediately
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"work\""), std::string::npos);
}

}  // namespace
}  // namespace fcad::obs
