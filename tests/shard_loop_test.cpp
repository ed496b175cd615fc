// The shard loop's observer contract (serving/shard_loop.hpp): an observer
// is write-only — a shard's stats are identical with or without one — its
// phase marks arrive in loop order, every RequestStream draw is marked, and
// the batches it is handed account for every completed request.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "serving/shard_loop.hpp"
#include "serving/stream.hpp"
#include "serving/workload.hpp"

namespace fcad::serving {
namespace {

ServiceModel test_service() {
  ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};
  return service;
}

/// Counts the RequestStream::next() calls made on the stream it wraps.
class CountingStream : public RequestStream {
 public:
  CountingStream(std::unique_ptr<RequestStream> inner, std::int64_t& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  std::optional<Request> next() override {
    ++calls_;
    return inner_->next();
  }
  Status finish_status() const override { return inner_->finish_status(); }

 private:
  std::unique_ptr<RequestStream> inner_;
  std::int64_t& calls_;
};

/// Records everything run_shard hands its observer.
struct Recorder : ShardObserver {
  void on_start(const FleetEngine& started) { engine = &started; }
  void on_phase(ShardPhase phase) { marks.push_back(phase); }
  void on_batch(const Batch& batch, int, double dispatch_us, double) {
    ++batches;
    batched += static_cast<std::int64_t>(batch.requests.size());
    EXPECT_EQ(dispatch_us, batch.formed_us);
  }

  const FleetEngine* engine = nullptr;
  std::vector<ShardPhase> marks;
  std::int64_t batches = 0;
  std::int64_t batched = 0;
};

/// True when `marks` is a run of loop iterations joined by kAdvance, each
/// (kIngest kDraw+)* kIngest [kTick] kDispatch kNextEvent.
bool in_loop_order(const std::vector<ShardPhase>& marks) {
  std::size_t i = 0;
  const auto at = [&](ShardPhase phase) {
    return i < marks.size() && marks[i] == phase;
  };
  while (true) {
    while (true) {
      if (!at(ShardPhase::kIngest)) return false;
      ++i;
      if (!at(ShardPhase::kDraw)) break;
      while (at(ShardPhase::kDraw)) ++i;
    }
    if (at(ShardPhase::kTick)) ++i;
    if (!at(ShardPhase::kDispatch)) return false;
    ++i;
    if (!at(ShardPhase::kNextEvent)) return false;
    ++i;
    if (i == marks.size()) return true;
    if (!at(ShardPhase::kAdvance)) return false;
    ++i;
  }
}

/// Every field of a shard's result, sketches by their byte encoding.
void expect_same_shard(const ShardStats& a, const ShardStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.fill_sum, b.fill_sum);
  EXPECT_EQ(a.depth_integral_us, b.depth_integral_us);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.waits, b.waits);
  EXPECT_EQ(a.latency_mode, b.latency_mode);
  EXPECT_EQ(a.latency_sketch.to_bytes(), b.latency_sketch.to_bytes());
  EXPECT_EQ(a.wait_sketch.to_bytes(), b.wait_sketch.to_bytes());
  EXPECT_EQ(a.branch_completed, b.branch_completed);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t k = 0; k < a.instances.size(); ++k) {
    EXPECT_EQ(a.instances[k].instance, b.instances[k].instance);
    EXPECT_EQ(a.instances[k].batches, b.instances[k].batches);
    EXPECT_EQ(a.instances[k].requests, b.instances[k].requests);
    EXPECT_EQ(a.instances[k].branch_switches, b.instances[k].branch_switches);
    EXPECT_EQ(a.instances[k].busy_us, b.instances[k].busy_us);
  }
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t k = 0; k < a.records.size(); ++k) {
    EXPECT_EQ(a.records[k].id, b.records[k].id);
    EXPECT_EQ(a.records[k].instance, b.records[k].instance);
    EXPECT_EQ(a.records[k].start_us, b.records[k].start_us);
    EXPECT_EQ(a.records[k].finish_us, b.records[k].finish_us);
  }
  EXPECT_EQ(a.scale_up_events, b.scale_up_events);
  EXPECT_EQ(a.scale_down_events, b.scale_down_events);
  EXPECT_EQ(a.reshard_splits, b.reshard_splits);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.recover_events, b.recover_events);
}

/// One shard of `plan` over `stream`, on a virtual clock started at the
/// first arrival, observed by `observer`.
template <typename Observer>
ShardStats run_observed(const ServiceModel& service, const ReplayPlan& plan,
                        const ServeSpec& spec, int shard,
                        std::unique_ptr<RequestStream> stream,
                        std::int64_t expected, Observer&& observer) {
  ShardSource source(std::move(stream), shard, plan.options.shards);
  const Request* first = source.peek(observer);
  const std::unique_ptr<Clock> clock =
      make_clock(ClockKind::kVirtual, first != nullptr ? first->arrival_us : 0);
  ShardTally tally;
  auto stats = run_shard(service, source, *clock, plan, spec.elastic, shard,
                         expected, nullptr, tally, observer);
  EXPECT_TRUE(stats.is_ok());
  EXPECT_TRUE(source.finish_status().is_ok());
  EXPECT_EQ(tally.completed, stats->completed);
  EXPECT_EQ(tally.shed, 0);
  return std::move(stats).value();
}

/// Runs shard `shard` bare and under a Recorder, and checks the contract.
/// `make_stream` builds a fresh copy of the shard's stream per run.
template <typename MakeStream>
Recorder expect_observer_contract(const ServiceModel& service,
                                  const ReplayPlan& plan,
                                  const ServeSpec& spec, int shard,
                                  std::int64_t expected,
                                  MakeStream make_stream) {
  const ShardStats bare = run_observed(
      service, plan, spec, shard, make_stream(), expected, ShardObserver{});
  std::int64_t next_calls = 0;
  Recorder recorder;
  const ShardStats observed = run_observed(
      service, plan, spec, shard,
      std::make_unique<CountingStream>(make_stream(), next_calls), expected,
      recorder);

  expect_same_shard(observed, bare);
  EXPECT_NE(recorder.engine, nullptr);
  EXPECT_TRUE(in_loop_order(recorder.marks));
  std::int64_t draws = 0;
  for (ShardPhase phase : recorder.marks) {
    draws += phase == ShardPhase::kDraw ? 1 : 0;
  }
  EXPECT_EQ(draws, next_calls);
  EXPECT_GT(observed.completed, 0);
  EXPECT_EQ(recorder.batched, observed.completed);
  EXPECT_EQ(recorder.batches, observed.batches);
  return recorder;
}

TEST(ShardLoopTest, TraceShardObserverIsWriteOnlyAndSeesEveryPhase) {
  const ServiceModel service = test_service();
  ServeSpec spec;
  spec.workload.users = 6;
  spec.workload.branches = 2;
  spec.workload.frame_rate_hz = 60;
  spec.workload.seed = 5;
  spec.fleet.instances = 4;
  spec.fleet.shards = 2;
  spec.fleet.keep_records = true;
  auto trace = generate_workload(spec.workload);
  ASSERT_TRUE(trace.is_ok());
  auto plan = plan_replay(service, spec, &*trace);
  ASSERT_TRUE(plan.is_ok());
  const std::vector<Request> slice = plan->trace_shards[1];
  const auto stream = [&slice] {
    return std::make_unique<VectorRequestStream>(slice);
  };
  const auto expected = static_cast<std::int64_t>(slice.size());
  const Recorder recorder =
      expect_observer_contract(service, *plan, spec, 1, expected, stream);
  // A trace slice holds only the shard's users: one draw per request, plus
  // the draws that find the slice exhausted.
  std::int64_t draws = 0;
  for (ShardPhase phase : recorder.marks) {
    draws += phase == ShardPhase::kDraw ? 1 : 0;
  }
  EXPECT_GT(draws, static_cast<std::int64_t>(slice.size()));
}

TEST(ShardLoopTest, StreamShardObserverIsWriteOnlyAndSeesElasticTicks) {
  const ServiceModel service = test_service();
  ServeSpec spec;
  spec.workload.users = 8;
  spec.workload.branches = 2;
  spec.workload.frame_rate_hz = 40;
  spec.workload.seed = 9;
  spec.workload.target_requests = 4000;
  spec.fleet.instances = 4;
  spec.fleet.shards = 2;
  spec.fleet.latency_mode = LatencyMode::kSketch;
  auto elastic = elastic_from_string(
      "scale:max=8,high=0.6,low=0.2,window_us=100000,cooldown_us=100000");
  ASSERT_TRUE(elastic.is_ok());
  spec.elastic = *elastic;
  auto plan = plan_replay(service, spec, nullptr);
  ASSERT_TRUE(plan.is_ok());
  const auto stream = [&] {
    auto made = make_request_stream(plan->workload, spec.scenario);
    return std::move(made).value();
  };
  const Recorder recorder =
      expect_observer_contract(service, *plan, spec, 1, plan->offered, stream);
  std::int64_t ticks = 0;
  for (ShardPhase phase : recorder.marks) {
    ticks += phase == ShardPhase::kTick ? 1 : 0;
  }
  EXPECT_GT(ticks, 0) << "an elastic shard marks its controller ticks";
}

}  // namespace
}  // namespace fcad::serving
