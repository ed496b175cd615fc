// serving::Dispatcher against a naive linear-scan reference, and the
// allocation discipline of the dispatch hot path (Dispatcher and
// FleetEngine::dispatch_ready allocate nothing once constructed).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "serving/clock.hpp"
#include "serving/dispatch.hpp"
#include "serving/engine.hpp"
#include "serving/service.hpp"
#include "serving/workload.hpp"

// Global operator new counts its calls while `g_counting` is set, so a test
// can assert that a code region performs no heap allocation.
namespace {
bool g_counting = false;
std::int64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fcad::serving {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap allocations made while an instance is alive.
class AllocationCount {
 public:
  AllocationCount() : start_(g_allocations) { g_counting = true; }
  ~AllocationCount() { g_counting = false; }
  std::int64_t made() const { return g_allocations - start_; }

 private:
  std::int64_t start_;
};

/// The definition the Dispatcher must reproduce, by linear scan: an
/// instance is free when it is active and free_at_us <= now; round-robin
/// searches from the cursor and wraps; least-loaded takes the minimum
/// (busy_us, index); branch-affinity takes the least-loaded free instance
/// whose last batch was the branch, else falls back to least-loaded.
class NaiveDispatcher {
 public:
  NaiveDispatcher(DispatchPolicy policy, int instances, int initially_active)
      : policy_(policy), instances_(static_cast<std::size_t>(instances)) {
    const int active = initially_active < 0 ? instances : initially_active;
    for (int k = active; k < instances; ++k) at(k).active = false;
  }

  const std::vector<InstanceState>& instances() const { return instances_; }

  void set_active(int k, bool on) { at(k).active = on; }

  double next_free_us(double now_us) const {
    double next = kInf;
    for (const InstanceState& inst : instances_) {
      if (inst.free_at_us > now_us) next = std::min(next, inst.free_at_us);
    }
    return next;
  }

  bool any_free(double now_us) const {
    for (int k = 0; k < size(); ++k) {
      if (is_free(k, now_us)) return true;
    }
    return false;
  }

  int pick(int branch, double now_us) {
    switch (policy_) {
      case DispatchPolicy::kRoundRobin:
        for (int i = 0; i < size(); ++i) {
          const int k = (cursor_ + i) % size();
          if (is_free(k, now_us)) {
            cursor_ = (k + 1) % size();
            return k;
          }
        }
        return -1;
      case DispatchPolicy::kLeastLoaded:
        return least_loaded(now_us, -1);
      case DispatchPolicy::kBranchAffinity: {
        const int k = least_loaded(now_us, branch);
        return k >= 0 ? k : least_loaded(now_us, -1);
      }
    }
    return -1;
  }

  double dispatch(int k, int branch, double now_us, double base_pass_us,
                  double switch_penalty_us, std::int64_t requests) {
    InstanceState& inst = at(k);
    double pass_us = base_pass_us;
    if (inst.last_branch >= 0 && inst.last_branch != branch) {
      pass_us += switch_penalty_us;
      ++inst.switches;
    }
    inst.free_at_us = now_us + pass_us;
    inst.busy_us += pass_us;
    inst.last_branch = branch;
    ++inst.batches;
    inst.requests += requests;
    return inst.free_at_us;
  }

 private:
  int size() const { return static_cast<int>(instances_.size()); }
  InstanceState& at(int k) { return instances_[static_cast<std::size_t>(k)]; }
  bool is_free(int k, double now_us) const {
    const InstanceState& inst = instances_[static_cast<std::size_t>(k)];
    return inst.active && inst.free_at_us <= now_us;
  }

  /// Lowest (busy_us, index) over free instances, restricted to those
  /// whose last batch was `branch` when `branch` >= 0.
  int least_loaded(double now_us, int branch) const {
    int best = -1;
    for (int k = 0; k < size(); ++k) {
      const InstanceState& inst = instances_[static_cast<std::size_t>(k)];
      if (!is_free(k, now_us)) continue;
      if (branch >= 0 && inst.last_branch != branch) continue;
      // Strict: an equal load keeps the earlier (lower) index.
      if (best < 0 ||
          inst.busy_us < instances_[static_cast<std::size_t>(best)].busy_us) {
        best = k;
      }
    }
    return best;
  }

  DispatchPolicy policy_;
  std::vector<InstanceState> instances_;
  int cursor_ = 0;
};

void expect_same_state(const Dispatcher& real, const NaiveDispatcher& naive,
                       const std::string& label, int step) {
  ASSERT_EQ(real.instances().size(), naive.instances().size());
  for (std::size_t k = 0; k < real.instances().size(); ++k) {
    const InstanceState& a = real.instances()[k];
    const InstanceState& b = naive.instances()[k];
    const bool same =
        a.free_at_us == b.free_at_us && a.busy_us == b.busy_us &&
        a.last_branch == b.last_branch && a.batches == b.batches &&
        a.requests == b.requests && a.switches == b.switches &&
        a.active == b.active;
    ASSERT_TRUE(same) << label << " step " << step << " instance " << k;
  }
}

/// One seeded random sequence of dispatcher calls, replayed on both
/// implementations. Pass times and the switch penalty are whole
/// milliseconds, so equal busy_us (the tie-break cases) are frequent;
/// set_active hits busy instances too (deactivation mid-batch). Adds the
/// real dispatcher's allocations over the sequence to `allocations`.
void run_sequence(DispatchPolicy policy, int instances, std::uint64_t seed,
                  std::int64_t& allocations) {
  constexpr int kBranches = 3;
  constexpr int kSteps = 4000;
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const int initially_active = draw(3) == 0 ? -1 : draw(instances + 1);
  Dispatcher real(policy, instances, kBranches, initially_active);
  NaiveDispatcher naive(policy, instances, initially_active);
  double now_us = 0;
  const std::string label = std::string(to_string(policy)) + " K=" +
                            std::to_string(instances) + " seed " +
                            std::to_string(seed);
  for (int step = 0; step < kSteps; ++step) {
    const int op = draw(20);
    if (op < 4) {
      const double steps_us[] = {0, 250, 1000, 2000, 5000};
      now_us += steps_us[draw(5)];
    } else if (op < 14) {
      // A burst of batches at one instant, until one finds no instance.
      const int burst = 1 + draw(instances + 2);
      for (int b = 0; b < burst; ++b) {
        const int branch = draw(kBranches);
        int k = -1;
        {
          AllocationCount count;
          k = real.pick(branch, now_us);
          allocations += count.made();
        }
        ASSERT_EQ(k, naive.pick(branch, now_us)) << label << " step " << step;
        if (k < 0) break;
        const double pass_us = 1000.0 * (1 + draw(2));
        const double penalty_us = 1000.0 * draw(2);
        const std::int64_t requests = 1 + draw(4);
        double finish_us = 0;
        {
          AllocationCount count;
          finish_us =
              real.dispatch(k, branch, now_us, pass_us, penalty_us, requests);
          allocations += count.made();
        }
        ASSERT_EQ(finish_us, naive.dispatch(k, branch, now_us, pass_us,
                                            penalty_us, requests))
            << label << " step " << step;
      }
    } else if (op < 17) {
      const int k = draw(instances);
      const bool on = draw(2) == 0;
      {
        AllocationCount count;
        real.set_active(k, on, now_us);
        allocations += count.made();
      }
      naive.set_active(k, on);
    } else if (op < 19) {
      double next = 0;
      {
        AllocationCount count;
        next = real.next_free_us(now_us);
        allocations += count.made();
      }
      ASSERT_EQ(next, naive.next_free_us(now_us)) << label << " step " << step;
    } else {
      bool any = false;
      {
        AllocationCount count;
        any = real.any_free(now_us);
        allocations += count.made();
      }
      ASSERT_EQ(any, naive.any_free(now_us)) << label << " step " << step;
    }
    expect_same_state(real, naive, label, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DispatcherTest, MatchesLinearScanReferenceForEveryPolicyAndSize) {
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kBranchAffinity}) {
    for (int instances : {1, 5, 63, 64, 65, 300}) {
      for (std::uint64_t seed : {11u, 12u, 13u}) {
        std::int64_t allocations = 0;
        run_sequence(policy, instances, seed, allocations);
        if (HasFatalFailure()) return;
        EXPECT_EQ(allocations, 0)
            << to_string(policy) << " K=" << instances << " seed " << seed;
      }
    }
  }
}

TEST(DispatcherTest, EqualLoadsGoToTheLowerIndex) {
  // Four idle instances, all at busy_us 0: least-loaded takes them in index
  // order, and once each has run one equal pass the order repeats.
  Dispatcher d(DispatchPolicy::kLeastLoaded, 4, 1);
  for (int round = 0; round < 2; ++round) {
    const double now_us = 1000.0 * round;
    for (int k = 0; k < 4; ++k) {
      ASSERT_EQ(d.pick(0, now_us), k);
      d.dispatch(k, 0, now_us, 1000, 0, 1);
    }
    EXPECT_EQ(d.pick(0, now_us), -1);
  }
}

TEST(DispatcherTest, AffinityFallsBackToLeastLoaded) {
  Dispatcher d(DispatchPolicy::kBranchAffinity, 3, 2);
  d.dispatch(d.pick(0, 0), 0, 0, 1000, 0, 1);  // instance 0 runs branch 0
  d.dispatch(d.pick(1, 0), 1, 0, 3000, 0, 1);  // no branch-1 instance: 1
  EXPECT_EQ(d.pick(1, 1000), 2);  // 1 is busy, 2 is the least loaded
  EXPECT_EQ(d.pick(0, 1000), 0);  // 0 is free again and affine
  EXPECT_EQ(d.pick(1, 3000), 1);
}

TEST(DispatchReadyTest, AllocatesNothingPerBatch) {
  // The engine's whole dispatch step — batch pop, instance pick and commit,
  // latency accounting — runs on buffers sized at construction.
  WorkloadOptions wl;
  wl.users = 24;
  wl.branches = 3;
  wl.frame_rate_hz = 30;
  wl.duration_s = 2.0;
  wl.seed = 5;
  auto requests = generate_workload(wl);
  ASSERT_TRUE(requests.is_ok());
  ServiceModel service;
  service.branches = {{2, 4000.0}, {1, 2500.0}, {4, 6000.0}};
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kBranchAffinity}) {
    FleetEngineConfig config;
    config.policy = policy;
    config.batch_timeout_us = 1500;
    config.switch_penalty_us = 300;
    config.instances = 6;
    config.expected_requests = static_cast<std::int64_t>(requests->size());
    VirtualClock clock(requests->front().arrival_us);
    FleetEngine engine(service, config, &clock);
    std::int64_t allocations = 0;
    std::size_t next = 0;
    while (true) {
      while (next < requests->size() &&
             (*requests)[next].arrival_us <= engine.now_us()) {
        engine.enqueue((*requests)[next++]);
      }
      if (next == requests->size()) engine.close();
      {
        AllocationCount count;
        engine.dispatch_ready();
        allocations += count.made();
      }
      double t_us = engine.next_event_us();
      if (next < requests->size()) {
        t_us = std::min(t_us, (*requests)[next].arrival_us);
      }
      if ((next == requests->size() && engine.drained()) || t_us == kInf) {
        break;
      }
      engine.advance_to(t_us);
    }
    const ShardStats stats = engine.take_stats();
    EXPECT_EQ(stats.completed, static_cast<std::int64_t>(requests->size()))
        << to_string(policy);
    EXPECT_GT(stats.batches, 1000) << to_string(policy);
    EXPECT_EQ(allocations, 0) << to_string(policy);
  }
}

}  // namespace
}  // namespace fcad::serving
