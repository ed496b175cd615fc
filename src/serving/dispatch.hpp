// Free-instance dispatch, promoted out of fleet.cpp so the offline replay
// (fleet.cpp) and the online daemon (daemon.cpp) share one decision
// implementation — per-request dispatch decisions can never diverge between
// the two, which is half of the replay/live parity contract.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "serving/fleet.hpp"

namespace fcad::serving {

/// Running state of one accelerator instance inside a Dispatcher.
struct InstanceState {
  double free_at_us = 0;
  double busy_us = 0;
  int last_branch = -1;
  std::int64_t batches = 0;
  std::int64_t requests = 0;
  std::int64_t switches = 0;
  /// Inactive instances never get picked: they are scale-up headroom or
  /// faulted/scaled-down capacity (the elastic layer flips this flag).
  bool active = true;
};

/// Dispatch bookkeeping in O(log K) per event instead of the former O(K)
/// scans: busy instances live in a free-time min-heap (one live entry each —
/// pushed on dispatch, popped once expired), free instances in ordered sets
/// keyed the way each policy picks (index order for round-robin, (busy_us,
/// index) for least-loaded, the same per last-branch for affinity). Every
/// pick reproduces the linear-scan decisions exactly, ties still breaking
/// toward the lowest index.
class Dispatcher {
 public:
  /// `initially_active` < 0 activates every instance (the static fleet);
  /// otherwise instances [0, initially_active) start active and the rest
  /// are headroom until set_active turns them on.
  Dispatcher(DispatchPolicy policy, int instances, int branches,
             int initially_active = -1);

  const std::vector<InstanceState>& instances() const { return instances_; }

  /// Flips instance `k`'s active flag at `now_us`. Activating an idle
  /// instance makes it immediately pickable; deactivating a busy one lets
  /// the batch in flight finish, after which the instance idles.
  void set_active(int k, bool on, double now_us);
  bool is_active(int k) const {
    return instances_[static_cast<std::size_t>(k)].active;
  }

  /// Total accumulated busy time across all instances — the elastic
  /// autoscaler differences this across evaluation windows.
  double total_busy_us() const;

  /// Earliest time any instance frees up after `now_us` (+inf if none busy).
  double next_free_us(double now_us);

  /// True when at least one instance is free at `now_us`.
  bool any_free(double now_us);

  /// Picks the instance to run a `branch` batch at `now_us`, or -1 when all
  /// are busy. Deterministic: ties break toward the lowest index.
  int pick(int branch, double now_us);

  /// Commits a `requests`-sized batch of `branch` to instance `k` (which
  /// pick() just returned as free) and returns its completion time.
  double dispatch(int k, int branch, double now_us, double base_pass_us,
                  double switch_penalty_us, std::int64_t requests);

 private:
  void refresh(double now_us);
  void insert_free(int k);
  void erase_free(int k);

  DispatchPolicy policy_;
  std::vector<InstanceState> instances_;
  /// (free_at_us, index) of busy instances; one live entry per instance.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      busy_;
  std::set<int> free_by_index_;
  std::set<std::pair<double, int>> free_by_load_;  ///< (busy_us, index)
  std::vector<std::set<std::pair<double, int>>> free_by_branch_;
  int cursor_ = 0;
};

}  // namespace fcad::serving
