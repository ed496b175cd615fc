// Free-instance dispatch, promoted out of fleet.cpp so the offline replay
// (fleet.cpp) and the online daemon (daemon.cpp) share one decision
// implementation — per-request dispatch decisions can never diverge between
// the two, which is half of the replay/live parity contract.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
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

/// Dispatch bookkeeping in O(log K) per event with no allocation once
/// constructed. Busy instances live in a free-time min-heap (one live entry
/// each — pushed on dispatch, popped once expired); free instances are a
/// bitmask of 64-bit words (round-robin searches it from the cursor) plus,
/// for the load-aware policies, array-backed tournament trees holding the
/// minimum (busy_us, index) over free instances — one over all of them
/// (least-loaded, and affinity's fallback) and one per last-run branch
/// (branch-affinity). One implementation serves every instance count. Every
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
  /// Minimum (busy_us, index) over a subset of the instances: leaves at
  /// [K, 2K) (an absent instance holds the (+inf, max int) sentinel), node
  /// i the lesser of nodes 2i and 2i+1, the minimum at node 1.
  class LoadTree {
   public:
    explicit LoadTree(int instances);
    /// Adds absent instance `k`; erase removes present instance `k`.
    void insert(int k, double busy_us);
    void erase(int k);
    /// Index of the minimum, or -1 when the subset is empty.
    int min_index() const;

   private:
    struct Key {
      double busy_us;
      int index;
    };
    static constexpr Key kAbsent = {std::numeric_limits<double>::infinity(),
                                    std::numeric_limits<int>::max()};
    /// std::pair order on (busy_us, index): equal loads go to the lower
    /// index.
    static bool less(const Key& a, const Key& b) {
      return a.busy_us < b.busy_us ||
             (a.busy_us == b.busy_us && a.index < b.index);
    }

    std::vector<Key> nodes_;
  };

  void refresh(double now_us);
  bool is_free(int k) const {
    return (free_words_[static_cast<std::size_t>(k) / 64] >> (k % 64)) & 1U;
  }
  /// Lowest free index >= `from`, or -1.
  int first_free_from(int from) const;
  void insert_free(int k);
  void erase_free(int k);

  DispatchPolicy policy_;
  std::vector<InstanceState> instances_;
  /// (free_at_us, index) of busy instances; one live entry per instance.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      busy_;
  std::vector<std::uint64_t> free_words_;  ///< bit k: instance k is free
  int free_count_ = 0;
  /// Free instances by load (least-loaded and branch-affinity only).
  LoadTree free_by_load_;
  /// Free instances by the branch they last ran (branch-affinity only).
  std::vector<LoadTree> free_by_branch_;
  int cursor_ = 0;
};

}  // namespace fcad::serving
