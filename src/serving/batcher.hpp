// Batch aggregation (serving step 2): groups pending requests per decoder
// branch up to the *searched* per-branch batch size (the replicated pipeline
// copies of the accelerator config), with a timeout so a lone request is
// never stranded waiting for a batch to fill.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "serving/workload.hpp"

namespace fcad::serving {

/// A formed batch ready for dispatch to an accelerator instance.
struct Batch {
  int branch = 0;
  std::vector<Request> requests;  ///< 1..capacity requests, FIFO order
  double formed_us = 0;           ///< time the batch was popped
};

/// Per-branch FIFO queues with a size cap and a wait timeout.
///
/// A branch queue is "ready" when it holds at least `capacity[branch]`
/// requests (a full pass) or its oldest request has waited `timeout_us`.
/// `close()` guarantees the tail drains even when no timeout is configured.
class BatchAggregator {
 public:
  /// `capacity[j]` is branch j's batch-size cap; every entry must be >= 1.
  /// `timeout_us <= 0` means "no timeout" (batches form only when full or
  /// after close()).
  BatchAggregator(std::vector<int> capacity, double timeout_us);

  /// Enqueues one request. The branch must be within range.
  void enqueue(const Request& request);

  /// Declares the arrival stream finished. With a timeout configured the
  /// tail drains on the timeout's schedule; without one, close() makes every
  /// non-empty queue ready immediately so nothing is stranded.
  void close() { closed_ = true; }

  /// True when some branch has a dispatchable batch at `now_us`.
  bool has_ready(double now_us) const { return ready_branch(now_us) >= 0; }

  /// Branch of the batch `pop_ready` would return, or -1 if none. Readiness
  /// is tie-broken toward the branch with the oldest waiting request, so
  /// dispatch order is fair across branches (no branch starves).
  int ready_branch(double now_us) const;

  /// Pops the ready batch with the oldest head-of-line request, capped at
  /// the branch capacity, into `out` (its request buffer is reused, so a
  /// caller popping into one Batch allocates nothing once it has grown to
  /// the largest capacity). Returns false, leaving `out` untouched, when
  /// nothing is ready.
  bool pop_ready(double now_us, Batch& out);

  /// Earliest future time a queue becomes ready by timeout alone, or
  /// +infinity when every queue is empty (or no timeout is configured).
  double next_deadline_us() const;

  /// Arrival time of `branch`'s head-of-line request (+infinity when the
  /// queue is empty) — the cross-cell fairness key in FleetEngine.
  double head_arrival_us(int branch) const;

  std::size_t pending() const { return pending_; }
  int num_branches() const { return static_cast<int>(queues_.size()); }
  int capacity(int branch) const {
    return capacity_[static_cast<std::size_t>(branch)];
  }

 private:
  std::vector<int> capacity_;
  double timeout_us_ = 0;
  bool closed_ = false;
  std::vector<std::deque<Request>> queues_;
  std::size_t pending_ = 0;  ///< requests across all queues
};

}  // namespace fcad::serving
