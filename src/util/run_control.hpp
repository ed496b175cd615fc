// Shared execution controls for long-running engine entry points: progress
// observer callbacks, cooperative cancellation, and a wall-clock deadline.
// Honored by every dse::SearchDriver entry point, by the strategy search
// loop between rounds, and by serving::simulate_fleet between events (which
// streams partial percentile estimates as progress). Lives in util so the
// serving layer can honor the same controls without depending on dse.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace fcad::util {

/// Cooperative cancellation: copies share one flag, so the caller keeps a
/// copy, hands another to the search, and can request cancellation from any
/// thread. The search observes it at its next checkpoint (between strategy
/// rounds / probe candidates / fleet events) and returns its best-so-far
/// result.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const {
    flag_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// One progress tick from a running stage.
struct ProgressEvent {
  std::string stage;       ///< emitting stage ("search", "sweep int8@200MHz")
  int step = 0;            ///< completed units, 1-based
  int total_steps = 0;     ///< scheduled units (0 when open-ended)
  /// Emitter-scoped scalar: the best objective value so far for searches,
  /// the partial p99 latency estimate (microseconds) for fleet replays.
  double best_fitness = 0;
};

/// The run controls every driver honors. Copyable; embed one in a SearchSpec.
struct RunControl {
  /// Invoked after each completed unit of work (strategy round, sweep grid
  /// point, convergence run, traffic candidate, fleet replay chunk).
  /// Invocations are serialized by the scope but may arrive from pool worker
  /// threads; keep the callback fast — the emitting worker blocks while it
  /// runs.
  std::function<void(const ProgressEvent&)> on_progress;
  CancellationToken cancel;
  /// Time budget in seconds for the whole run (0 = unlimited), measured
  /// against `now_us` below. A wall-clock deadline makes results
  /// timing-dependent; leave it unset when bit-reproducibility matters —
  /// or inject a virtual time source, which keeps deadlines deterministic.
  double deadline_s = 0;
  /// Time source the deadline is measured on: microseconds on an arbitrary
  /// monotonic origin (e.g. serving::Clock::now_us, so virtual-time replays
  /// enforce *virtual* deadlines deterministically). Unset = the monotonic
  /// wall clock. Must be callable from any worker thread.
  std::function<double()> now_us;
  /// Thread-pool size: -1 inherits the spec's CrossBranchOptions::threads,
  /// 0 = one thread per hardware core, N = exactly N workers.
  int threads = -1;
};

/// Internal view of one run's controls: the deadline resolved to an absolute
/// clock point at run start, progress callbacks serialized. Passed by
/// pointer into long-running loops, which poll should_stop() between units
/// of work.
class RunScope {
 public:
  explicit RunScope(const RunControl& control);
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// True once the token was cancelled or the deadline passed.
  bool should_stop() const;
  bool cancelled() const { return control_.cancel.cancelled(); }

  void emit(const ProgressEvent& event) const;
  /// True when emit() reaches a listener (on_progress is set); emitters may
  /// skip the work of building events nobody receives.
  bool observed() const { return static_cast<bool>(control_.on_progress); }

  /// Resolved pool size: the control's override when set, else `fallback`.
  int threads(int fallback) const {
    return control_.threads >= 0 ? control_.threads : fallback;
  }

 private:
  const RunControl& control_;
  std::function<double()> now_us_;  ///< deadline time source (µs)
  double deadline_at_us_ = 0;       ///< absolute reading the run must end by
  bool has_deadline_ = false;
  mutable std::mutex mutex_;  ///< serializes on_progress invocations
};

}  // namespace fcad::util
