// Elastic fleet policies (serving step 8b): deterministic autoscaling and
// dynamic resharding layered over the per-shard FleetEngine loops.
//
// The fleet becomes a *provisioned pool*: `FleetOptions::instances` are
// initially active, `AutoscaleSpec::max_instances` bounds what scale-up may
// additionally activate. Instances are partitioned across shards once, up
// front, over the provisioned total, so global instance ids (obs lanes,
// fault schedules) never move. Every decision — scale up/down, cell split,
// fault/recover — is a pure function of shard-local state at virtual-time
// boundaries, which keeps elastic replays bit-identical for any thread
// count: the same contract the static fleet pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serving/scenario.hpp"
#include "util/status.hpp"

namespace fcad::serving {

class FleetEngine;

/// Rolling-utilization autoscaler. Disabled while `max_instances <= 0`.
/// Utilization over each evaluation window is Δ(Σ instance busy µs) /
/// (elapsed µs × active instances); one instance joins when it exceeds
/// `high_watermark`, one leaves when it drops under `low_watermark`, with
/// `cooldown_us` hysteresis between decisions in either direction.
struct AutoscaleSpec {
  int max_instances = 0;        ///< provisioned cap; <= 0 disables scaling
  double high_watermark = 0.85; ///< scale up above this utilization
  double low_watermark = 0.25;  ///< scale down below this utilization
  double window_us = 100000;    ///< evaluation cadence
  double cooldown_us = 250000;  ///< min gap between scaling decisions
  int min_instances = 1;        ///< fleet-wide floor scale-down respects

  bool operator==(const AutoscaleSpec&) const = default;
};

/// Shard-local dynamic resharding. Disabled while `p99_fraction <= 0`.
/// When the rolling p99 over the last `window` completions drifts past
/// `p99_fraction * sla_bound_us`, the shard splits its hottest cell's user
/// range in two (up to `max_cells` cells), subject to `cooldown_us`.
struct ReshardSpec {
  double p99_fraction = 0;  ///< trigger threshold as a fraction of the SLA
  int window = 256;         ///< completions in the rolling p99 window
  double cooldown_us = 250000;
  int max_cells = 4;        ///< cap on user-range cells per shard

  bool operator==(const ReshardSpec&) const = default;
};

struct ElasticSpec {
  AutoscaleSpec autoscale;
  ReshardSpec reshard;

  bool autoscale_enabled() const { return autoscale.max_instances > 0; }
  bool reshard_enabled() const { return reshard.p99_fraction > 0; }
  bool enabled() const { return autoscale_enabled() || reshard_enabled(); }
  bool operator==(const ElasticSpec&) const = default;
};

/// Validates enabled layers: watermarks need 0 < low < high <= 1 and
/// window/cooldown finite and sane; resharding needs a finite p99_fraction
/// > 0, window >= 1, and max_cells >= 2 (a one-cell cap can never split).
/// A NaN p99_fraction is rejected even though it reads as disabled.
Status validate_elastic(const ElasticSpec& spec);

/// Canonical one-line form, reparseable by elastic_from_string. Clauses:
///   scale:max=<k>,high=<u>,low=<u>,window_us=<t>,cooldown_us=<t>,min=<k>
///   reshard:frac=<f>,window=<n>,cooldown_us=<t>,cells=<n>
/// A fully disabled spec prints as "none".
std::string elastic_to_string(const ElasticSpec& spec);

/// Parses the elastic_to_string grammar ("none"/"" -> disabled spec) and
/// validates the result. Every value must be finite, count fields
/// integral, and a present clause must enable its layer (scale max >= 1,
/// reshard frac > 0) — a policy the text asks for never silently vanishes.
StatusOr<ElasticSpec> elastic_from_string(const std::string& text);

/// Fixed-size rolling window with a lazily computed exact nearest-rank p99
/// — shared by the admission gate and the reshard trigger.
class RollingP99Window {
 public:
  explicit RollingP99Window(int window);

  void add(double value);
  std::int64_t count() const { return count_; }
  bool full() const {
    return count_ >= static_cast<std::int64_t>(ring_.size());
  }
  /// Exact nearest-rank p99 over the samples currently in the window
  /// (0 while empty). O(window) on first call after an add, O(1) after.
  double p99() const;

 private:
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::int64_t count_ = 0;
  mutable bool dirty_ = false;
  mutable double p99_ = 0;
};

/// One scheduled change of an instance's fault state, shard-local indices.
struct LocalFaultEvent {
  double t_us = 0;
  int local_instance = 0;
  bool fail = false;  ///< true = fail at t, false = recover at t
};

/// One shard's slice of the provisioned pool plus its local fault schedule.
struct ShardElasticPlan {
  int first_instance = 0;  ///< global id of the slice's first instance
  int provisioned = 1;     ///< slice size (what the engine constructs)
  int initial_active = 1;  ///< instances active before any scaling
  int min_active = 1;      ///< scale-down floor for this shard
  std::vector<LocalFaultEvent> faults;  ///< sorted by (t_us, instance)
};

/// Partitions the provisioned pool max(instances, autoscale.max_instances)
/// fairly across `shards` (contiguous slices, remainder to low shards —
/// the same split the static fleet uses, so a disabled spec reproduces it
/// exactly), actives `instances` of them (each shard activates a prefix of
/// its slice), and routes `faults` to the owning shard in local indices.
/// Faults naming instances outside the provisioned pool are rejected.
StatusOr<std::vector<ShardElasticPlan>> plan_elastic_shards(
    const ElasticSpec& spec, const std::vector<InstanceFault>& faults,
    int instances, int shards);

/// Drives one shard's elastic decisions from inside its event loop. The
/// loop calls tick() before dispatching and folds next_event_us() into its
/// time-advance target; the engine feeds completions back via
/// on_complete(). Everything is keyed on virtual-time readings, never on
/// wall time or thread identity.
class ElasticController {
 public:
  ElasticController(const ElasticSpec& spec, const ShardElasticPlan& plan,
                    double sla_bound_us);

  /// Applies every fault event due by `now_us` and, when an evaluation
  /// boundary has been crossed, one autoscale and/or reshard decision.
  void tick(FleetEngine& engine, double now_us);

  /// Next controller event: the earliest pending fault transition or the
  /// next evaluation boundary (+inf when neither layer has work left).
  double next_event_us(double now_us) const;

  /// Feeds one completion latency into the reshard trigger window.
  void on_complete(double latency_us);

  /// True while scale-up headroom remains — the live daemon sheds only
  /// after this is exhausted (grow first, drop load last).
  bool can_scale_up() const;

  int effective_active() const;

 private:
  void apply_fault(FleetEngine& engine, const LocalFaultEvent& event);
  void evaluate_autoscale(FleetEngine& engine, double now_us);
  void evaluate_reshard(FleetEngine& engine, double now_us);

  ElasticSpec spec_;
  ShardElasticPlan plan_;
  double sla_bound_us_;
  std::vector<bool> scaled_on_;  ///< autoscaler's intent per local instance
  std::vector<bool> faulted_;    ///< fault schedule's state per instance
  std::size_t next_fault_ = 0;
  double eval_next_us_;
  double last_eval_us_ = 0;
  double last_busy_us_ = 0;
  double scale_ready_us_ = 0;    ///< cooldown gate for the next scale move
  double reshard_ready_us_ = 0;  ///< cooldown gate for the next split
  RollingP99Window p99_window_;
};

}  // namespace fcad::serving
