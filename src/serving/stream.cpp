#include "serving/stream.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

namespace fcad::serving {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Salt decorrelating the acceptance rng tree from the candidate-draw tree
/// (moved from scenario.cpp with the generator; the value is part of the
/// workload contract — changing it changes every shaped trace).
constexpr std::uint64_t kAcceptSalt = 0x9e3779b97f4a7c15ULL;
/// kBursty on/off phase means and the "on" rate multiplier. The long-run
/// mean rate is frame_rate_hz * factor * on / (on + off), which these keep
/// equal to frame_rate_hz.
constexpr double kBurstOnS = 0.2;
constexpr double kBurstOffS = 0.2;
constexpr double kBurstFactor = 2.0;

/// Per-user activity windows derived from churn (base users) or a flash
/// window (extra users). An empty list means always active.
struct ActivityWindows {
  std::vector<std::pair<double, double>> windows_us;

  bool active_at(double t_us) const {
    if (windows_us.empty()) return true;
    for (const auto& [lo, hi] : windows_us) {
      if (t_us >= lo && t_us < hi) return true;
    }
    return false;
  }
  /// Time after which the user can never emit again (µs).
  double horizon_us() const {
    if (windows_us.empty()) return kInf;
    double hi = 0;
    for (const auto& w : windows_us) hi = std::max(hi, w.second);
    return hi;
  }
};

/// The merged lazy generator behind every workload: each user's
/// candidate stream is thinned by the scenario's acceptance rule (when it
/// shapes arrivals) before it reaches a min-heap, which holds only each
/// user's next accepted frame event and merges them in (arrival, user)
/// order; the branch fan-out and dense ids apply per popped event. Each
/// user's candidate and acceptance rngs are private to that user and
/// consumed in per-user time order, so thinning per user draws exactly
/// what thinning after the merge would, and a min-heap pop sequence over
/// (t, user) pairs IS their lexicographic sort. The goldens in
/// stream_test pin the resulting order.
class GeneratedRequestStream final : public RequestStream {
 public:
  GeneratedRequestStream(const WorkloadOptions& options,
                         const ScenarioSpec& scenario)
      : spec_(scenario),
        thinned_(scenario.shapes_arrivals()),
        branches_(options.branches),
        target_(options.target_requests) {
    const bool bursty = options.process == ArrivalProcess::kBursty;
    const double duration_horizon_us =
        target_ > 0 ? kInf : options.duration_s * 1e6;
    // Peak multiplier for thinning: the diurnal crest times every flash
    // window's boost (windows may overlap, and max(1, m) bounds any subset
    // product from above). Candidates are drawn at rate * peak and
    // accepted with probability multiplier(t) / peak.
    peak_ = spec_.diurnal.period_s > 0 ? 1.0 + spec_.diurnal.amplitude : 1.0;
    if (thinned_) {
      for (const auto& f : spec_.flash) {
        peak_ *= std::max(1.0, f.rate_multiplier);
      }
    }
    const double rate_hz =
        options.frame_rate_hz * (thinned_ ? peak_ : 1.0);

    // Base users fork from the root in the same order as the plain
    // generator, so the candidate rng tree is independent of the scenario.
    // Extra flash users fork afterwards; acceptance draws come from a
    // separate decorrelated tree.
    Rng root(options.seed);
    Rng accept_root(options.seed ^ kAcceptSalt);
    const int total_users =
        options.users + (thinned_ ? spec_.extra_users() : 0);
    users_.reserve(static_cast<std::size_t>(total_users));
    auto add_user = [&](int user, ActivityWindows activity) {
      UserEntry entry{
          UserStream(root.fork(static_cast<std::uint64_t>(user) + 1),
                     rate_hz, bursty ? kBurstOnS : 0.0,
                     bursty ? kBurstOffS : 0.0, kBurstFactor),
          thinned_
              ? std::optional<Rng>(
                    accept_root.fork(static_cast<std::uint64_t>(user) + 1))
              : std::nullopt,
          std::move(activity), 0};
      entry.horizon_us =
          std::min(duration_horizon_us, entry.activity.horizon_us());
      users_.push_back(std::move(entry));
    };
    for (int user = 0; user < options.users; ++user) {
      ActivityWindows activity;
      if (thinned_) {
        for (const auto& c : spec_.churn) {
          if (c.user == user) {
            activity.windows_us.emplace_back(c.join_s * 1e6, c.leave_s * 1e6);
          }
        }
      }
      add_user(user, std::move(activity));
    }
    if (thinned_) {
      int next_extra = options.users;
      for (const auto& f : spec_.flash) {
        for (int j = 0; j < f.extra_users; ++j, ++next_extra) {
          ActivityWindows activity;
          activity.windows_us.emplace_back(f.start_s * 1e6, f.end_s * 1e6);
          add_user(next_extra, std::move(activity));
        }
      }
    }
    for (int user = 0; user < total_users; ++user) push_next_accepted(user);
  }

  std::optional<Request> next() override {
    if (target_ > 0 && emitted_ >= target_) return std::nullopt;
    if (branch_ >= branches_) {  // current frame event fully fanned out
      if (heap_.empty()) {
        if (target_ > 0) {
          status_ = Status::invalid_argument(
              "scenario: target_requests unreachable — every user stream "
              "ends before enough events are accepted");
        }
        return std::nullopt;
      }
      std::tie(event_t_us_, event_user_) = heap_.top();
      heap_.pop();
      push_next_accepted(event_user_);
      branch_ = 0;
    }
    Request r;
    r.id = emitted_++;
    r.user = event_user_;
    r.branch = branch_++;
    r.arrival_us = event_t_us_;
    return r;
  }

  Status finish_status() const override { return status_; }

 private:
  struct UserEntry {
    UserStream candidates;
    std::optional<Rng> accept;  ///< engaged only for thinned streams
    ActivityWindows activity;
    double horizon_us;  ///< retire bound: min(duration, last activity)
  };

  /// Draws `user`'s candidates (and their acceptance draws) until one is
  /// accepted and pushes only that one; a user whose next candidate is past
  /// its horizon can never emit again and stays out of the heap.
  void push_next_accepted(int user) {
    UserEntry& entry = users_[static_cast<std::size_t>(user)];
    for (;;) {
      const double t = entry.candidates.next(entry.horizon_us);
      if (t >= entry.horizon_us) return;
      if (accept(entry, t)) {
        heap_.push({t, user});
        return;
      }
    }
  }

  bool accept(UserEntry& entry, double t_us) {
    if (!thinned_) return true;
    // The draw is consumed before the activity check on purpose — it pins
    // the materialized generator's rng stream exactly.
    const double draw = entry.accept->next_double();
    return entry.activity.active_at(t_us) &&
           draw < scenario_rate_multiplier(spec_, t_us) / peak_;
  }

  ScenarioSpec spec_;
  bool thinned_;
  int branches_;
  std::int64_t target_;
  double peak_ = 1;
  std::vector<UserEntry> users_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      heap_;
  double event_t_us_ = 0;
  int event_user_ = 0;
  int branch_ = std::numeric_limits<int>::max();  ///< forces the first pop
  std::int64_t emitted_ = 0;
  Status status_ = Status::ok();
};

}  // namespace

StatusOr<std::unique_ptr<RequestStream>> make_request_stream(
    const WorkloadOptions& options, const ScenarioSpec& scenario) {
  if (Status s = validate_workload_options(options); !s.is_ok()) return s;
  if (Status s = validate_scenario(scenario); !s.is_ok()) return s;
  return std::unique_ptr<RequestStream>(
      std::make_unique<GeneratedRequestStream>(options, scenario));
}

StatusOr<std::vector<Request>> drain_request_stream(RequestStream& stream,
                                                    std::int64_t reserve) {
  std::vector<Request> out;
  if (reserve > 0) out.reserve(static_cast<std::size_t>(reserve));
  while (std::optional<Request> r = stream.next()) out.push_back(*r);
  if (Status s = stream.finish_status(); !s.is_ok()) return s;
  return out;
}

}  // namespace fcad::serving
