#include "serving/batcher.hpp"

#include <algorithm>
#include <limits>

#include "util/status.hpp"

namespace fcad::serving {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

BatchAggregator::BatchAggregator(std::vector<int> capacity, double timeout_us)
    : capacity_(std::move(capacity)), timeout_us_(timeout_us) {
  FCAD_CHECK_MSG(!capacity_.empty(), "BatchAggregator: no branches");
  for (int c : capacity_) {
    FCAD_CHECK_MSG(c >= 1, "BatchAggregator: capacity must be >= 1");
  }
  queues_.resize(capacity_.size());
}

void BatchAggregator::enqueue(const Request& request) {
  FCAD_CHECK_MSG(
      request.branch >= 0 && request.branch < num_branches(),
      "BatchAggregator: request branch out of range");
  queues_[static_cast<std::size_t>(request.branch)].push_back(request);
  ++pending_;
}

int BatchAggregator::ready_branch(double now_us) const {
  int best = -1;
  double best_head = kInf;
  for (std::size_t j = 0; j < queues_.size(); ++j) {
    const auto& q = queues_[j];
    if (q.empty()) continue;
    const bool full = static_cast<int>(q.size()) >= capacity_[j];
    // Same expression as next_deadline_us() so a queue is ready exactly at
    // its reported deadline (no floating-point disagreement).
    const bool timed_out =
        timeout_us_ > 0 && now_us >= q.front().arrival_us + timeout_us_;
    // close() only forces partial batches out when no timeout would ever
    // fire; with a timeout the tail drains on its own schedule.
    const bool drained = closed_ && timeout_us_ <= 0;
    if (!(full || timed_out || drained)) continue;
    if (q.front().arrival_us < best_head) {
      best_head = q.front().arrival_us;
      best = static_cast<int>(j);
    }
  }
  return best;
}

bool BatchAggregator::pop_ready(double now_us, Batch& out) {
  const int branch = ready_branch(now_us);
  if (branch < 0) return false;
  auto& q = queues_[static_cast<std::size_t>(branch)];
  const int take = std::min<int>(capacity_[static_cast<std::size_t>(branch)],
                                 static_cast<int>(q.size()));
  const auto end = q.begin() + take;
  out.branch = branch;
  out.formed_us = now_us;
  out.requests.assign(q.begin(), end);
  q.erase(q.begin(), end);
  pending_ -= static_cast<std::size_t>(take);
  return true;
}

double BatchAggregator::next_deadline_us() const {
  double deadline = kInf;
  if (timeout_us_ <= 0 && !closed_) return deadline;
  for (const auto& q : queues_) {
    if (q.empty()) continue;
    const double t = timeout_us_ > 0 ? q.front().arrival_us + timeout_us_
                                     : q.front().arrival_us;
    deadline = std::min(deadline, t);
  }
  return deadline;
}

double BatchAggregator::head_arrival_us(int branch) const {
  FCAD_CHECK(branch >= 0 && branch < num_branches());
  const auto& q = queues_[static_cast<std::size_t>(branch)];
  return q.empty() ? kInf : q.front().arrival_us;
}

}  // namespace fcad::serving
