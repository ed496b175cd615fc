#include "serving/dispatch.hpp"

#include <algorithm>

namespace fcad::serving {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Dispatcher::Dispatcher(DispatchPolicy policy, int instances, int branches,
                       int initially_active)
    : policy_(policy),
      instances_(static_cast<std::size_t>(instances)),
      free_by_branch_(static_cast<std::size_t>(branches)) {
  const int active =
      initially_active < 0 ? instances : std::min(initially_active, instances);
  for (int k = 0; k < active; ++k) insert_free(k);
  for (int k = active; k < instances; ++k) {
    instances_[static_cast<std::size_t>(k)].active = false;
  }
}

double Dispatcher::next_free_us(double now_us) {
  refresh(now_us);
  return busy_.empty() ? kInf : busy_.top().first;
}

bool Dispatcher::any_free(double now_us) {
  refresh(now_us);
  return !free_by_index_.empty();
}

int Dispatcher::pick(int branch, double now_us) {
  refresh(now_us);
  switch (policy_) {
    case DispatchPolicy::kRoundRobin: {
      if (free_by_index_.empty()) return -1;
      auto it = free_by_index_.lower_bound(cursor_);
      const int k = it != free_by_index_.end() ? *it : *free_by_index_.begin();
      cursor_ = (k + 1) % static_cast<int>(instances_.size());
      return k;
    }
    case DispatchPolicy::kLeastLoaded:
      return free_by_load_.empty() ? -1 : free_by_load_.begin()->second;
    case DispatchPolicy::kBranchAffinity: {
      const auto& affine = free_by_branch_[static_cast<std::size_t>(branch)];
      if (!affine.empty()) return affine.begin()->second;
      return free_by_load_.empty() ? -1 : free_by_load_.begin()->second;
    }
  }
  return -1;
}

double Dispatcher::dispatch(int k, int branch, double now_us,
                            double base_pass_us, double switch_penalty_us,
                            std::int64_t requests) {
  InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  erase_free(k);  // keyed on the pre-dispatch busy_us / last_branch
  double pass_us = base_pass_us;
  if (inst.last_branch >= 0 && inst.last_branch != branch) {
    pass_us += switch_penalty_us;
    ++inst.switches;
  }
  const double finish_us = now_us + pass_us;
  inst.free_at_us = finish_us;
  inst.busy_us += pass_us;
  inst.last_branch = branch;
  ++inst.batches;
  inst.requests += requests;
  busy_.push({finish_us, k});
  return finish_us;
}

void Dispatcher::set_active(int k, bool on, double now_us) {
  refresh(now_us);
  InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  if (inst.active == on) return;
  inst.active = on;
  if (on) {
    // refresh() above drained every expired busy entry, so an idle
    // instance has no pending heap entry and joins the free sets now; a
    // still-busy one is re-inserted when its batch finishes.
    if (inst.free_at_us <= now_us) insert_free(k);
  } else if (free_by_index_.count(k) > 0) {
    erase_free(k);
  }
}

double Dispatcher::total_busy_us() const {
  double total = 0;
  for (const InstanceState& inst : instances_) total += inst.busy_us;
  return total;
}

void Dispatcher::refresh(double now_us) {
  while (!busy_.empty() && busy_.top().first <= now_us) {
    const int k = busy_.top().second;
    busy_.pop();
    // An instance deactivated mid-batch finishes but never rejoins the
    // free sets; set_active(k, true) brings it back later.
    if (instances_[static_cast<std::size_t>(k)].active) insert_free(k);
  }
}

void Dispatcher::insert_free(int k) {
  const InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  free_by_index_.insert(k);
  free_by_load_.insert({inst.busy_us, k});
  if (inst.last_branch >= 0) {
    free_by_branch_[static_cast<std::size_t>(inst.last_branch)].insert(
        {inst.busy_us, k});
  }
}

void Dispatcher::erase_free(int k) {
  const InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  free_by_index_.erase(k);
  free_by_load_.erase({inst.busy_us, k});
  if (inst.last_branch >= 0) {
    free_by_branch_[static_cast<std::size_t>(inst.last_branch)].erase(
        {inst.busy_us, k});
  }
}

}  // namespace fcad::serving
