#include "serving/dispatch.hpp"

#include <algorithm>
#include <bit>

namespace fcad::serving {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Dispatcher::LoadTree::LoadTree(int instances)
    : nodes_(2 * static_cast<std::size_t>(instances), kAbsent) {}

int Dispatcher::LoadTree::min_index() const {
  if (nodes_.size() < 2) return -1;
  const int k = nodes_[1].index;
  return k == kAbsent.index ? -1 : k;
}

void Dispatcher::LoadTree::insert(int k, double busy_us) {
  const Key key{busy_us, k};
  std::size_t i = nodes_.size() / 2 + static_cast<std::size_t>(k);
  nodes_[i] = key;
  // Only this leaf got smaller, so each ancestor becomes min(itself, key);
  // the first ancestor that already beats `key` ends the walk.
  for (i /= 2; i >= 1 && less(key, nodes_[i]); i /= 2) nodes_[i] = key;
}

void Dispatcher::LoadTree::erase(int k) {
  std::size_t i = nodes_.size() / 2 + static_cast<std::size_t>(k);
  nodes_[i] = kAbsent;
  // Only the ancestors `k` won change, and they are a prefix of its path.
  for (i /= 2; i >= 1 && nodes_[i].index == k; i /= 2) {
    const Key& a = nodes_[2 * i];
    const Key& b = nodes_[2 * i + 1];
    nodes_[i] = less(b, a) ? b : a;
  }
}

Dispatcher::Dispatcher(DispatchPolicy policy, int instances, int branches,
                       int initially_active)
    : policy_(policy),
      instances_(static_cast<std::size_t>(instances)),
      free_words_((static_cast<std::size_t>(instances) + 63) / 64, 0),
      free_by_load_(policy == DispatchPolicy::kRoundRobin ? 0 : instances) {
  std::vector<std::pair<double, int>> heap;
  heap.reserve(static_cast<std::size_t>(instances));
  busy_ = decltype(busy_)(std::greater<std::pair<double, int>>(),
                          std::move(heap));
  if (policy == DispatchPolicy::kBranchAffinity) {
    free_by_branch_.assign(static_cast<std::size_t>(branches),
                           LoadTree(instances));
  }
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
  return free_count_ > 0;
}

int Dispatcher::pick(int branch, double now_us) {
  refresh(now_us);
  switch (policy_) {
    case DispatchPolicy::kRoundRobin: {
      if (free_count_ == 0) return -1;
      int k = first_free_from(cursor_);
      if (k < 0) k = first_free_from(0);
      cursor_ = (k + 1) % static_cast<int>(instances_.size());
      return k;
    }
    case DispatchPolicy::kLeastLoaded:
      return free_by_load_.min_index();
    case DispatchPolicy::kBranchAffinity: {
      const int k =
          free_by_branch_[static_cast<std::size_t>(branch)].min_index();
      return k >= 0 ? k : free_by_load_.min_index();
    }
  }
  return -1;
}

double Dispatcher::dispatch(int k, int branch, double now_us,
                            double base_pass_us, double switch_penalty_us,
                            std::int64_t requests) {
  InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  erase_free(k);  // leaves the pre-dispatch last_branch's tree
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
  } else {
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

int Dispatcher::first_free_from(int from) const {
  const auto words = free_words_.size();
  std::size_t w = static_cast<std::size_t>(from) / 64;
  if (w >= words) return -1;
  // Mask off the bits below `from` in its word, then scan whole words.
  std::uint64_t bits = free_words_[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++w == words) return -1;
    bits = free_words_[w];
  }
  return static_cast<int>(w * 64) + std::countr_zero(bits);
}

void Dispatcher::insert_free(int k) {
  const InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  free_words_[static_cast<std::size_t>(k) / 64] |= std::uint64_t{1} << (k % 64);
  ++free_count_;
  if (policy_ == DispatchPolicy::kRoundRobin) return;
  free_by_load_.insert(k, inst.busy_us);
  if (policy_ == DispatchPolicy::kBranchAffinity && inst.last_branch >= 0) {
    free_by_branch_[static_cast<std::size_t>(inst.last_branch)].insert(
        k, inst.busy_us);
  }
}

void Dispatcher::erase_free(int k) {
  if (!is_free(k)) return;
  const InstanceState& inst = instances_[static_cast<std::size_t>(k)];
  free_words_[static_cast<std::size_t>(k) / 64] &=
      ~(std::uint64_t{1} << (k % 64));
  --free_count_;
  if (policy_ == DispatchPolicy::kRoundRobin) return;
  free_by_load_.erase(k);
  if (policy_ == DispatchPolicy::kBranchAffinity && inst.last_branch >= 0) {
    free_by_branch_[static_cast<std::size_t>(inst.last_branch)].erase(k);
  }
}

}  // namespace fcad::serving
