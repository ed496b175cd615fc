// Fitness memoization for the DSE inner loop.
//
// The cross-branch searches evaluate continuous resource distributions, but
// the in-branch greedy pass (Algorithm 2) quantizes each candidate into a
// *discrete* accelerator configuration — and as a swarm converges, many
// distinct distributions collapse onto the same configuration. Caching the
// fitness and feasibility behind a hash of that discrete configuration makes
// repeated configs across generations free. Only those two scalars are
// kept: the search re-evaluates its winner once at the end, so a full
// evaluation per distinct config would only cost memory.
//
// Thread-safety and determinism: the cache is sharded behind mutexes so
// concurrent candidate evaluations can share it. Every entry is a pure
// function of its key (within one search context — fixed model, budget,
// customization, and fitness weights), so whichever thread inserts first,
// readers observe bit-identical values; results cannot depend on thread
// count or scheduling. Use one cache per search; never share across searches
// with different contexts.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "arch/evaluate.hpp"
#include "obs/metrics.hpp"

namespace fcad::dse {

class FitnessCache {
 public:
  /// 128-bit key so accidental collisions are out of the picture even for
  /// million-candidate searches.
  struct Key {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Key& other) const {
      return lo == other.lo && hi == other.hi;
    }
  };

  struct Entry {
    double fitness = 0;
    bool feasible = false;
  };

  /// Key of a discrete accelerator configuration. `met_mask` carries the
  /// per-branch met-batch-target flags (bit b = branch b met), which are
  /// decided by the in-branch pass, not by the config itself.
  static Key config_key(const arch::AcceleratorConfig& config,
                        std::uint64_t met_mask);

  /// Returns the cached entry (counting a hit) or nothing. A lookup that
  /// finds nothing is counted by the insert() that follows it.
  std::optional<Entry> find(const Key& key);

  /// Inserts `entry` unless the key is already resident (first writer wins —
  /// both writers computed identical values) and returns the resident entry.
  /// Counts a miss when it places a new entry and a hit when a racing
  /// worker got there first, so misses equal the distinct keys for any
  /// thread count. Counters: this cache's own, plus the process-wide totals
  /// under `dse.fitness_cache.*` in obs::MetricsRegistry::global().
  Entry insert(const Key& key, const Entry& entry);

  std::int64_t hits() const { return hits_.value(); }
  std::int64_t misses() const { return misses_.value(); }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> map;
  };

  Shard& shard_for(const Key& key) {
    return shards_[key.lo % kShards];
  }

  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  /// Per-search counters (a cache lives for exactly one search); the global
  /// registry additionally accumulates process-wide totals.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter& global_hits_ =
      obs::MetricsRegistry::global().counter("dse.fitness_cache.hits");
  obs::Counter& global_misses_ =
      obs::MetricsRegistry::global().counter("dse.fitness_cache.misses");
};

}  // namespace fcad::dse
