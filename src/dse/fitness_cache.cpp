#include "dse/fitness_cache.hpp"

#include "util/hash.hpp"

namespace fcad::dse {

FitnessCache::Key FitnessCache::config_key(const arch::AcceleratorConfig& config,
                                           std::uint64_t met_mask) {
  util::Hash128 h;
  h.absorb(met_mask);
  h.absorb(static_cast<std::uint64_t>(config.datapath.mac));
  h.absorb(static_cast<std::uint64_t>(config.datapath.dw));
  h.absorb(static_cast<std::uint64_t>(config.datapath.ww));
  h.absorb_double(config.freq_mhz);
  h.absorb(config.branches.size());
  for (const arch::BranchHardwareConfig& branch : config.branches) {
    h.absorb(static_cast<std::uint64_t>(branch.batch));
    h.absorb(branch.units.size());
    for (const arch::UnitConfig& unit : branch.units) {
      h.absorb((static_cast<std::uint64_t>(static_cast<std::uint32_t>(unit.cpf))
                << 32) |
               static_cast<std::uint32_t>(unit.kpf));
      h.absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(unit.h)));
    }
  }
  return Key{h.lo, h.hi};
}

std::optional<FitnessCache::Entry> FitnessCache::find(const Key& key) {
  Shard& shard = shard_for(key);
  std::optional<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) entry = it->second;
  }
  if (entry) {
    hits_.add(1);
    global_hits_.add(1);
  }
  return entry;
}

FitnessCache::Entry FitnessCache::insert(const Key& key, const Entry& entry) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, placed] = shard.map.try_emplace(key, entry);
  // Only the worker that places a key counts its miss; one that lost the
  // race found the key resident after all, so the split is a function of
  // the keys looked up, never of thread scheduling.
  (placed ? misses_ : hits_).add(1);
  (placed ? global_misses_ : global_hits_).add(1);
  return it->second;
}

}  // namespace fcad::dse
