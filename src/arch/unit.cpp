#include "arch/unit.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <vector>

namespace fcad::arch {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

std::vector<int> divisors(int n) {
  std::vector<int> out;
  for (int d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      out.push_back(d);
      if (d != n / d) out.push_back(n / d);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// All divisor-triple configs of a (InCh, OutCh, Hmax) stage signature,
/// deduplicated per lane count, sorted ascending by lanes. Memoized: every
/// DSE search reads them once per stage (dse/in_branch.hpp), and the
/// baselines' get_pf_2d once per layer.
const std::vector<LaneEntry>& lane_table(int in_ch, int out_ch, int h_max) {
  using Key = std::tuple<int, int, int>;
  static std::mutex mutex;
  static std::map<Key, std::vector<LaneEntry>> cache;

  std::lock_guard<std::mutex> lock(mutex);
  auto [it, inserted] = cache.try_emplace(Key{in_ch, out_ch, h_max});
  if (!inserted) return it->second;

  std::vector<LaneEntry> all;
  for (int h : divisors(h_max)) {
    for (int kpf : divisors(out_ch)) {
      for (int cpf : divisors(in_ch)) {
        all.push_back({static_cast<std::int64_t>(cpf) * kpf * h,
                       UnitConfig{cpf, kpf, h}});
      }
    }
  }
  // Prefer low h, then low kpf (fewer line-buffer slabs / weight banks) among
  // configs with equal lane count, then keep one entry per lane count.
  std::sort(all.begin(), all.end(), [](const LaneEntry& a, const LaneEntry& b) {
    return std::tie(a.lanes, a.cfg.h, a.cfg.kpf, a.cfg.cpf) <
           std::tie(b.lanes, b.cfg.h, b.cfg.kpf, b.cfg.cpf);
  });
  std::vector<LaneEntry>& table = it->second;
  for (const LaneEntry& e : all) {
    if (table.empty() || table.back().lanes != e.lanes) table.push_back(e);
  }
  return table;
}

UnitConfig search_pf(std::int64_t pf_target, const FusedStage& stage,
                     int h_limit) {
  FCAD_CHECK(pf_target >= 1);
  const auto& table = lane_table(stage.max_cpf(), stage.max_kpf(),
                                 std::min(stage.max_h(), h_limit));
  FCAD_CHECK(!table.empty());
  auto it = std::lower_bound(
      table.begin(), table.end(), pf_target,
      [](const LaneEntry& e, std::int64_t t) { return e.lanes < t; });
  if (it == table.end()) return table.back().cfg;  // target beyond max: clamp
  return it->cfg;
}

}  // namespace

std::string UnitConfig::to_string() const {
  std::ostringstream os;
  os << "(cpf=" << cpf << ",kpf=" << kpf << ",h=" << h << ')';
  return os.str();
}

bool fits_stage(const UnitConfig& cfg, const FusedStage& stage) {
  return cfg.cpf >= 1 && cfg.kpf >= 1 && cfg.h >= 1 &&
         cfg.cpf <= stage.max_cpf() && cfg.kpf <= stage.max_kpf() &&
         cfg.h <= stage.max_h();
}

const std::vector<LaneEntry>& lane_entries(const FusedStage& stage) {
  return lane_table(stage.max_cpf(), stage.max_kpf(), stage.max_h());
}

std::int64_t max_lanes(const FusedStage& stage) {
  return static_cast<std::int64_t>(stage.max_cpf()) * stage.max_kpf() *
         stage.max_h();
}

UnitConfig get_pf(std::int64_t pf_target, const FusedStage& stage) {
  return search_pf(pf_target, stage, stage.max_h());
}

UnitConfig get_pf_2d(std::int64_t pf_target, const FusedStage& stage) {
  return search_pf(pf_target, stage, /*h_limit=*/1);
}

double cycles_analytical(const FusedStage& stage, const UnitConfig& cfg) {
  return static_cast<double>(stage.macs) / static_cast<double>(cfg.lanes());
}

std::int64_t cycles_quantized(const FusedStage& stage, const UnitConfig& cfg) {
  const std::int64_t in_tiles = ceil_div(stage.in_ch, cfg.cpf);
  const std::int64_t out_tiles = ceil_div(stage.out_ch, cfg.kpf);
  const std::int64_t row_tiles = ceil_div(stage.out_h, cfg.h);
  const std::int64_t k2 =
      static_cast<std::int64_t>(stage.kernel) * stage.kernel;
  return in_tiles * out_tiles * row_tiles * stage.out_w * k2;
}

double cycles_analytical(const FusedStage& stage, const UnitConfig& cfg,
                         const Datapath& dp) {
  const double base = cycles_analytical(stage, cfg);
  const double fill = dp.fill_cycles();
  if (fill == 0) return base;  // pipelined: bit-identical to the 2-arg form
  const double passes = static_cast<double>(stage.out_ch) / cfg.kpf *
                        (static_cast<double>(stage.out_h) / cfg.h);
  return base + fill * passes;
}

std::int64_t cycles_quantized(const FusedStage& stage, const UnitConfig& cfg,
                              const Datapath& dp) {
  const std::int64_t base = cycles_quantized(stage, cfg);
  const double fill = dp.fill_cycles();
  if (fill == 0) return base;
  const std::int64_t passes =
      ceil_div(stage.out_ch, cfg.kpf) * ceil_div(stage.out_h, cfg.h);
  return base + static_cast<std::int64_t>(fill) * passes;
}

}  // namespace fcad::arch
