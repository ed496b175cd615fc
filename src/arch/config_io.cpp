#include "arch/config_io.hpp"

#include <map>
#include <sstream>
#include <vector>

namespace fcad::arch {
namespace {

Status parse_error(int line_no, const std::string& why) {
  return Status::invalid_argument("config: line " + std::to_string(line_no) +
                                  ": " + why);
}

/// Parses "key=value" into (key, value).
bool split_kv(const std::string& token, std::string& key, std::string& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

StatusOr<int> parse_int(const std::string& value, int line_no) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(value, &pos);
    if (pos != value.size()) return parse_error(line_no, "bad integer");
    return v;
  } catch (const std::exception&) {
    return parse_error(line_no, "bad integer '" + value + "'");
  }
}

}  // namespace

std::string config_to_text(const ReorganizedModel& model,
                           const AcceleratorConfig& config) {
  FCAD_CHECK_MSG(config.branches.size() == model.branches.size(),
                 "config/model arity mismatch");
  std::ostringstream os;
  os << "accelerator datapath=" << datapath_to_string(config.datapath)
     << " freq_mhz=" << config.freq_mhz << '\n';
  for (std::size_t b = 0; b < config.branches.size(); ++b) {
    const BranchHardwareConfig& hw = config.branches[b];
    const BranchPipeline& br = model.branches[b];
    FCAD_CHECK_MSG(hw.units.size() == br.stages.size(),
                   "unit arity mismatch on branch");
    os << "branch " << b << " batch=" << hw.batch << '\n';
    for (std::size_t i = 0; i < hw.units.size(); ++i) {
      const UnitConfig& u = hw.units[i];
      os << "unit " << model.stage(br.stages[i]).name << " cpf=" << u.cpf
         << " kpf=" << u.kpf << " h=" << u.h << '\n';
    }
  }
  return os.str();
}

StatusOr<AcceleratorConfig> config_from_text(const ReorganizedModel& model,
                                             const std::string& text) {
  // Stage-name -> (branch, position) lookup.
  std::map<std::string, std::pair<int, int>> stage_pos;
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    const BranchPipeline& br = model.branches[b];
    for (std::size_t i = 0; i < br.stages.size(); ++i) {
      stage_pos[model.stage(br.stages[i]).name] = {static_cast<int>(b),
                                                   static_cast<int>(i)};
    }
  }

  AcceleratorConfig config;
  config.branches.resize(model.branches.size());
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    config.branches[b].units.resize(model.branches[b].stages.size());
  }
  std::vector<std::vector<bool>> seen(model.branches.size());
  for (std::size_t b = 0; b < model.branches.size(); ++b) {
    seen[b].assign(model.branches[b].stages.size(), false);
  }

  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  int current_branch = -1;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;

    if (kind == "accelerator") {
      header_seen = true;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) {
          return parse_error(line_no, "expected key=value, got '" + token + "'");
        }
        if (key == "datapath") {
          auto dp = datapath_from_string(value);
          if (!dp.is_ok()) {
            return parse_error(line_no, "unknown datapath '" + value + "'");
          }
          config.datapath = *dp;
        } else if (key == "freq_mhz") {
          try {
            config.freq_mhz = std::stod(value);
          } catch (const std::exception&) {
            return parse_error(line_no, "bad freq_mhz");
          }
          if (config.freq_mhz <= 0) {
            return parse_error(line_no, "freq_mhz must be positive");
          }
        } else {
          return parse_error(line_no, "unknown header key '" + key + "'");
        }
      }
      continue;
    }
    if (!header_seen) {
      return parse_error(line_no, "missing 'accelerator' header");
    }

    if (kind == "branch") {
      int index = -1;
      if (!(ls >> index) || index < 0 ||
          index >= static_cast<int>(model.branches.size())) {
        return parse_error(line_no, "bad branch index");
      }
      current_branch = index;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value) || key != "batch") {
          return parse_error(line_no, "expected batch=<n>");
        }
        auto batch = parse_int(value, line_no);
        if (!batch.is_ok()) return batch.status();
        if (*batch < 1) return parse_error(line_no, "batch must be >= 1");
        config.branches[static_cast<std::size_t>(index)].batch = *batch;
      }
      continue;
    }

    if (kind == "unit") {
      if (current_branch < 0) {
        return parse_error(line_no, "unit before any branch line");
      }
      std::string name;
      if (!(ls >> name)) return parse_error(line_no, "missing stage name");
      auto it = stage_pos.find(name);
      if (it == stage_pos.end()) {
        return parse_error(line_no, "unknown stage '" + name + "'");
      }
      const auto [branch, pos] = it->second;
      if (branch != current_branch) {
        return parse_error(line_no, "stage '" + name +
                                        "' belongs to branch " +
                                        std::to_string(branch));
      }
      UnitConfig cfg;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) {
          return parse_error(line_no, "expected key=value");
        }
        auto v = parse_int(value, line_no);
        if (!v.is_ok()) return v.status();
        if (key == "cpf") {
          cfg.cpf = *v;
        } else if (key == "kpf") {
          cfg.kpf = *v;
        } else if (key == "h") {
          cfg.h = *v;
        } else {
          return parse_error(line_no, "unknown unit key '" + key + "'");
        }
      }
      const FusedStage& stage = model.stage(
          model.branches[static_cast<std::size_t>(branch)]
              .stages[static_cast<std::size_t>(pos)]);
      if (!fits_stage(cfg, stage)) {
        return parse_error(line_no, "factors " + cfg.to_string() +
                                        " do not fit stage '" + name + "'");
      }
      config.branches[static_cast<std::size_t>(branch)]
          .units[static_cast<std::size_t>(pos)] = cfg;
      seen[static_cast<std::size_t>(branch)][static_cast<std::size_t>(pos)] =
          true;
      continue;
    }
    return parse_error(line_no, "unknown directive '" + kind + "'");
  }
  if (!header_seen) {
    return Status::invalid_argument("config: missing 'accelerator' header");
  }
  for (std::size_t b = 0; b < seen.size(); ++b) {
    for (std::size_t i = 0; i < seen[b].size(); ++i) {
      if (!seen[b][i]) {
        return Status::invalid_argument(
            "config: missing unit line for stage '" +
            model.stage(model.branches[b].stages[i]).name + "'");
      }
    }
  }
  return config;
}

}  // namespace fcad::arch
