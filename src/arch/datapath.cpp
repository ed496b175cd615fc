#include "arch/datapath.hpp"

namespace fcad::arch {
namespace {

/// One 4x4 signed multiplier packs into ~11 LUT6s (partial products plus the
/// carry chain); the constant is the fabric price per lane of lut_multipliers
/// datapaths.
constexpr int kLutsPerInt4Multiplier = 11;

/// Depth of the staged multiply/accumulate chain: two multiplier stages plus
/// one accumulate stage per operand nibble. Wider weights mean a deeper
/// chain, so the fill penalty grows with precision.
double staged_fill_depth(nn::DataType ww) {
  return 2.0 + static_cast<double>(nn::bits(ww)) / 4.0;
}

/// Precision token of the canonical grammar: "intN" when DW == WW, "int8x4"
/// for the one supported mixed pair.
std::string precision_token(const Datapath& dp) {
  if (dp.dw == dp.ww) return nn::to_string(dp.dw);
  return nn::to_string(dp.dw) + "x" + std::to_string(nn::bits(dp.ww));
}

}  // namespace

int Datapath::multipliers_per_dsp() const {
  return nn::multipliers_per_dsp(ww);
}

int Datapath::beta_ops_per_dsp() const { return nn::beta_ops_per_dsp(ww); }

bool Datapath::lut_multipliers() const { return ww == nn::DataType::kInt4; }

int Datapath::luts_per_multiplier() const {
  return lut_multipliers() ? kLutsPerInt4Multiplier : 0;
}

double Datapath::fill_cycles() const {
  return mac == MacStyle::kStaged ? staged_fill_depth(ww) : 0.0;
}

double Datapath::accuracy_proxy() const {
  // Top-1-style degradation proxy per precision point, anchored at int16 = 0
  // (the paper's full-precision deployment). The mixed point keeps 8-bit
  // activations, so it sits between int8 and int4.
  if (ww == nn::DataType::kInt16) return 0.0;
  if (ww == nn::DataType::kInt8) return 0.01;
  return dw == nn::DataType::kInt8 ? 0.025 : 0.05;  // int8x4 : int4
}

std::string datapath_to_string(const Datapath& dp) {
  const char* mac = dp.mac == MacStyle::kPipelined ? "pipelined" : "staged";
  return std::string(mac) + "-" + precision_token(dp);
}

StatusOr<Datapath> datapath_from_string(const std::string& name) {
  for (const Datapath& dp : registered_datapaths()) {
    if (name == datapath_to_string(dp)) return dp;
  }
  return Status::invalid_argument(
      "unknown datapath '" + name +
      "' (expected <pipelined|staged>-<int4|int8|int16|int8x4>)");
}

const std::vector<Datapath>& registered_datapaths() {
  static const std::vector<Datapath> kRegistry = [] {
    std::vector<Datapath> all;
    const nn::DataType kInt8 = nn::DataType::kInt8;
    const nn::DataType kInt16 = nn::DataType::kInt16;
    const nn::DataType kInt4 = nn::DataType::kInt4;
    for (MacStyle mac : {MacStyle::kPipelined, MacStyle::kStaged}) {
      all.push_back({mac, kInt16, kInt16});
      all.push_back({mac, kInt8, kInt8});
      all.push_back({mac, kInt8, kInt4});  // mixed int8x4
      all.push_back({mac, kInt4, kInt4});
    }
    return all;
  }();
  return kRegistry;
}

std::vector<std::string> registered_datapath_names() {
  std::vector<std::string> names;
  names.reserve(registered_datapaths().size());
  for (const Datapath& dp : registered_datapaths()) {
    names.push_back(datapath_to_string(dp));
  }
  return names;
}

}  // namespace fcad::arch
