#include "arch/resource_model.hpp"

#include <algorithm>

namespace fcad::arch {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

constexpr std::int64_t kBramBits = 18 * 1024;  ///< one BRAM18K block
/// Widest access per block: 36-bit port, doubled by true-dual-port reads.
constexpr std::int64_t kBramMaxWidth = 72;
/// Kernels larger than this many BRAM18K-equivalents of storage are
/// streamed from DDR each frame instead of held resident.
constexpr std::int64_t kResidentWeightLimitBrams = 64;
/// Control/FIFO overhead blocks per unit (bias FIFO, AXI skid buffers).
constexpr int kOverheadBrams = 2;

/// Bit-packed stream size: elements of `bits` width each, rounded up to
/// whole bytes once per stream (so int4 streams really move half the bytes
/// of int8, instead of rounding every element up to a byte).
std::int64_t stream_bytes(std::int64_t elements, int bits) {
  return ceil_div(elements * bits, 8);
}

/// Blocks needed to hold `bits` with at least `min_banks` independently
/// addressable banks (the banking minimum from the parallel access pattern).
int brams_for(std::int64_t bits, std::int64_t min_banks) {
  const std::int64_t capacity_blocks = ceil_div(bits, kBramBits);
  return static_cast<int>(std::max(capacity_blocks, min_banks));
}

}  // namespace

bool weights_resident(const FusedStage& stage, nn::DataType ww) {
  const std::int64_t weight_bits = stage.weight_params * nn::bits(ww);
  return ceil_div(weight_bits, kBramBits) <= kResidentWeightLimitBrams;
}

UnitResources unit_resources(const FusedStage& stage, const UnitConfig& cfg,
                             const Datapath& dp,
                             const UnitStreamContext& ctx) {
  UnitResources r;
  const int dw_bits = nn::bits(dp.dw);
  const int ww_bits = nn::bits(dp.ww);

  // --- compute ---------------------------------------------------------
  // DSP-mapped widths pack multipliers_per_dsp() lanes per slice; 4-bit
  // weights build every multiplier from LUTs instead.
  if (dp.lut_multipliers()) {
    r.luts = static_cast<int>(cfg.lanes() * dp.luts_per_multiplier());
  } else {
    r.dsps =
        static_cast<int>(ceil_div(cfg.lanes(), dp.multipliers_per_dsp()));
  }

  // --- on-chip memory ----------------------------------------------------
  // Weight buffer. Resident kernels are banked by kpf (each PE column reads
  // its own output-channel kernels through a cpf-wide word). Streamed
  // kernels only need the in-flight tile, which lives in the PE array
  // (LUTRAM/FF) plus a small double-buffered staging FIFO.
  const bool resident = weights_resident(stage, dp.ww);
  if (resident) {
    const std::int64_t weight_bits = stage.weight_params * ww_bits;
    const std::int64_t weight_word_banks =
        static_cast<std::int64_t>(cfg.kpf) *
        ceil_div(static_cast<std::int64_t>(cfg.cpf) * ww_bits, kBramMaxWidth);
    r.brams += brams_for(weight_bits, weight_word_banks);
  } else {
    const std::int64_t tile_bits =
        2LL * cfg.lanes() * stage.kernel * stage.kernel * ww_bits;
    r.brams += brams_for(tile_bits, /*min_banks=*/2);
    r.param_stream_bytes += stream_bytes(stage.weight_params, ww_bits);
  }

  // Input line buffer: a K-row rotating buffer of the input feature map with
  // a register window (new rows overwrite the oldest in place), banked per
  // H-partition slab with cpf-channel-wide words.
  const std::int64_t line_bits = static_cast<std::int64_t>(stage.kernel) *
                                 stage.in_w * stage.in_ch * dw_bits;
  const std::int64_t line_banks =
      static_cast<std::int64_t>(cfg.h) *
      ceil_div(static_cast<std::int64_t>(cfg.cpf) * dw_bits, kBramMaxWidth);
  r.brams += brams_for(line_bits, line_banks);

  r.brams += kOverheadBrams;

  // --- external bandwidth -----------------------------------------------
  if (stage.has_bias) {
    // Untied biases are far too large to keep resident at HD resolutions;
    // they stream each frame. Tied biases are tiny but counted uniformly.
    r.param_stream_bytes += stream_bytes(stage.bias_params, ww_bits);
  }
  if (ctx.reads_external_input) {
    r.feature_stream_bytes += stream_bytes(
        static_cast<std::int64_t>(stage.in_ch) * stage.in_h * stage.in_w,
        dw_bits);
  }
  if (ctx.writes_external_output) {
    r.feature_stream_bytes += stream_bytes(
        static_cast<std::int64_t>(stage.final_ch) * stage.final_h *
            stage.final_w,
        dw_bits);
  }
  return r;
}

}  // namespace fcad::arch
