// FPGA resource model of one basic architecture unit.
//
// Four resources per Table III (and the datapath extension):
//   * compute (DSP slices): lanes / multipliers-per-DSP for DSP-mapped
//     weight widths; 0 for LUT-fabric datapaths (4-bit weights), which
//     instead pay `luts` = lanes * luts-per-multiplier;
//   * on-chip memory (BRAM18K blocks): weight buffer + input line buffer,
//     with banking minima implied by the parallel access pattern — bank
//     words are width-dependent (cpf * bits / bram_max_width);
//   * external bandwidth (bytes per frame): streamed untied biases, streamed
//     weights for stages whose kernels are too large to keep resident, and
//     the first/last stage feature streams — byte counts are bit-packed, so
//     sub-byte widths (int4, int8x4) halve their stream traffic.
//
// Every constant lives in ResourceModelParams so the calibration against the
// paper's Table II / IV magnitudes is in one place (see bench_ablation).
#pragma once

#include <cstdint>

#include "arch/datapath.hpp"
#include "arch/fusion.hpp"
#include "arch/unit.hpp"
#include "nn/dtype.hpp"

namespace fcad::arch {

struct ResourceModelParams {
  int bram_kbits = 18;          ///< one BRAM18K block
  /// Widest access per block: 36-bit port, doubled by true-dual-port reads.
  int bram_max_width = 72;
  /// Rows beyond K kept in the input line buffer. 0 = K-row rotating buffer
  /// with a register window (new rows overwrite the oldest in place).
  int extra_linebuf_rows = 0;
  /// Kernels larger than this many BRAM18K-equivalents of storage are
  /// streamed from DDR each frame instead of held resident.
  int resident_weight_limit_brams = 64;
  /// Control/FIFO overhead blocks per unit (bias FIFO, AXI skid buffers).
  int overhead_brams = 2;
};

/// Whether this stage's weights stay in BRAM or stream from DDR per frame.
bool weights_resident(const FusedStage& stage, nn::DataType ww,
                      const ResourceModelParams& params = {});

struct UnitResources {
  int dsps = 0;
  /// LUT-fabric multiplier cost; nonzero only for lut_multipliers()
  /// datapaths (4-bit weights), whose compute array consumes no DSPs.
  int luts = 0;
  int brams = 0;
  /// Parameter bytes (streamed weights + biases) fetched per frame *wave*.
  /// Batch copies run in lockstep on consecutive frames, so one fetch is
  /// broadcast to all copies.
  std::int64_t param_stream_bytes = 0;
  /// Feature bytes moved per individual frame (external input / output);
  /// scales with the number of batch copies.
  std::int64_t feature_stream_bytes = 0;

  std::int64_t total_stream_bytes() const {
    return param_stream_bytes + feature_stream_bytes;
  }
};

/// Context flags that change a unit's DDR traffic.
struct UnitStreamContext {
  bool reads_external_input = false;  ///< first stage of a pipeline
  bool writes_external_output = false;///< feeds a graph output
};

/// Full resource estimate of one configured unit on `dp`.
UnitResources unit_resources(const FusedStage& stage, const UnitConfig& cfg,
                             const Datapath& dp,
                             const UnitStreamContext& ctx = {},
                             const ResourceModelParams& params = {});

}  // namespace fcad::arch
