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
#pragma once

#include <cstdint>

#include "arch/datapath.hpp"
#include "arch/fusion.hpp"
#include "arch/unit.hpp"
#include "nn/dtype.hpp"

namespace fcad::arch {

/// Whether this stage's weights stay in BRAM or stream from DDR per frame:
/// kernels larger than 64 BRAM18K-equivalents of storage stream.
bool weights_resident(const FusedStage& stage, nn::DataType ww);

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
                             const UnitStreamContext& ctx = {});

}  // namespace fcad::arch
