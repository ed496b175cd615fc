// Parameterizable decoder generator: synthesizes codec-avatar-style decoders
// with a configurable branch count and channel width so that design-space
// growth (Sec. VI-A: "the more branches in the decoder ... the higher
// dimensional design space") and DSE scalability can be measured, and so the
// framework is exercised beyond the single published topology.
#pragma once

#include "nn/graph.hpp"

namespace fcad::nn::zoo {

struct ScaledDecoderSpec {
  /// Total branch count (>= 1). Branch 0 is a geometry-style branch from the
  /// latent code alone; branches 1.. share a texture-style front-end.
  int branches = 3;
  /// Channel width multiplier applied to every conv (>= 0.125).
  double width = 1.0;
  bool untied_bias = true;
};

/// Builds the synthetic decoder; FCAD_CHECKs on nonsensical specs.
Graph scaled_decoder(const ScaledDecoderSpec& spec);

}  // namespace fcad::nn::zoo
