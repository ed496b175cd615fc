#include "nn/zoo/scaled_decoder.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nn/builder.hpp"

namespace fcad::nn::zoo {
namespace {

/// Up-sampling steps of the texture branches (output = 8 * 2^steps).
constexpr int kTextureSteps = 5;

int scaled(int base, double width) {
  return std::max(1, static_cast<int>(std::lround(base * width)));
}

LayerId cau(GraphBuilder& b, LayerId x, const std::string& prefix, int out_ch,
            bool untied) {
  x = b.conv2d(x, prefix + "_conv",
               {.out_ch = out_ch, .kernel = 4, .stride = 1,
                .untied_bias = untied, .bias = true});
  x = b.leaky_relu(x, prefix + "_act");
  return b.upsample2x(x, prefix + "_up");
}

}  // namespace

Graph scaled_decoder(const ScaledDecoderSpec& spec) {
  FCAD_CHECK_MSG(spec.branches >= 1, "scaled_decoder: need >= 1 branch");
  FCAD_CHECK_MSG(spec.width >= 0.125, "scaled_decoder: width too small");

  GraphBuilder b("scaled_decoder_b" + std::to_string(spec.branches) + "_w" +
                 std::to_string(scaled(100, spec.width)));
  LayerId latent = b.input("latent_code", {256, 1, 1});
  LayerId latent_map = b.reshape(latent, "latent_map", {4, 8, 8});

  // Branch 0 — geometry-style: [CAU]x5 + C -> [3,256,256].
  {
    const int base[] = {192, 128, 96, 48, 16};
    LayerId x = latent_map;
    for (int i = 0; i < 5; ++i) {
      x = cau(b, x, "geo_l" + std::to_string(i), scaled(base[i], spec.width),
              spec.untied_bias);
    }
    b.output(b.conv2d(x, "geo_out",
                      {.out_ch = 3, .kernel = 4,
                       .untied_bias = spec.untied_bias, .bias = true}),
             "geometry");
  }

  if (spec.branches == 1) {
    auto g = std::move(b).build();
    FCAD_CHECK_MSG(g.is_ok(), g.status().message());
    return std::move(g).value();
  }

  // Shared texture front-end for branches 1..B-1.
  LayerId view = b.input("view_code", {192, 1, 1});
  LayerId view_map = b.reshape(view, "view_map", {3, 8, 8});
  LayerId shared = b.concat({latent_map, view_map}, "latent_view");
  shared = cau(b, shared, "sh_l1", scaled(256, spec.width), spec.untied_bias);
  shared = cau(b, shared, "sh_l2", scaled(512, spec.width), spec.untied_bias);
  // shared is at 32x32 after two up-samplings.

  for (int br = 1; br < spec.branches; ++br) {
    // Alternate branch depth so the decoder stays heterogeneous: odd
    // branches run all kTextureSteps (two shared, the rest their own), even
    // ones stop two steps early.
    const int own_steps = kTextureSteps - 2 - (br % 2 ? 0 : 2);
    LayerId x = shared;
    int ch = scaled(128, spec.width);
    for (int i = 0; i < own_steps; ++i) {
      x = cau(b, x, "br" + std::to_string(br) + "_l" + std::to_string(i), ch,
              spec.untied_bias);
      ch = std::max(8, ch / 2);
    }
    b.output(b.conv2d(x, "br" + std::to_string(br) + "_out",
                      {.out_ch = br % 2 ? 3 : 2, .kernel = 4,
                       .untied_bias = spec.untied_bias, .bias = true}),
             "texture_" + std::to_string(br));
  }

  auto g = std::move(b).build();
  FCAD_CHECK_MSG(g.is_ok(), g.status().message());
  return std::move(g).value();
}

}  // namespace fcad::nn::zoo
