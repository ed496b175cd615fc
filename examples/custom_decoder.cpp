// Example: bring your own decoder.
//
// F-CAD consumes models as structure-only metadata, so a new avatar decoder
// is just a graph built with GraphBuilder (or imported from the text format
// of nn/serialize.hpp). This example builds a hypothetical next-generation
// decoder with FOUR branches — geometry, stereo texture, warp field, and an
// audio-driven mouth-region branch (Sec. VIII cites audio-driven codec
// avatars as emerging work) — then explores accelerators for it with
// different branch priorities.
#include <cstdio>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "nn/builder.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace fcad;

nn::LayerId cau(nn::GraphBuilder& b, nn::LayerId x, const std::string& prefix,
                int out_ch) {
  x = b.conv2d(x, prefix + "_conv",
               {.out_ch = out_ch, .kernel = 4, .untied_bias = true});
  x = b.leaky_relu(x, prefix + "_act");
  return b.upsample2x(x, prefix + "_up");
}

nn::Graph next_gen_decoder() {
  nn::GraphBuilder b("next_gen_decoder");
  auto latent = b.input("latent_code", {256, 1, 1});
  auto view = b.input("view_code", {192, 1, 1});
  auto audio = b.input("audio_code", {64, 1, 1});
  auto latent_map = b.reshape(latent, "latent_map", {4, 8, 8});
  auto view_map = b.reshape(view, "view_map", {3, 8, 8});
  auto audio_map = b.reshape(audio, "audio_map", {1, 8, 8});

  // Br.1 — geometry.
  {
    auto x = latent_map;
    const int ch[] = {192, 128, 64, 32, 16};
    for (int i = 0; i < 5; ++i) x = cau(b, x, "geo_l" + std::to_string(i), ch[i]);
    b.output(b.conv2d(x, "geo_out",
                      {.out_ch = 3, .kernel = 4, .untied_bias = true}),
             "geometry");
  }

  // Shared texture front-end (latent + view), feeding Br.2 and Br.3.
  auto shared = b.concat({latent_map, view_map}, "latent_view");
  shared = cau(b, shared, "sh_l1", 256);
  shared = cau(b, shared, "sh_l2", 512);

  // Br.2 — HD texture.
  {
    auto x = shared;
    const int ch[] = {64, 64, 48, 16, 16};
    for (int i = 0; i < 5; ++i) x = cau(b, x, "tex_l" + std::to_string(i), ch[i]);
    b.output(b.conv2d(x, "tex_out",
                      {.out_ch = 3, .kernel = 4, .untied_bias = true}),
             "texture");
  }

  // Br.3 — warp field.
  {
    auto x = shared;
    const int ch[] = {96, 48, 24};
    for (int i = 0; i < 3; ++i) x = cau(b, x, "warp_l" + std::to_string(i), ch[i]);
    b.output(b.conv2d(x, "warp_out",
                      {.out_ch = 2, .kernel = 4, .untied_bias = true}),
             "warp_field");
  }

  // Br.4 — audio-driven mouth region (small, latency-critical).
  {
    auto x = b.concat({latent_map, audio_map}, "latent_audio");
    const int ch[] = {96, 64, 32, 16};
    for (int i = 0; i < 4; ++i) {
      x = cau(b, x, "mouth_l" + std::to_string(i), ch[i]);
    }
    b.output(b.conv2d(x, "mouth_out",
                      {.out_ch = 3, .kernel = 4, .untied_bias = true}),
             "mouth_region");
  }

  auto g = std::move(b).build();
  FCAD_CHECK_MSG(g.is_ok(), g.status().message());
  return std::move(g).value();
}

void explore(core::Pipeline& pipeline, const char* label,
             std::vector<double> priorities) {
  // The pipeline caches its analysis/construction artifacts, so each
  // priority scenario re-runs only the optimization stage.
  dse::SearchSpec spec;
  spec.customization.datapath = "pipelined-int8";
  spec.customization.batch_sizes = {1, 2, 2, 1};
  spec.customization.priorities = std::move(priorities);
  spec.search.population = 100;
  spec.search.iterations = 12;
  spec.search.seed = 7;

  if (Status s = pipeline.optimize(spec); !s.is_ok()) {
    std::fprintf(stderr, "%s failed: %s\n", label, s.to_string().c_str());
    return;
  }
  auto result = pipeline.result();
  if (!result.is_ok()) {
    std::fprintf(stderr, "%s failed: %s\n", label,
                 result.status().to_string().c_str());
    return;
  }
  std::printf("%s\n",
              core::case_report(label, *result, pipeline.platform()).c_str());
}

}  // namespace

int main() {
  const nn::Graph decoder = next_gen_decoder();

  // The text serialization is the interchange format for ML frameworks;
  // print the first lines so users see what an exported model looks like.
  const std::string text = nn::to_text(decoder);
  std::size_t cut = 0;
  for (int line = 0; line < 6 && cut != std::string::npos; ++line) {
    cut = text.find('\n', cut + 1);
  }
  std::printf("--- serialized model (first 6 lines) ---\n%s...\n\n",
              text.substr(0, cut).c_str());

  core::Pipeline pipeline(decoder, arch::platform_zu9cg());
  explore(pipeline, "equal priorities", {1, 1, 1, 1});
  explore(pipeline, "mouth-region prioritized (lip sync)", {1, 1, 1, 6});
  return 0;
}
