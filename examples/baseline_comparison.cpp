// Example: head-to-head of every accelerator model in the repository on one
// FPGA — the Snapdragon-865-class SoC, DNNBuilder, HybridDNN, and F-CAD —
// with the cycle-level simulator double-checking the F-CAD winner.
#include <cstdio>

#include "arch/platform.hpp"
#include "baselines/dnnbuilder.hpp"
#include "baselines/hybriddnn.hpp"
#include "baselines/soc865.hpp"
#include "core/pipeline.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace fcad;
  const arch::Platform target = arch::platform_zu17eg();

  // Baselines run the mimic decoder (they lack the customized Conv).
  auto mimic = arch::reorganize(nn::zoo::mimic_decoder());
  if (!mimic.is_ok()) {
    std::fprintf(stderr, "%s\n", mimic.status().to_string().c_str());
    return 1;
  }
  const auto soc = baselines::run_soc865(*mimic);
  const auto dnnb =
      baselines::run_dnnbuilder(*mimic, target, nn::DataType::kInt8);
  const auto hybrid =
      baselines::run_hybriddnn(*mimic, target, nn::DataType::kInt16);

  // F-CAD runs the real decoder, with simulator validation.
  core::PipelineOptions options;
  options.spec.customization.datapath = "pipelined-int8";
  options.spec.customization.batch_sizes = {1, 1, 1};  // match the baselines
  options.spec.search.population = 150;
  options.spec.search.iterations = 15;
  options.spec.search.seed = 2021;
  options.run_simulation = true;
  core::Pipeline pipeline(nn::zoo::avatar_decoder(), target);
  auto fcad = pipeline.run(options);
  if (!fcad.is_ok()) {
    std::fprintf(stderr, "%s\n", fcad.status().to_string().c_str());
    return 1;
  }

  TablePrinter t({"Design", "Precision", "FPS", "Efficiency", "VR-ready?"});
  auto vr = [](double fps) { return fps >= 90.0 ? "yes" : "no"; };
  t.add_row({"Snapdragon-865-class SoC", "8-bit", format_fixed(soc.fps, 1),
             format_percent(soc.efficiency, 1), vr(soc.fps)});
  t.add_row({"DNNBuilder on " + target.name, "8-bit",
             format_fixed(dnnb.fps, 1), format_percent(dnnb.efficiency, 1),
             vr(dnnb.fps)});
  t.add_row({"HybridDNN on " + target.name, "16-bit",
             format_fixed(hybrid.fps, 1),
             format_percent(hybrid.efficiency, 1), vr(hybrid.fps)});
  const auto& eval = fcad->search.eval;
  t.add_row({"F-CAD on " + target.name, "8-bit",
             format_fixed(eval.min_fps, 1),
             format_percent(eval.efficiency, 1), vr(eval.min_fps)});
  std::printf("=== who can decode a codec avatar in real time? ===\n\n%s\n",
              t.to_string().c_str());

  const auto& simulated = *fcad->simulation;
  std::printf("F-CAD winner cross-checked by the cycle simulator: %s FPS "
              "(analytical %s), DDR %s GB/s of %s available.\n",
              format_fixed(simulated.min_fps, 1).c_str(),
              format_fixed(eval.min_fps, 1).c_str(),
              format_fixed(simulated.ddr_demand_gbps, 2).c_str(),
              format_fixed(target.bw_gbps, 1).c_str());
  return 0;
}
