// Table V — comparison against DNNBuilder and HybridDNN on the same ZU9CG
// budget, batch uniformly 1 (the baselines do not support differentiated
// batching). Baselines run the mimic decoder, F-CAD the real one.
#include <cstdio>
#include <string>

#include "arch/platform.hpp"
#include "baselines/dnnbuilder.hpp"
#include "baselines/hybriddnn.hpp"
#include "core/pipeline.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace fcad;

  std::printf("=== Table V: comparison on ZU9CG @200 MHz ===\n\n");
  const arch::Platform zu9cg = arch::platform_zu9cg();

  nn::Graph mimic = nn::zoo::mimic_decoder();
  auto mimic_model = arch::reorganize(mimic);
  if (!mimic_model.is_ok()) {
    std::fprintf(stderr, "%s\n", mimic_model.status().to_string().c_str());
    return 1;
  }

  const baselines::DnnBuilderResult dnnb =
      baselines::run_dnnbuilder(*mimic_model, zu9cg, nn::DataType::kInt8);
  const baselines::HybridDnnResult hybrid =
      baselines::run_hybriddnn(*mimic_model, zu9cg, nn::DataType::kInt16);

  auto run_fcad = [&](const char* datapath) {
    core::PipelineOptions options;
    options.spec.customization.datapath = datapath;
    options.spec.customization.batch_sizes = {1, 1, 1};  // fair batch
    options.spec.search.population = 200;
    options.spec.search.iterations = 20;
    options.spec.search.seed = 20210308;
    core::Pipeline pipeline(nn::zoo::avatar_decoder(), zu9cg);
    auto result = pipeline.run(options);
    FCAD_CHECK_MSG(result.is_ok(), result.status().message());
    return result.value().search.eval;
  };
  const arch::AcceleratorEval fcad8 = run_fcad("pipelined-int8");
  const arch::AcceleratorEval fcad16 = run_fcad("pipelined-int16");

  TablePrinter t(
      {"", "DNNBuilder", "HybridDNN", "F-CAD (8-bit)", "F-CAD (16-bit)"});
  t.add_row({"Precision", "8-bit", "16-bit", "8-bit", "16-bit"});
  t.add_row({"DSP", std::to_string(dnnb.dsps), std::to_string(hybrid.dsps),
             std::to_string(fcad8.dsps), std::to_string(fcad16.dsps)});
  t.add_row({"BRAM", std::to_string(dnnb.brams), std::to_string(hybrid.brams),
             std::to_string(fcad8.brams), std::to_string(fcad16.brams)});
  t.add_row({"FPS", format_fixed(dnnb.fps, 1), format_fixed(hybrid.fps, 1),
             format_fixed(fcad8.min_fps, 1), format_fixed(fcad16.min_fps, 1)});
  t.add_row({"Efficiency", format_percent(dnnb.efficiency, 1),
             format_percent(hybrid.efficiency, 1),
             format_percent(fcad8.efficiency, 1),
             format_percent(fcad16.efficiency, 1)});
  std::printf("%s\n", t.to_string().c_str());

  const double speedup8 = dnnb.fps > 0 ? fcad8.min_fps / dnnb.fps : 0;
  const double speedup16 = hybrid.fps > 0 ? fcad16.min_fps / hybrid.fps : 0;
  std::printf("F-CAD vs DNNBuilder (8-bit): %.1fx throughput, +%.1f pp "
              "efficiency\n",
              speedup8, (fcad8.efficiency - dnnb.efficiency) * 100.0);
  std::printf("F-CAD vs HybridDNN (16-bit): %.1fx throughput, +%.1f pp "
              "efficiency\n\n",
              speedup16, (fcad16.efficiency - hybrid.efficiency) * 100.0);
  std::printf(
      "paper reference: DNNBuilder 1820 DSP / 30.5 FPS / 28.8%%; HybridDNN\n"
      "1024 DSP / 22.0 FPS / 70.4%%; F-CAD 2229 DSP / 122.1 FPS / 91.3%%\n"
      "(8-bit) and 2213 DSP / 61.0 FPS / 91.6%% (16-bit) -> 4.0x and 2.8x.\n");
  return 0;
}
