// Example: targeting an ASIC budget instead of an FPGA.
//
// Sec. VII notes F-CAD "can also target ASIC designs with the resource
// budgets {Cmax, Mmax, BWmax} associating to ... the available MAC units,
// the on-chip buffer size, and the external memory bandwidth". This example
// sweeps three hypothetical HMD SoC corners and reports what decoder
// performance each could sustain.
#include <cstdio>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace fcad;

  struct Corner {
    const char* name;
    int mac_units;
    double buffer_mib;
    double bw_gbps;
    double freq_mhz;
  };
  // MAC counts are DSP-equivalents (one unit = one 16-bit MAC or two 8-bit
  // MACs per cycle), matching the FPGA accounting.
  const Corner corners[] = {
      {"hmd-low (2W)", 1024, 2.0, 8.5, 400},
      {"hmd-mid (4W)", 2048, 4.0, 17.0, 600},
      {"hmd-high (7W)", 4096, 8.0, 25.6, 800},
  };

  TablePrinter t({"ASIC corner", "MACs", "buf", "BW", "clock", "branch FPS",
                  "min FPS", "efficiency"});
  for (const Corner& c : corners) {
    const arch::Platform asic =
        arch::make_asic(c.name, c.mac_units, c.buffer_mib, c.bw_gbps,
                        c.freq_mhz);
    core::PipelineOptions options;
    options.spec.customization.datapath = "pipelined-int8";
    options.spec.customization.batch_sizes = {1, 2, 2};
    options.spec.search.population = 100;
    options.spec.search.iterations = 12;
    options.spec.search.seed = 13;

    core::Pipeline pipeline(nn::zoo::avatar_decoder(), asic);
    auto result = pipeline.run(options);
    if (!result.is_ok()) {
      std::fprintf(stderr, "%s failed: %s\n", c.name,
                   result.status().to_string().c_str());
      return 1;
    }
    const arch::AcceleratorEval& eval = result->search.eval;
    std::string fps = "{";
    for (std::size_t b = 0; b < eval.branches.size(); ++b) {
      if (b) fps += ", ";
      fps += format_fixed(eval.branches[b].fps, 1);
    }
    fps += "}";
    t.add_row({c.name, std::to_string(c.mac_units),
               format_fixed(c.buffer_mib, 1) + " MiB",
               format_fixed(c.bw_gbps, 1) + " GB/s",
               format_fixed(c.freq_mhz, 0) + " MHz", fps,
               format_fixed(eval.min_fps, 1),
               format_percent(eval.efficiency, 1)});
  }
  std::printf("=== F-CAD on ASIC budgets (codec avatar decoder, 8-bit) ===\n\n%s\n",
              t.to_string().c_str());
  std::printf("reading: the VR bar is 90+ FPS on every branch; the sweep\n"
              "shows which power corner first clears it.\n");
  return 0;
}
