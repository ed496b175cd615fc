// Scalability study (our extension): Sec. VI-A observes that each extra
// branch or layer raises the dimensionality of the multi-branch dynamic
// design space. This bench sweeps synthetic decoders with 1-6 branches and
// reports space dimensionality, DSE runtime, and the result quality, showing
// the divide-and-conquer search stays tractable as decoders grow.
#include <cstdio>

#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/scaled_decoder.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace fcad;

  std::printf("=== DSE scalability vs branch count (ZU9CG, 8-bit) ===\n\n");
  TablePrinter t({"branches", "stages", "space dims", "log10 |space|",
                  "DSE s", "evals", "min FPS", "feasible"});
  for (int branches = 1; branches <= 6; ++branches) {
    nn::zoo::ScaledDecoderSpec spec;
    spec.branches = branches;
    spec.width = 0.75;
    nn::Graph graph = nn::zoo::scaled_decoder(spec);
    auto model = arch::reorganize(graph);
    FCAD_CHECK_MSG(model.is_ok(), model.status().message());

    const dse::DesignSpaceStats stats = dse::design_space_stats(*model);

    dse::SearchSpec search_spec;
    search_spec.customization.datapath = "pipelined-int8";
    search_spec.search.population = 100;
    search_spec.search.iterations = 12;
    search_spec.search.seed = 31;
    auto outcome = dse::SearchDriver(*model, arch::platform_zu9cg())
                       .run(search_spec);
    FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
    const dse::SearchResult* result = &outcome->search;

    t.add_row({std::to_string(branches), std::to_string(stats.stages),
               std::to_string(stats.dimensions),
               format_fixed(stats.log10_configs, 1),
               format_fixed(result->seconds, 2),
               std::to_string(result->trace.evaluations),
               format_fixed(result->eval.min_fps, 1),
               result->feasible ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "shape to check: the discrete space grows by orders of magnitude per\n"
      "branch while DSE runtime grows only linearly (the cross-branch /\n"
      "in-branch decomposition is what keeps it tractable).\n");
  return 0;
}
