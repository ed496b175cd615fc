// Quickstart: run the whole F-CAD flow on the Table-I codec avatar decoder
// through the staged core::Pipeline.
//
//   1. build (or import) the decoder network,
//   2. analyze() — inspect its branch structure and compute/memory demands,
//   3. optimize() — search for the accelerator on a Xilinx ZU9CG budget,
//      watching per-iteration progress through the RunControl observer,
//   4. simulate() — validate the winning design on the cycle-level
//      simulator, then render the Table-IV style report.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "analysis/report.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "nn/zoo/avatar_decoder.hpp"

int main() {
  using namespace fcad;

  // 1. The decoder: three branches (geometry / texture / warp field) with a
  //    shared front-end, customized untied-bias convolutions throughout.
  core::Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());

  // 2. Analysis stage: the artifact is cached on the pipeline, so nothing
  //    below ever re-profiles the graph.
  if (Status s = pipeline.analyze(); !s.is_ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", s.to_string().c_str());
    return 1;
  }
  const core::ProfileArtifact& profile = *pipeline.profile();
  std::printf("%s\n",
              analysis::branch_summary(pipeline.graph(), profile.profile,
                                       profile.decomposition)
                  .c_str());

  // 3. The optimization stage: pipelined 8-bit datapath, batch {1, 2, 2}
  //    (Br.2/3 render one HD texture per eye), equal priorities, ZU9CG
  //    budget.
  dse::SearchSpec spec;
  spec.customization.datapath = "pipelined-int8";
  spec.customization.batch_sizes = {1, 2, 2};
  spec.search.population = 100;  // lighter than the paper's 200 for a demo
  spec.search.iterations = 12;
  spec.search.seed = 42;
  spec.control.on_progress = [](const dse::ProgressEvent& event) {
    std::fprintf(stderr, "  %s %d/%d: best fitness %.1f\n",
                 event.stage.c_str(), event.step, event.total_steps,
                 event.best_fitness);
  };
  if (Status s = pipeline.optimize(spec); !s.is_ok()) {
    std::fprintf(stderr, "search failed: %s\n", s.to_string().c_str());
    return 1;
  }

  // 4. Cycle-level validation + report.
  if (Status s = pipeline.simulate(); !s.is_ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", s.to_string().c_str());
    return 1;
  }
  auto result = pipeline.result();
  if (!result.is_ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n",
              core::case_report("quickstart (ZU9CG, 8-bit)", *result,
                                pipeline.platform())
                  .c_str());
  return 0;
}
