#include "core/calibration.hpp"

#include <utility>

#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/classic_nets.hpp"
#include "sim/simulator.hpp"

namespace fcad::core {

std::vector<CalibrationPoint> run_calibration() {
  std::vector<CalibrationPoint> points;
  const arch::Platform ku115 = arch::platform_ku115();
  // Datapath and the precision shown in the point's label.
  const std::pair<const char*, const char*> datapaths[] = {
      {"pipelined-int16", "int16"}, {"pipelined-int8", "int8"}};

  int index = 1;
  for (const auto& [datapath, precision] : datapaths) {
    for (nn::Graph& net : nn::zoo::calibration_benchmarks()) {
      auto model = arch::reorganize(net);
      FCAD_CHECK_MSG(model.is_ok(), model.status().message());

      dse::SearchSpec spec;
      spec.customization.datapath = datapath;
      spec.search.population = 40;  // single branch: small swarm suffices
      spec.search.iterations = 8;
      spec.search.seed = 1234 + index;
      auto outcome = dse::SearchDriver(*model, ku115).run(spec);
      FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
      const dse::SearchResult* search = &outcome->search;

      const sim::SimResult simulated =
          sim::simulate(*model, search->config, ku115);

      CalibrationPoint p;
      p.name = std::to_string(index) + ": " + net.name() + " (" + precision +
               ")";
      // Analytical estimate: smooth Eq. 4/5 + Eq. 3 on the winning config.
      const arch::AcceleratorEval analytical = arch::evaluate(
          *model, search->config, arch::EvalMode::kAnalytical);
      p.est_fps = analytical.min_fps;
      p.est_eff = analytical.efficiency;
      p.real_fps = simulated.min_fps;
      p.real_eff = simulated.efficiency;
      points.push_back(p);
      ++index;
    }
  }
  return points;
}

}  // namespace fcad::core
