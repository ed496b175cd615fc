// Datapath x frequency co-exploration (our extension): the paper fixes
// 200 MHz and treats the precision (its quantization Q, here the datapath)
// as a per-run customization; this bench explores the pipelined-int8/int16 x
// clock grid on ZU9CG and prints the (min-FPS, DSP) Pareto frontier, the
// deployment view an HMD architect actually needs.
//
//   bench_sweep [--threads N] [--strategy name] [--csv out.csv]
//               [--json out.json] [--artifact-cache DIR]
//
// The sweep runs through core::Pipeline, so --artifact-cache DIR enables
// the spec-hash-keyed artifact cache: a repeated run with the same flags
// reloads the previous SearchArtifact from DIR instead of re-searching
// (bit-identical table/CSV/JSON output, "artifact cache: N hit(s)" on
// stdout).
#include <cstdio>
#include <string>

#include "arch/datapath.hpp"
#include "arch/platform.hpp"
#include "core/pipeline.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/export.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

/// The CSV/JSON `quantization` column: the weight width of the datapath.
std::string weight_width(const std::string& datapath) {
  auto dp = fcad::arch::datapath_from_string(datapath);
  FCAD_CHECK_MSG(dp.is_ok(), dp.status().message());
  return fcad::nn::to_string(dp->ww);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fcad;

  auto args = ArgParser::parse(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().to_string().c_str());
    return 1;
  }

  obs::ObservationScope obs_scope(args->get("metrics-out", ""),
                                  args->get("trace-out", ""));

  std::printf(
      "=== quantization x frequency sweep, ZU9CG, batch {1,2,2} ===\n\n");

  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kSweep;
  spec.sweep.frequencies_mhz = {150, 200, 250, 300};
  spec.search.population = 100;
  spec.search.iterations = 12;
  spec.search.seed = 4242;
  spec.strategy = args->get("strategy", "particle-swarm");
  auto threads_flag = args->get_int("threads", 0);
  if (!threads_flag.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 threads_flag.status().to_string().c_str());
    return 1;
  }
  spec.control.threads = static_cast<int>(*threads_flag);
  spec.customization.batch_sizes = {1, 2, 2};
  const std::string csv_path = args->get("csv", "");
  const std::string json_path = args->get("json", "");

  core::Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  pipeline.set_artifact_cache_dir(args->get("artifact-cache", ""));
  if (Status s = pipeline.optimize(spec); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }
  const std::vector<dse::SweepPoint>& points =
      pipeline.search()->outcome.sweep;

  TablePrinter t({"datapath", "clock", "min FPS", "DSP", "BRAM", "BW (GB/s)",
                  "efficiency", "Pareto"});
  for (const dse::SweepPoint& p : points) {
    const arch::AcceleratorEval& eval = p.result.eval;
    t.add_row({p.datapath,
               format_fixed(p.freq_mhz, 0) + " MHz",
               format_fixed(eval.min_fps, 1), std::to_string(eval.dsps),
               std::to_string(eval.brams), format_fixed(eval.bw_gbps, 2),
               format_percent(eval.efficiency, 1),
               p.pareto_optimal ? "*" : ""});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "shape to check: int8 dominates int16 at equal clock (DSP packing);\n"
      "FPS scales with clock until DDR bandwidth bites; the frontier should\n"
      "be int8 points ordered by clock.\n");
  if (!pipeline.artifact_cache_dir().empty()) {
    std::printf("artifact cache: %d hit(s), %d miss(es)\n",
                pipeline.artifact_cache_hits(),
                pipeline.artifact_cache_misses());
  }

  if (!csv_path.empty()) {
    CsvWriter csv({"datapath", "quantization", "freq_mhz", "min_fps", "dsps",
                   "brams", "bw_gbps", "efficiency", "fitness", "feasible",
                   "pareto"});
    for (const dse::SweepPoint& p : points) {
      const arch::AcceleratorEval& eval = p.result.eval;
      csv.add_row({p.datapath, weight_width(p.datapath),
                   format_fixed(p.freq_mhz, 0),
                   format_fixed(eval.min_fps, 3), std::to_string(eval.dsps),
                   std::to_string(eval.brams), format_fixed(eval.bw_gbps, 3),
                   format_fixed(eval.efficiency, 4),
                   format_fixed(p.result.fitness, 3),
                   std::to_string(p.result.feasible ? 1 : 0),
                   std::to_string(p.pareto_optimal ? 1 : 0)});
    }
    if (!csv.write_file(csv_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.key("schema_version").value(1);
    json.key("bench").value("sweep");
    json.key("strategy").value(spec.strategy);
    json.key("points").begin_array();
    for (const dse::SweepPoint& p : points) {
      const arch::AcceleratorEval& eval = p.result.eval;
      json.begin_object();
      json.key("datapath").value(p.datapath);
      json.key("quantization").value(weight_width(p.datapath));
      json.key("freq_mhz").value(p.freq_mhz);
      json.key("min_fps").value(eval.min_fps);
      json.key("dsps").value(eval.dsps);
      json.key("brams").value(eval.brams);
      json.key("bw_gbps").value(eval.bw_gbps);
      json.key("efficiency").value(eval.efficiency);
      json.key("fitness").value(p.result.fitness);
      json.key("feasible").value(p.result.feasible);
      json.key("pareto").value(p.pareto_optimal);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return obs_scope.finish() ? 0 : 1;
}
