// fcad_cli — the command-line front end of the framework, driving the
// staged core::Pipeline.
//
//   fcad_cli --model decoder.fcad --platform zu9cg --datapath pipelined-int8
//            --batches 1,2,2 --priorities 1,1,1
//            --population 200 --iterations 20 --seed 1 --simulate --json
//
// --model takes a network in the nn/serialize.hpp text format; without it,
// the built-in Table-I avatar decoder is used. --asic-macs/--asic-buffer-mib/
// --asic-bw/--asic-freq define an ASIC budget instead of --platform.
// --save-artifact / --load-artifact serialize the optimization stage, so a
// search can be resumed for reporting/simulation without re-running it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config_io.hpp"
#include "arch/datapath.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "nn/serialize.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/export.hpp"
#include "sim/trace.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace {

using namespace fcad;

void usage() {
  std::printf(
      "usage: fcad_cli [options]\n"
      "  --model <file>        network in the fcad text format "
      "(default: built-in avatar decoder)\n"
      "  --platform <name>     z7045 | zu17eg | zu9cg | ku115 (default "
      "zu9cg)\n"
      "  --asic-macs <n>       target an ASIC instead: MAC units\n"
      "  --asic-buffer-mib <f> ASIC on-chip buffer (MiB)\n"
      "  --asic-bw <f>         ASIC DRAM bandwidth (GB/s)\n"
      "  --asic-freq <f>       ASIC clock (MHz)\n"
      "  --datapath <name>     precision x MAC datapath (the paper's "
      "quantization Q),\n"
      "                        e.g. pipelined-int8 (default) or "
      "staged-int8x4\n"
      "                        (see --list-datapaths)\n"
      "  --list-datapaths      print the registered datapath names and "
      "exit\n"
      "  --search-datapath     joint datapath x batch-scale sweep over "
      "every registered\n"
      "                        datapath, Pareto-marked on (min FPS, "
      "accuracy proxy)\n"
      "  --batches a,b,...     per-branch batch-size targets\n"
      "  --priorities a,b,...  per-branch priorities\n"
      "  --population <n>      DSE candidates P (default 200)\n"
      "  --iterations <n>      DSE iterations N (default 20)\n"
      "  --seed <n>            DSE seed (default 1)\n"
      "  --strategy <name>     search strategy (default particle-swarm; "
      "see --list-strategies)\n"
      "  --list-strategies     print the registered strategy names and "
      "exit\n"
      "  --artifact-cache <dir> spec-hash-keyed artifact cache: a repeated "
      "run with identical\n"
      "                        flags reloads its search artifact instead of "
      "re-searching\n"
      "  --threads <n>         DSE evaluation threads (default: all cores; "
      "results are identical for any value)\n"
      "  --deadline-s <f>      wall-clock budget for the search (best-effort "
      "result when it expires)\n"
      "  --progress            stream per-iteration progress to stderr\n"
      "  --simulate            validate the winner on the cycle simulator\n"
      "  --chart               print the simulator's per-stage utilization "
      "chart (implies --simulate)\n"
      "  --json                print a machine-readable JSON report instead "
      "of the table\n"
      "  --save-config <file>  write the winning accelerator config "
      "(arch/config_io.hpp format)\n"
      "  --save-artifact <file> write the search-stage artifact "
      "(re-enterable via --load-artifact)\n"
      "  --load-artifact <file> skip the search; resume from a saved "
      "artifact\n"
      "  --metrics-out <file>  write obs metrics (counters/gauges/histograms) "
      "as JSON\n"
      "  --trace-out <file>    write a Chrome/Perfetto trace of the run\n"
      "  --dump-model          print the model text and exit\n");
}

StatusOr<nn::Graph> load_model(const ArgParser& args) {
  const std::string path = args.get("model", "");
  if (path.empty()) return nn::zoo::avatar_decoder();
  std::ifstream in(path);
  if (!in) return Status::not_found("cannot open model file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return nn::from_text(buffer.str());
}

/// A finite, positive `--flag` value, rejected by name otherwise.
StatusOr<double> positive_flag(const ArgParser& args, const std::string& flag,
                               double fallback) {
  auto value = args.get_double(flag, fallback);
  if (!value.is_ok()) return value.status();
  if (!std::isfinite(*value) || *value <= 0) {
    return Status::invalid_argument("--" + flag +
                                    " must be finite and > 0, got " +
                                    format_exact(*value));
  }
  return *value;
}

StatusOr<arch::Platform> load_platform(const ArgParser& args) {
  if (args.has("asic-macs")) {
    // make_asic casts the MAC count and the buffer's BRAM18K count to int.
    constexpr auto kIntMax = std::numeric_limits<int>::max();
    auto macs = args.get_int("asic-macs", 0);
    if (!macs.is_ok()) return macs.status();
    if (*macs < 1 || *macs > kIntMax) {
      return Status::invalid_argument("--asic-macs must be in [1, " +
                                      std::to_string(kIntMax) + "], got " +
                                      std::to_string(*macs));
    }
    auto buffer = positive_flag(args, "asic-buffer-mib", 4.0);
    if (!buffer.is_ok()) return buffer.status();
    if (std::ceil(*buffer * 1024.0 * 1024.0 * 8.0 / 18432.0) > kIntMax) {
      return Status::invalid_argument("--asic-buffer-mib is too large, got " +
                                      format_exact(*buffer));
    }
    auto bw = positive_flag(args, "asic-bw", 12.8);
    if (!bw.is_ok()) return bw.status();
    auto freq = positive_flag(args, "asic-freq", 600.0);
    if (!freq.is_ok()) return freq.status();
    return arch::make_asic("asic", static_cast<int>(*macs), *buffer, *bw,
                           *freq);
  }
  return arch::platform_by_name(args.get("platform", "zu9cg"));
}

void emit_platform(JsonWriter& json, const arch::Platform& platform) {
  json.key("platform").begin_object();
  json.key("name").value(platform.name);
  json.key("dsps").value(platform.dsps);
  json.key("brams18k").value(platform.brams18k);
  json.key("bw_gbps").value(platform.bw_gbps);
  json.key("freq_mhz").value(platform.freq_mhz);
  json.end_object();
}

/// The machine-readable twin of core::case_report: platform + search stats
/// + per-branch evaluation + structured winner config + the re-enterable
/// artifact text.
std::string json_report(const core::Pipeline& pipeline,
                        const core::PipelineResult& result) {
  const dse::SearchResult& search = result.search;
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(1);
  json.key("model").value(pipeline.graph().name());
  emit_platform(json, pipeline.platform());

  json.key("search").begin_object();
  json.key("fitness").value(search.fitness);
  json.key("feasible").value(search.feasible);
  json.key("stopped_early").value(search.stopped_early);
  json.key("seconds").value(search.seconds);
  json.key("evaluations").value(search.trace.evaluations);
  json.key("convergence_iteration").value(search.trace.convergence_iteration);
  json.key("cache_hits").value(search.trace.cache_hits);
  json.key("cache_misses").value(search.trace.cache_misses);
  json.end_object();

  const arch::AcceleratorEval& eval = search.eval;
  json.key("eval").begin_object();
  json.key("datapath")
      .value(arch::datapath_to_string(search.config.datapath));
  json.key("accuracy_proxy").value(eval.accuracy_proxy);
  json.key("min_fps").value(eval.min_fps);
  json.key("efficiency").value(eval.efficiency);
  json.key("dsps").value(eval.dsps);
  json.key("luts").value(eval.luts);
  json.key("brams").value(eval.brams);
  json.key("bw_gbps").value(eval.bw_gbps);
  json.key("branches").begin_array();
  for (std::size_t b = 0; b < eval.branches.size(); ++b) {
    const arch::BranchEval& be = eval.branches[b];
    json.begin_object();
    json.key("role").value(result.model.branches[b].role);
    json.key("batch").value(be.batch);
    json.key("fps").value(be.fps);
    json.key("dsps").value(be.dsps);
    json.key("brams").value(be.brams);
    json.key("bw_gbps").value(be.bw_gbps);
    json.key("efficiency").value(be.efficiency);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  if (result.simulation.has_value()) {
    json.key("simulation").begin_object();
    json.key("min_fps").value(result.simulation->min_fps);
    json.key("efficiency").value(result.simulation->efficiency);
    json.key("ddr_demand_gbps").value(result.simulation->ddr_demand_gbps);
    json.end_object();
  }

  json.key("artifact").value(pipeline.save_search());
  json.end_object();
  return json.str();
}

/// Distinct datapath names on the sweep's Pareto frontier, grid order.
std::vector<std::string> frontier_datapaths(
    const std::vector<dse::SweepPoint>& sweep) {
  std::vector<std::string> names;
  for (const dse::SweepPoint& point : sweep) {
    if (!point.pareto_optimal) continue;
    if (std::find(names.begin(), names.end(), point.datapath) != names.end())
      continue;
    names.push_back(point.datapath);
  }
  return names;
}

/// The machine-readable shape of a --search-datapath (kSweep) run: every
/// grid point with its evaluation, plus the distinct frontier datapaths.
std::string sweep_json_report(const core::Pipeline& pipeline,
                              const dse::SearchOutcome& outcome) {
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(1);
  json.key("model").value(pipeline.graph().name());
  emit_platform(json, pipeline.platform());
  json.key("sweep").begin_object();
  json.key("points").begin_array();
  for (const dse::SweepPoint& point : outcome.sweep) {
    const arch::AcceleratorEval& eval = point.result.eval;
    json.begin_object();
    json.key("datapath").value(point.datapath);
    json.key("freq_mhz").value(point.freq_mhz);
    json.key("batch_scale").value(point.batch_scale);
    json.key("pareto").value(point.pareto_optimal);
    json.key("feasible").value(point.result.feasible);
    json.key("fitness").value(point.result.fitness);
    json.key("accuracy_proxy").value(eval.accuracy_proxy);
    json.key("min_fps").value(eval.min_fps);
    json.key("dsps").value(eval.dsps);
    json.key("luts").value(eval.luts);
    json.key("brams").value(eval.brams);
    json.key("bw_gbps").value(eval.bw_gbps);
    json.end_object();
  }
  json.end_array();
  json.key("frontier_datapaths").begin_array();
  for (const std::string& name : frontier_datapaths(outcome.sweep)) {
    json.value(name);
  }
  json.end_array();
  json.end_object();
  json.key("artifact").value(pipeline.save_search());
  json.end_object();
  return json.str();
}

/// Human-readable twin of sweep_json_report.
void print_sweep_table(const dse::SearchOutcome& outcome) {
  std::printf("datapath x batch-scale sweep (%zu points)\n",
              outcome.sweep.size());
  std::printf("  %-18s %8s %6s %7s %9s %6s %7s %9s %7s\n", "datapath", "MHz",
              "scale", "pareto", "min_fps", "dsps", "luts", "acc_proxy",
              "feas");
  for (const dse::SweepPoint& point : outcome.sweep) {
    std::printf("  %-18s %8.0f %6d %7s %9.2f %6d %7d %9.3f %7s\n",
                point.datapath.c_str(), point.freq_mhz, point.batch_scale,
                point.pareto_optimal ? "*" : "", point.result.eval.min_fps,
                point.result.eval.dsps, point.result.eval.luts,
                point.result.eval.accuracy_proxy,
                point.result.feasible ? "yes" : "no");
  }
  std::printf("frontier:");
  for (const std::string& name : frontier_datapaths(outcome.sweep)) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

int run(const ArgParser& args) {
  if (args.has("quant")) {
    // Removed flag: ArgParser ignores unknown flags, so reject it by name.
    std::fprintf(stderr,
                 "error: --quant was removed; use --datapath pipelined-<Q> "
                 "(e.g. --datapath pipelined-int16)\n");
    return 1;
  }
  // Installed before any pipeline stage so spans cover the whole run; torn
  // down without writing on the error paths (dtor), written via finish() on
  // the reporting paths.
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  auto graph = load_model(args);
  if (!graph.is_ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().to_string().c_str());
    return 1;
  }
  if (args.has("dump-model")) {
    std::printf("%s", nn::to_text(*graph).c_str());
    return 0;
  }
  auto platform = load_platform(args);
  if (!platform.is_ok()) {
    std::fprintf(stderr, "error: %s\n", platform.status().to_string().c_str());
    return 1;
  }

  dse::SearchSpec spec;
  if (args.has("datapath")) {
    auto dp = arch::datapath_from_string(args.get("datapath", ""));
    if (!dp.is_ok()) {
      std::fprintf(stderr, "error: %s\n", dp.status().to_string().c_str());
      return 1;
    }
    spec.customization.datapath = arch::datapath_to_string(*dp);
  }
  auto batches = args.get_int_list("batches");
  if (!batches.is_ok()) {
    std::fprintf(stderr, "error: %s\n", batches.status().to_string().c_str());
    return 1;
  }
  spec.customization.batch_sizes = *batches;
  auto priorities = args.get_double_list("priorities");
  if (!priorities.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 priorities.status().to_string().c_str());
    return 1;
  }
  spec.customization.priorities = *priorities;

  auto population = args.get_int("population", 200);
  auto iterations = args.get_int("iterations", 20);
  auto seed = args.get_int("seed", 1);
  auto threads = args.get_int("threads", 0);
  auto deadline = args.get_double("deadline-s", 0.0);
  if (!population.is_ok() || !iterations.is_ok() || !seed.is_ok() ||
      !threads.is_ok() || !deadline.is_ok()) {
    std::fprintf(stderr, "error: bad numeric flag\n");
    return 1;
  }
  spec.search.population = static_cast<int>(*population);
  spec.search.iterations = static_cast<int>(*iterations);
  spec.search.seed = static_cast<std::uint64_t>(*seed);
  spec.strategy = args.get("strategy", "particle-swarm");
  if (auto strategy = dse::strategy_factory(spec.strategy);
      !strategy.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 strategy.status().to_string().c_str());
    return 1;
  }
  spec.control.threads = static_cast<int>(*threads);
  spec.control.deadline_s = *deadline;
  if (args.has("progress")) {
    spec.control.on_progress = [](const dse::ProgressEvent& event) {
      std::fprintf(stderr, "[%s] %d/%d best fitness %.1f\n",
                   event.stage.c_str(), event.step, event.total_steps,
                   event.best_fitness);
    };
  }
  if (args.has("search-datapath")) {
    if (args.has("simulate") || args.has("chart") ||
        args.has("save-config")) {
      std::fprintf(stderr,
                   "error: --search-datapath produces a sweep, not a single "
                   "winner; --simulate/--chart/--save-config do not apply\n");
      return 1;
    }
    spec.kind = dse::SearchKind::kSweep;
    spec.sweep.datapaths = arch::registered_datapath_names();
    spec.sweep.frequencies_mhz = {platform->freq_mhz};
    spec.sweep.batch_scales = {1, 2};
  }

  // Staged execution: analysis + construction always run; the optimization
  // stage either runs the search or re-enters a saved artifact.
  core::Pipeline pipeline(std::move(*graph), *platform);
  pipeline.set_artifact_cache_dir(args.get("artifact-cache", ""));
  Status status = pipeline.construct();
  if (status.is_ok()) {
    if (args.has("load-artifact")) {
      const std::string path = args.get("load-artifact", "");
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "error: cannot open artifact '%s'\n",
                     path.c_str());
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      status = pipeline.load_search(buffer.str());
    } else {
      status = pipeline.optimize(spec);
    }
  }
  if (status.is_ok() && (args.has("simulate") || args.has("chart"))) {
    status = pipeline.simulate();
  }
  auto result = status.is_ok()
                    ? pipeline.result()
                    : StatusOr<core::PipelineResult>(status);
  if (!result.is_ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().to_string().c_str());
    return 1;
  }

  if (!pipeline.artifact_cache_dir().empty() && !args.has("json")) {
    std::printf("artifact cache: %d hit(s), %d miss(es)\n",
                pipeline.artifact_cache_hits(),
                pipeline.artifact_cache_misses());
  }
  // A sweep outcome (from --search-datapath or a loaded sweep artifact) has
  // no single winner; report the grid instead of the case report.
  const core::SearchArtifact* artifact = pipeline.search();
  const bool sweep_outcome =
      artifact != nullptr &&
      artifact->outcome.kind == dse::SearchKind::kSweep;
  if (args.has("json")) {
    std::printf("%s\n",
                (sweep_outcome
                     ? sweep_json_report(pipeline, artifact->outcome)
                     : json_report(pipeline, *result))
                    .c_str());
  } else if (sweep_outcome) {
    print_sweep_table(artifact->outcome);
  } else {
    std::printf("%s",
                core::case_report(pipeline.graph().name(), *result, *platform)
                    .c_str());
    if (args.has("chart") && result->simulation.has_value()) {
      std::printf("\n%s",
                  sim::utilization_chart(result->model, *result->simulation)
                      .c_str());
    }
  }
  if (args.has("save-config")) {
    const std::string path = args.get("save-config", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return 1;
    }
    out << arch::config_to_text(result->model, result->search.config);
    if (!args.has("json")) std::printf("config written to %s\n", path.c_str());
  }
  if (args.has("save-artifact")) {
    const std::string path = args.get("save-artifact", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return 1;
    }
    out << pipeline.save_search();
    if (!args.has("json")) {
      std::printf("artifact written to %s\n", path.c_str());
    }
  }
  if (!obs_scope.finish()) return 1;
  const bool feasible =
      sweep_outcome
          ? std::any_of(artifact->outcome.sweep.begin(),
                        artifact->outcome.sweep.end(),
                        [](const dse::SweepPoint& point) {
                          return point.result.feasible;
                        })
          : result->search.feasible;
  if (!feasible) {
    std::fprintf(stderr,
                 "warning: no configuration met every batch-size target "
                 "within the budget; best effort shown.\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ArgParser::parse(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().to_string().c_str());
    return 1;
  }
  if (args->has("help")) {
    usage();
    return 0;
  }
  if (args->has("list-strategies")) {
    for (const std::string& name : fcad::dse::registered_strategy_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (args->has("list-datapaths")) {
    for (const std::string& name : fcad::arch::registered_datapath_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  return run(*args);
}
