// Ablations of F-CAD's design choices (our extension; DESIGN.md Sec. 3):
//   A. 3D vs 2D parallelism — drop the H-partition and watch the texture
//      branch starve (the DNNBuilder failure mode inside F-CAD's own DSE).
//   B. Variance penalty alpha — branch-FPS balance vs raw weighted sum.
//   C. Branch priority — biasing resources toward the texture branch.
//   D. Population size — search quality at P = 10/50/200.
#include <cstdio>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "baselines/soc865.hpp"
#include "dse/search_driver.hpp"
#include "dse/strategy.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace fcad;

int g_threads = 0;  ///< DSE pool size from --threads (0 = all cores)

/// One strategy-ablation row, kept for the --csv/--json twins of section E.
struct StrategyRow {
  std::string strategy;
  double fitness = 0;
  double min_fps = 0;
  bool feasible = false;
  std::int64_t evaluations = 0;
};
std::vector<StrategyRow> g_strategy_rows;

/// One joint datapath x batch-scale grid point (section H), kept for the
/// --json twin.
struct DatapathRow {
  std::string datapath;
  int batch_scale = 1;
  double min_fps = 0;
  int dsps = 0;
  int luts = 0;
  double accuracy_proxy = 0;
  bool pareto = false;
  bool feasible = false;
};
std::vector<DatapathRow> g_datapath_rows;

dse::SearchSpec base_spec() {
  dse::SearchSpec spec;
  spec.customization.datapath = "pipelined-int8";
  spec.customization.batch_sizes = {1, 2, 2};
  spec.search.population = 100;
  spec.search.iterations = 15;
  spec.search.seed = 99;
  spec.search.threads = g_threads;
  return spec;
}

std::string fps_cell(const arch::AcceleratorEval& eval) {
  std::string out = "{";
  for (std::size_t b = 0; b < eval.branches.size(); ++b) {
    if (b) out += ", ";
    out += format_fixed(eval.branches[b].fps, 1);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ArgParser::parse(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().to_string().c_str());
    return 1;
  }
  auto threads_flag = args->get_int("threads", 0);
  if (!threads_flag.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 threads_flag.status().to_string().c_str());
    return 1;
  }
  g_threads = static_cast<int>(*threads_flag);
  const std::string csv_path = args->get("csv", "");
  const std::string json_path = args->get("json", "");

  std::printf("=== Ablations on ZU9CG (8-bit) ===\n\n");
  nn::Graph decoder = nn::zoo::avatar_decoder();
  auto model = arch::reorganize(decoder);
  FCAD_CHECK_MSG(model.is_ok(), model.status().message());
  const arch::Platform zu9cg = arch::platform_zu9cg();
  const dse::SearchDriver driver(*model, zu9cg);
  auto run_search = [&](const dse::SearchSpec& spec) {
    auto outcome = driver.run(spec);
    FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
    return std::move(outcome->search);
  };

  // --- A: 3D parallelism value ------------------------------------------
  {
    std::printf("--- A. 3D parallelism (H-partition) ---\n");
    // 2D variant: clamp every stage's H-partition to 1 by capping max_h via
    // a copy of the model with out_h-restricted stages is invasive; instead
    // exploit that the bottleneck stages' InCh*OutCh cap what 2D can do:
    // report the theoretical 2D ceiling next to the 3D search result.
    const dse::SearchResult result = run_search(base_spec());

    // 2D ceiling of the texture branch: slowest stage at pf = InCh*OutCh.
    const arch::BranchPipeline& br2 = model->branches[1];
    double worst_fps = 1e300;
    const arch::FusedStage* worst = nullptr;
    for (int s : br2.stages) {
      const arch::FusedStage& st = model->stage(s);
      const double lanes = static_cast<double>(st.max_cpf()) * st.max_kpf();
      const double fps = zu9cg.freq_mhz * 1e6 * lanes /
                         static_cast<double>(st.macs);
      if (fps < worst_fps) {
        worst_fps = fps;
        worst = &st;
      }
    }
    std::printf("3D search, Br.2 FPS: %s (batch 2)\n",
                format_fixed(result.eval.branches[1].fps, 1).c_str());
    std::printf("2D ceiling, Br.2 FPS: %s per copy — capped by %s "
                "(InCh x OutCh = %d), independent of budget\n\n",
                format_fixed(worst_fps, 1).c_str(),
                worst ? worst->name.c_str() : "?",
                worst ? worst->max_cpf() * worst->max_kpf() : 0);
  }

  // --- B: variance penalty ------------------------------------------------
  {
    std::printf("--- B. variance penalty alpha ---\n");
    TablePrinter t({"alpha", "branch FPS", "min FPS", "fitness"});
    for (double alpha : {0.0, 0.05, 0.5, 5.0}) {
      dse::SearchSpec spec = base_spec();
      spec.search.objective = dse::Objective::batch_fitness(alpha);
      const dse::SearchResult result = run_search(spec);
      t.add_row({format_fixed(alpha, 2), fps_cell(result.eval),
                 format_fixed(result.eval.min_fps, 1),
                 format_fixed(result.fitness, 1)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // --- C: branch priority --------------------------------------------------
  {
    std::printf("--- C. branch priority (texture-heavy vs equal) ---\n");
    TablePrinter t({"priorities", "branch FPS", "Br.2 DSPs"});
    const std::vector<std::vector<double>> prios = {
        {1, 1, 1}, {1, 4, 1}, {4, 1, 1}};
    for (const auto& p : prios) {
      dse::SearchSpec spec = base_spec();
      spec.customization.priorities = p;
      const dse::SearchResult result = run_search(spec);
      std::string label = "{";
      for (std::size_t j = 0; j < p.size(); ++j) {
        if (j) label += ',';
        label += format_fixed(p[j], 0);
      }
      label += '}';
      t.add_row({label, fps_cell(result.eval),
                 std::to_string(result.eval.branches[1].dsps)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // --- D: population size ---------------------------------------------------
  {
    std::printf("--- D. population size ---\n");
    TablePrinter t({"P", "fitness", "min FPS", "seconds"});
    for (int population : {10, 50, 200}) {
      dse::SearchSpec spec = base_spec();
      spec.search.population = population;
      const dse::SearchResult result = run_search(spec);
      t.add_row({std::to_string(population), format_fixed(result.fitness, 1),
                 format_fixed(result.eval.min_fps, 1),
                 format_fixed(result.seconds, 2)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // --- E: search strategy ---------------------------------------------------
  // Every registered strategy (built-ins plus any custom registrations)
  // through the one SearchDriver entry point, same evaluation budget.
  {
    std::printf("--- E. search strategy (equal evaluation budget) ---\n");
    TablePrinter t({"strategy", "fitness", "branch FPS", "feasible",
                    "evaluations"});
    for (const std::string& strategy : dse::registered_strategy_names()) {
      dse::SearchSpec spec = base_spec();
      spec.strategy = strategy;
      const dse::SearchResult result = run_search(spec);
      t.add_row({strategy, format_fixed(result.fitness, 1),
                 fps_cell(result.eval), result.feasible ? "yes" : "no",
                 std::to_string(result.trace.evaluations)});
      g_strategy_rows.push_back(
          {strategy, result.fitness, result.eval.min_fps, result.feasible,
           result.trace.evaluations});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // --- F: SoC cache sensitivity (the Table-II mechanism) --------------------
  {
    std::printf("--- F. 865-class SoC cache sensitivity ---\n");
    TablePrinter t({"cache (MiB)", "FPS", "efficiency", "memory-bound layers"});
    for (double cache_mib : {1.0, 2.0, 4.0, 8.0, 32.0}) {
      const auto r = baselines::run_soc865(*model, cache_mib);
      int bound = 0;
      for (const auto& lt : r.layers) bound += lt.memory_bound;
      t.add_row({format_fixed(cache_mib, 0), format_fixed(r.fps, 1),
                 format_percent(r.efficiency, 1), std::to_string(bound)});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("shape to check: the Sec.-III claim — the SoC's FPS is gated\n"
                "by cache capacity, not MACs; a server-class cache would make\n"
                "it compute-bound.\n\n");
  }

  // --- G: maximum feasible batch (Sec. I customization) ---------------------
  {
    std::printf("--- G. maximum feasible batch per branch (ZU9CG) ---\n");
    TablePrinter t({"branch", "others pinned at", "max batch"});
    for (int branch = 0; branch < model->num_branches(); ++branch) {
      dse::SearchSpec spec = base_spec();
      spec.kind = dse::SearchKind::kMaxBatch;
      spec.search.population = 60;
      spec.search.iterations = 8;
      spec.batch_branch = branch;
      spec.batch_probe_limit = 8;
      auto outcome = driver.run(spec);
      FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
      t.add_row({model->branches[static_cast<std::size_t>(branch)].role,
                 "{1,2,2}", std::to_string(outcome->max_batch)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // --- H: joint precision x MAC microarchitecture x batch ------------------
  // Every registered arch::Datapath crossed with batch scaling, one kSweep
  // run — the datapath axis as a first-class ablation: how much throughput
  // each precision/microarchitecture point buys, and at what accuracy proxy.
  {
    std::printf("--- H. datapath (precision x MAC style) x batch scale ---\n");
    dse::SearchSpec spec = base_spec();
    spec.kind = dse::SearchKind::kSweep;
    spec.search.population = 60;
    spec.search.iterations = 8;
    spec.sweep.datapaths = arch::registered_datapath_names();
    spec.sweep.frequencies_mhz = {zu9cg.freq_mhz};
    spec.sweep.batch_scales = {1, 2};
    auto outcome = driver.run(spec);
    FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
    TablePrinter t({"datapath", "scale", "min FPS", "DSPs", "LUTs",
                    "acc proxy", "pareto", "feasible"});
    for (const dse::SweepPoint& point : outcome->sweep) {
      const arch::AcceleratorEval& eval = point.result.eval;
      t.add_row({point.datapath, std::to_string(point.batch_scale),
                 format_fixed(eval.min_fps, 1), std::to_string(eval.dsps),
                 std::to_string(eval.luts),
                 format_fixed(eval.accuracy_proxy, 3),
                 point.pareto_optimal ? "*" : "",
                 point.result.feasible ? "yes" : "no"});
      g_datapath_rows.push_back({point.datapath, point.batch_scale,
                                 eval.min_fps, eval.dsps, eval.luts,
                                 eval.accuracy_proxy, point.pareto_optimal,
                                 point.result.feasible});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // Machine-readable twins of section E (the strategy ablation), one row
  // per registered strategy — the same schema family the CLIs ship
  // (schema_version + typed fields).
  if (!csv_path.empty()) {
    CsvWriter csv({"strategy", "fitness", "min_fps", "feasible",
                   "evaluations"});
    for (const StrategyRow& row : g_strategy_rows) {
      csv.add_row({row.strategy, format_fixed(row.fitness, 3),
                   format_fixed(row.min_fps, 3),
                   std::to_string(row.feasible ? 1 : 0),
                   std::to_string(row.evaluations)});
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
    json.key("bench").value("ablation");
    json.key("strategies").begin_array();
    for (const StrategyRow& row : g_strategy_rows) {
      json.begin_object();
      json.key("strategy").value(row.strategy);
      json.key("fitness").value(row.fitness);
      json.key("min_fps").value(row.min_fps);
      json.key("feasible").value(row.feasible);
      json.key("evaluations").value(row.evaluations);
      json.end_object();
    }
    json.end_array();
    json.key("datapaths").begin_array();
    for (const DatapathRow& row : g_datapath_rows) {
      json.begin_object();
      json.key("datapath").value(row.datapath);
      json.key("batch_scale").value(row.batch_scale);
      json.key("min_fps").value(row.min_fps);
      json.key("dsps").value(row.dsps);
      json.key("luts").value(row.luts);
      json.key("accuracy_proxy").value(row.accuracy_proxy);
      json.key("pareto").value(row.pareto);
      json.key("feasible").value(row.feasible);
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
  return 0;
}
