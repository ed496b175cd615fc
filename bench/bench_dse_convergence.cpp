// Sec. VII search-speed study: 10 independent DSE runs per case with N=20,
// P=200; the paper reports convergence after 9.2 iterations on average
// (min 6.8, max 13.6) and wall times of 57-102 s on a 2.6 GHz CPU.
//
//   bench_dse_convergence [--runs 10] [--population 200] [--iterations 20]
//                         [--threads N] [--cases 5] [--strategy name]
//                         [--csv out.csv] [--json out.json]
//
// --threads sizes the DSE thread pool (0 = all cores); results are
// bit-identical for any value, so thread-count sweeps of this bench measure
// pure wall-clock scaling.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/export.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

/// Unwraps a parsed flag or exits with a clean error message.
template <typename T>
T flag_value(fcad::StatusOr<T> value) {
  if (!value.is_ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(*value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fcad;

  auto args = ArgParser::parse(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().to_string().c_str());
    return 1;
  }
  const auto runs = static_cast<int>(flag_value(args->get_int("runs", 10)));
  const auto population =
      static_cast<int>(flag_value(args->get_int("population", 200)));
  const auto iterations =
      static_cast<int>(flag_value(args->get_int("iterations", 20)));
  const auto threads =
      static_cast<int>(flag_value(args->get_int("threads", 0)));
  const auto case_limit =
      static_cast<int>(flag_value(args->get_int("cases", 5)));
  const std::string csv_path = args->get("csv", "");
  const std::string json_path = args->get("json", "");
  const std::string strategy = args->get("strategy", "particle-swarm");
  obs::ObservationScope obs_scope(args->get("metrics-out", ""),
                                  args->get("trace-out", ""));

  std::printf(
      "=== DSE convergence: %d independent searches per case (threads=%d) "
      "===\n\n",
      runs, threads);
  nn::Graph decoder = nn::zoo::avatar_decoder();
  auto model = arch::reorganize(decoder);
  FCAD_CHECK_MSG(model.is_ok(), model.status().message());

  struct Case {
    const char* name;
    arch::Platform platform;
    const char* datapath;
  };
  std::vector<Case> cases = {
      {"Case 1: Z7045 (8-bit)", arch::platform_z7045(), "pipelined-int8"},
      {"Case 2: ZU17EG (8-bit)", arch::platform_zu17eg(), "pipelined-int8"},
      {"Case 3: ZU17EG (16-bit)", arch::platform_zu17eg(), "pipelined-int16"},
      {"Case 4: ZU9CG (8-bit)", arch::platform_zu9cg(), "pipelined-int8"},
      {"Case 5: ZU9CG (16-bit)", arch::platform_zu9cg(), "pipelined-int16"},
  };
  if (case_limit >= 1 && case_limit < static_cast<int>(cases.size())) {
    cases.resize(static_cast<std::size_t>(case_limit));
  }

  CsvWriter csv({"case", "runs", "population", "iterations", "threads",
                 "mean_iterations", "min_iterations", "max_iterations",
                 "mean_seconds", "mean_fitness", "fitness_spread",
                 "wall_seconds"});
  TablePrinter t({"Case", "mean iters", "min", "max", "mean seconds",
                  "fitness spread", "wall s"});
  double mean_of_means = 0;
  double total_wall = 0;
  struct JsonRow {
    std::string name;
    dse::ConvergenceStats stats;
    double wall = 0;
  };
  std::vector<JsonRow> json_rows;
  for (const Case& c : cases) {
    dse::SearchSpec spec;
    spec.kind = dse::SearchKind::kConvergence;
    spec.strategy = strategy;
    spec.customization.datapath = c.datapath;
    spec.customization.batch_sizes = {1, 2, 2};
    spec.search.population = population;
    spec.search.iterations = iterations;
    spec.search.seed = 77;
    spec.control.threads = threads;
    spec.convergence_runs = runs;
    const auto t0 = std::chrono::steady_clock::now();
    auto outcome = dse::SearchDriver(*model, c.platform).run(spec);
    FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
    const dse::ConvergenceStats& stats = outcome->convergence;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    total_wall += wall;
    t.add_row({c.name, format_fixed(stats.mean_iterations, 1),
               format_fixed(stats.min_iterations, 0),
               format_fixed(stats.max_iterations, 0),
               format_fixed(stats.mean_seconds, 1),
               format_fixed(stats.fitness_spread, 1),
               format_fixed(wall, 2)});
    csv.add_row({c.name, std::to_string(runs), std::to_string(population),
                 std::to_string(iterations), std::to_string(threads),
                 format_fixed(stats.mean_iterations, 3),
                 format_fixed(stats.min_iterations, 0),
                 format_fixed(stats.max_iterations, 0),
                 format_fixed(stats.mean_seconds, 4),
                 format_fixed(stats.mean_fitness, 3),
                 format_fixed(stats.fitness_spread, 3),
                 format_fixed(wall, 4)});
    json_rows.push_back({c.name, stats, wall});
    mean_of_means += stats.mean_iterations;
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("overall mean convergence iteration: %s (paper: 9.2, min 6.8, "
              "max 13.6); total wall %s s\n",
              format_fixed(mean_of_means / cases.size(), 1).c_str(),
              format_fixed(total_wall, 2).c_str());
  std::printf("shape to check: converges well before the 20-iteration cap; "
              "run-to-run fitness spread small relative to fitness; wall "
              "time shrinks with --threads while every fitness column stays "
              "put.\n");
  if (!csv_path.empty()) {
    if (!csv.write_file(csv_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  // The --json twin of the CSV: one object per case, same columns.
  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.key("schema_version").value(1);
    json.key("bench").value("dse_convergence");
    json.key("strategy").value(strategy);
    json.key("runs").value(runs);
    json.key("population").value(population);
    json.key("iterations").value(iterations);
    json.key("threads").value(threads);
    json.key("cases").begin_array();
    for (const JsonRow& row : json_rows) {
      json.begin_object();
      json.key("case").value(row.name);
      json.key("mean_iterations").value(row.stats.mean_iterations);
      json.key("min_iterations").value(row.stats.min_iterations);
      json.key("max_iterations").value(row.stats.max_iterations);
      json.key("mean_seconds").value(row.stats.mean_seconds);
      json.key("mean_fitness").value(row.stats.mean_fitness);
      json.key("fitness_spread").value(row.stats.fitness_spread);
      json.key("wall_seconds").value(row.wall);
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
