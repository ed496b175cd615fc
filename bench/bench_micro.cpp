// Micro-benchmarks (google-benchmark) of the framework's hot paths: the
// analytical evaluator, the in-branch greedy search, one full cross-branch
// candidate evaluation, and the cycle-level simulator. These are what bound
// the DSE's wall-clock (Sec. VII reports minutes-scale searches).
#include <benchmark/benchmark.h>

#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "dse/cross_branch.hpp"
#include "dse/in_branch.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace fcad;

/// The paper's default datapath: a pipelined int8 MAC array.
const arch::Datapath kPipelinedInt8{};

const arch::ReorganizedModel& decoder_model() {
  static const arch::ReorganizedModel model = [] {
    auto m = arch::reorganize(nn::zoo::avatar_decoder());
    FCAD_CHECK_MSG(m.is_ok(), m.status().message());
    return std::move(m).value();
  }();
  return model;
}

const arch::AcceleratorConfig& sample_config() {
  static const arch::AcceleratorConfig config = [] {
    const arch::ReorganizedModel& model = decoder_model();
    dse::Customization cust;
    cust.datapath = "pipelined-int8";
    cust.batch_sizes = {1, 2, 2};
    cust.priorities = {1, 1, 1};
    dse::CrossBranchOptions options;
    options.population = 30;
    options.iterations = 5;
    options.seed = 3;
    const auto result = dse::cross_branch_search(
        model, dse::ResourceBudget::from_platform(arch::platform_zu9cg()),
        cust, options);
    return result.config;
  }();
  return config;
}

void BM_AnalyticalEvaluate(benchmark::State& state) {
  const auto& model = decoder_model();
  const auto& config = sample_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arch::evaluate(model, config, arch::EvalMode::kAnalytical));
  }
}
BENCHMARK(BM_AnalyticalEvaluate);

void BM_InBranchOptimize(benchmark::State& state) {
  const auto& model = decoder_model();
  const dse::ResourceBudget slice{1200, 900, 6.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dse::in_branch_optimize(
        model, /*branch=*/1, slice, /*batch_target=*/2, kPipelinedInt8,
        /*freq_mhz=*/200));
  }
}
BENCHMARK(BM_InBranchOptimize);

void BM_CrossBranchIteration(benchmark::State& state) {
  const auto& model = decoder_model();
  dse::Customization cust;
  cust.datapath = "pipelined-int8";
  cust.batch_sizes = {1, 2, 2};
  cust.priorities = {1, 1, 1};
  dse::CrossBranchOptions options;
  options.population = static_cast<int>(state.range(0));
  options.iterations = 1;
  for (auto _ : state) {
    options.seed += 1;  // fresh swarm per run
    benchmark::DoNotOptimize(dse::cross_branch_search(
        model, dse::ResourceBudget::from_platform(arch::platform_zu9cg()),
        cust, options));
  }
}
BENCHMARK(BM_CrossBranchIteration)->Arg(10)->Arg(50)->Arg(200);

void BM_CycleSimulator(benchmark::State& state) {
  const auto& model = decoder_model();
  const auto& config = sample_config();
  const arch::Platform zu9cg = arch::platform_zu9cg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(model, config, zu9cg));
  }
}
BENCHMARK(BM_CycleSimulator);

}  // namespace

BENCHMARK_MAIN();
