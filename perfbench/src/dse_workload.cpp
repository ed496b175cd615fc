// dse_table1: the paper's search. Each job is one Table-I case — Z7045
// int8, ZU17EG int8/int16, ZU9CG int8/int16 with batch targets {1,2,2} —
// searched by SearchDriver::run(kOptimize) under the particle swarm
// (P = 200, N = 20), then cycle-simulated with sim::simulate. Jobs cycle
// through the five cases with a fresh search seed each, derived from --seed.
//
// The traced pass re-runs the same searches under a strategy registered
// from here that delegates to "particle-swarm" and times begin/propose/
// accept; its winners must equal the untraced ones.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "arch/config_io.hpp"
#include "arch/platform.hpp"
#include "common.hpp"
#include "dse/search_driver.hpp"
#include "dse/strategy.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace fcad;

/// Pool threads of every search: the per-round fan-out is exercised while
/// a shared 4-core host keeps headroom.
constexpr int kThreads = 2;
constexpr int kPopulation = 200;
constexpr int kIterations = 20;
constexpr int kSetupRepeats = 1001;
/// Enough searches that at least ten lie beyond the p90.
constexpr int kMinSearches = 100;
/// The first kSimSearches searches (five seeds per case) make the simulated
/// (exact-repeat) metrics, so they depend on --seed only.
constexpr int kSimSearches = 25;
constexpr const char* kTracedStrategy = "bench-traced-particle-swarm";

struct Table1Case {
  const char* name;
  arch::Platform platform;
  const char* datapath;
};

std::vector<Table1Case> table1_cases() {
  return {{"Z7045 int8", arch::platform_z7045(), "pipelined-int8"},
          {"ZU17EG int8", arch::platform_zu17eg(), "pipelined-int8"},
          {"ZU17EG int16", arch::platform_zu17eg(), "pipelined-int16"},
          {"ZU9CG int8", arch::platform_zu9cg(), "pipelined-int8"},
          {"ZU9CG int16", arch::platform_zu9cg(), "pipelined-int16"}};
}

dse::SearchSpec search_spec(const Table1Case& c, std::uint64_t seed,
                            const char* strategy) {
  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kOptimize;
  spec.strategy = strategy;
  spec.customization.datapath = c.datapath;
  spec.customization.batch_sizes = {1, 2, 2};
  spec.search.population = kPopulation;
  spec.search.iterations = kIterations;
  spec.search.seed = seed;
  spec.control.threads = kThreads;
  return spec;
}

/// Where the traced strategy records. SearchDriver runs a kOptimize
/// strategy on the calling thread, one search at a time.
struct StrategyTrace {
  SpanLog* log = nullptr;
  int parent = SpanLog::kNoParent;
  std::int64_t job = 0;
  std::int64_t candidates = 0;
};
StrategyTrace g_trace;

/// Delegates to the particle swarm and records begin/propose/accept spans,
/// plus the candidate evaluation between propose's exit and accept's entry.
class TracedStrategy final : public dse::Strategy {
 public:
  explicit TracedStrategy(std::unique_ptr<dse::Strategy> inner)
      : inner_(std::move(inner)) {}

  void begin(const dse::StrategyContext& ctx) override {
    const int span = g_trace.log->open("dse.begin", g_trace.parent,
                                       g_trace.job);
    inner_->begin(ctx);
    g_trace.log->close(span);
  }

  int max_rounds(const dse::StrategyContext& ctx) const override {
    return inner_->max_rounds(ctx);
  }

  std::vector<dse::ResourceDistribution> propose(
      const dse::StrategyContext& ctx, int round) override {
    round_span_ = g_trace.log->open("dse.round", g_trace.parent, g_trace.job);
    const int span = g_trace.log->open("dse.propose", round_span_,
                                       g_trace.job);
    std::vector<dse::ResourceDistribution> batch =
        inner_->propose(ctx, round);
    g_trace.log->close(span);
    g_trace.candidates += static_cast<std::int64_t>(batch.size());
    if (batch.empty()) g_trace.log->close(round_span_);
    proposed_at_ns_ = now_ns();
    return batch;
  }

  void accept(const dse::StrategyContext& ctx, int round,
              const std::vector<dse::ResourceDistribution>& proposed,
              const std::vector<dse::DistributionEval>& evals,
              dse::SearchResult& result) override {
    const std::int64_t t = now_ns();
    g_trace.log->fold("dse.eval", round_span_, g_trace.job, proposed_at_ns_,
                      t, t - proposed_at_ns_, 1);
    const int span = g_trace.log->open("dse.accept", round_span_,
                                       g_trace.job);
    inner_->accept(ctx, round, proposed, evals, result);
    g_trace.log->close(span);
    g_trace.log->close(round_span_);
  }

  void finish(const dse::StrategyContext& ctx,
              dse::SearchResult& result) override {
    inner_->finish(ctx, result);
  }

 private:
  std::unique_ptr<dse::Strategy> inner_;
  int round_span_ = SpanLog::kNoParent;
  std::int64_t proposed_at_ns_ = 0;
};

Status register_traced_strategy() {
  auto inner = dse::strategy_factory(dse::kDefaultStrategy);
  if (!inner.is_ok()) return inner.status();
  return dse::register_strategy(
      kTracedStrategy, [factory = *inner] {
        return std::make_unique<TracedStrategy>(factory());
      });
}

/// One search + simulation and what the checks and sim metrics need.
struct SearchJob {
  bool ok = false;
  std::int64_t search_ns = 0;
  std::int64_t simulate_ns = 0;
  std::string config_text;
  double fitness = 0;
  std::int64_t evaluations = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  double est_error_pct = 0;
  double stage_err_max_pct = 0;
  double stall_frac = 0;
};

SearchJob run_search(const arch::ReorganizedModel& model,
                     const std::vector<Table1Case>& cases, const Args& args,
                     int job, bool traced, RunResult& result) {
  SearchJob out;
  const Table1Case& c = cases[static_cast<std::size_t>(job) % cases.size()];
  const std::string where = std::string(traced ? "traced " : "") +
                            "search " + std::to_string(job) + " (" + c.name +
                            "): ";
  ++result.attempted;
  const dse::SearchSpec spec = search_spec(
      c, mix_seed(args.seed, static_cast<std::uint64_t>(job)),
      traced ? kTracedStrategy : dse::kDefaultStrategy);
  const dse::SearchDriver driver(model, c.platform);
  const std::int64_t t0 = now_ns();
  auto outcome = driver.run(spec);
  const std::int64_t t1 = now_ns();
  if (!outcome.is_ok()) {
    result.fail(where + outcome.status().to_string());
    return out;
  }
  const dse::SearchResult& search = outcome->search;
  const sim::SimResult simulated =
      sim::simulate(model, search.config, c.platform);
  const std::int64_t t2 = now_ns();
  out.search_ns = t1 - t0;
  out.simulate_ns = t2 - t1;
  out.config_text = arch::config_to_text(model, search.config);
  out.fitness = search.fitness;
  out.evaluations = search.trace.evaluations;
  out.cache_hits = search.trace.cache_hits;
  out.cache_misses = search.trace.cache_misses;

  // Checks: a feasible in-budget winner whose config text round-trips, and
  // a simulation that runs.
  const arch::Platform& p = c.platform;
  if (outcome->cancelled || !search.feasible ||
      !search.eval.within(p.dsps, p.brams18k, p.bw_gbps, p.luts) ||
      !std::isfinite(search.fitness)) {
    result.fail(where + "winner infeasible or over budget");
  }
  auto reparsed = arch::config_from_text(model, out.config_text);
  if (!reparsed.is_ok() ||
      arch::config_to_text(model, *reparsed) != out.config_text) {
    result.fail(where + "winner config does not round-trip");
  }
  if (!(simulated.min_fps > 0) || !std::isfinite(simulated.min_fps)) {
    result.fail(where + "simulated min FPS not positive");
  }

  // Analytical (Eq. 4/5) against cycle-simulated, per winner and per fused
  // stage: StageEval.cycles against StageSimStats busy + stall.
  const arch::AcceleratorEval analytical =
      arch::evaluate(model, search.config, arch::EvalMode::kAnalytical);
  out.est_error_pct = std::fabs(analytical.min_fps - simulated.min_fps) /
                      simulated.min_fps * 100;
  double busy = 0;
  double stall = 0;
  for (const sim::StageSimStats& s : simulated.stages) {
    busy += static_cast<double>(s.busy_cycles);
    stall += static_cast<double>(s.stall_cycles);
    const double sim_cycles =
        static_cast<double>(s.busy_cycles + s.stall_cycles);
    for (const arch::BranchEval& b : analytical.branches) {
      for (const arch::StageEval& st : b.stages) {
        if (st.stage != s.stage || sim_cycles <= 0) continue;
        out.stage_err_max_pct =
            std::max(out.stage_err_max_pct,
                     std::fabs(st.cycles - sim_cycles) / sim_cycles * 100);
      }
    }
  }
  out.stall_frac = busy + stall > 0 ? stall / (busy + stall) : 0;
  out.ok = true;
  return out;
}

}  // namespace

RunResult run_dse_table1(const Args& args) {
  RunResult result;
  result.context["threads"] = std::to_string(kThreads);
  std::vector<double> setup_s;
  std::vector<double> profile_ms;
  std::vector<double> reorganize_ms;
  const auto timed_setup = [&] {
    const std::int64_t t0 = now_ns();
    StatusOr<DecoderModel> decoder = build_decoder_model();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (decoder.is_ok()) {
      profile_ms.push_back(decoder->profile_ms);
      reorganize_ms.push_back(decoder->reorganize_ms);
    } else {
      ++result.attempted;
      result.fail("set-up: " + decoder.status().to_string());
    }
    return decoder;
  };
  // The first set-up's model serves every search; the other timed set-ups
  // run between searches.
  const StatusOr<DecoderModel> decoder = timed_setup();
  if (!decoder.is_ok()) return result;
  const arch::ReorganizedModel& model = decoder->model;
  const std::vector<Table1Case> cases = table1_cases();

  std::vector<SearchJob> jobs;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int count = run_for(
      budget, args.trace ? kSimSearches : kMinSearches,
      [&](int job) {
        jobs.push_back(run_search(model, cases, args, job, false, result));
      },
      kSetupRepeats - 1, timed_setup);
  result.context["jobs"] = std::to_string(count);

  if (!args.trace) {
    std::vector<double> walls_ms;
    for (const SearchJob& j : jobs) {
      walls_ms.push_back(static_cast<double>(j.search_ns + j.simulate_ns) *
                         1e-6);
    }
    add_job_metrics(walls_ms, median(setup_s), kPopulation * kIterations,
                    result);
    return result;
  }

  if (Status s = register_traced_strategy(); !s.is_ok()) {
    ++result.attempted;
    result.fail("register traced strategy: " + s.to_string());
    return result;
  }
  SpanLog log;
  g_trace.log = &log;
  std::int64_t untraced_ns = 0;
  std::int64_t traced_ns = 0;
  for (int job = 0; job < count; ++job) {
    const SearchJob& ref = jobs[static_cast<std::size_t>(job)];
    const int job_span = log.open("dse.job", SpanLog::kNoParent, job);
    g_trace.job = job;
    // The search span is the strategy's parent; sim.simulate sits beside it
    // under the job span.
    const int search_span = log.open("dse.search", job_span, job);
    g_trace.parent = search_span;
    const SearchJob traced = run_search(model, cases, args, job, true, result);
    traced_ns += traced.search_ns + traced.simulate_ns;
    untraced_ns += ref.search_ns + ref.simulate_ns;
    log.close(search_span);
    log.fold("sim.simulate", job_span, job, 0, 0, traced.simulate_ns, 1);
    log.close(job_span);
    if (traced.ok && ref.ok &&
        (traced.config_text != ref.config_text ||
         traced.fitness != ref.fitness)) {
      result.fail("traced search " + std::to_string(job) +
                  ": winner differs from the untraced search");
    }
  }
  const double candidates = static_cast<double>(g_trace.candidates);
  g_trace = StrategyTrace{};
  const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  if (!log.write_json(spans_path)) result.fail("cannot write " + spans_path);
  result.context["spans"] = spans_path;

  const double searches = count;
  const double rounds = static_cast<double>(log.calls("dse.round"));
  auto& m = result.metrics;
  m["dse.rounds_per_search"] = rounds / searches;
  m["dse.propose_us_per_round"] =
      static_cast<double>(log.total_ns("dse.propose")) * 1e-3 / rounds;
  m["dse.accept_us_per_round"] =
      static_cast<double>(log.total_ns("dse.accept")) * 1e-3 / rounds;
  m["dse.eval_us_per_round"] =
      static_cast<double>(log.total_ns("dse.eval")) * 1e-3 / rounds;
  m["dse.eval_ns_per_candidate"] =
      candidates > 0 ? static_cast<double>(log.total_ns("dse.eval")) /
                           candidates
                     : 0;
  m["dse.outside_rounds_us_per_search"] =
      static_cast<double>(log.total_ns("dse.search") -
                          log.total_ns("dse.round")) *
      1e-3 / searches;
  m["sim.simulate_us"] =
      static_cast<double>(log.total_ns("sim.simulate")) * 1e-3 / searches;

  double evaluations = 0;
  double hits = 0;
  double lookups = 0;
  double fitness = 0;
  double est_error = 0;
  double stage_err = 0;
  double stall = 0;
  for (int job = 0; job < kSimSearches; ++job) {
    const SearchJob& j = jobs[static_cast<std::size_t>(job)];
    evaluations += static_cast<double>(j.evaluations) / kSimSearches;
    hits += static_cast<double>(j.cache_hits);
    lookups += static_cast<double>(j.cache_hits + j.cache_misses);
    fitness += j.fitness / kSimSearches;
    est_error += j.est_error_pct / kSimSearches;
    stage_err += j.stage_err_max_pct / kSimSearches;
    stall += j.stall_frac / kSimSearches;
  }
  m["dse.evaluations_per_search"] = evaluations;
  m["dse.fitness_cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  m["dse.design_fitness_mean"] = fitness;
  m["dse.est_error_pct"] = est_error;
  m["sim.stage_err_max_pct"] = stage_err;
  m["sim.stall_frac"] = stall;
  m["analysis.profile_ms"] = median(profile_ms);
  m["arch.reorganize_ms"] = median(reorganize_ms);
  m["obs.trace_overhead_pct"] =
      untraced_ns > 0 ? (static_cast<double>(traced_ns) /
                             static_cast<double>(untraced_ns) -
                         1) *
                            100
                      : 0;
  return result;
}

}  // namespace perfbench
