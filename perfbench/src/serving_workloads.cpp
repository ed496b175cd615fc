// The two serving replays. Both serve one fixed accelerator — a ZU9CG
// pipelined-int8 search with batch targets > 1, seeded independently of
// --seed — and vary only the traffic with --seed.
//
//   replay_batched_sla   exact latency accounting at an SLA-meeting
//                        batching operating point: generate_workload +
//                        simulate_fleet per job (closed loop, one caller).
//   replay_stream_drift  simulate_fleet_stream in sketch mode under
//                        diurnal drift, recurring flash crowds and an
//                        autoscaler, writing a binary checkpoint per job.
//
// The traced pass drives serving::FleetEngine from here through the loop
// simulate_fleet's shards run (ingest -> elastic tick -> dispatch_ready ->
// next_event_us -> advance_to), timing every call, and its stats are checked
// against the untraced library call on the same inputs — that check is what
// keeps this copy of the loop honest.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "common.hpp"
#include "dse/search_driver.hpp"
#include "serving/engine.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "serving/stream.hpp"
#include "serving/workload.hpp"

namespace perfbench {
namespace {

using namespace fcad;
using serving::Request;
using serving::ServingStats;
using serving::ShardStats;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Host threads of every replay: ns/request is then a per-core cost.
constexpr int kThreads = 1;
constexpr int kShards = 8;
/// Set-up runs this often per run; setup_s is the median.
constexpr int kSetupRepeats = 15;
/// The first kSimJobs jobs of a run make the simulated (exact-repeat)
/// metrics, so they depend on --seed only, never on host speed.
constexpr int kSimJobs = 8;

// The served accelerator: Table IV's ZU9CG int8 case with every branch
// batched. Its per-branch throughput is budget-bound (~127/95/95 FPS over
// all pipeline copies), so a pass costs the same whether or not the batch
// fills — the trade-off the 4 ms batch timeout manages.
const std::vector<int> kBatchTargets = {1, 2, 2};
constexpr std::uint64_t kHardwareSeed = 42;

// replay_batched_sla: a lone Br.2/3 request already spends 4 ms waiting for
// its batch and ~21 ms in its pass, so a shard's one 30 Hz user needs five
// instances to hold the p99 under 33.3 ms (three or four miss it).
constexpr int kBatchedInstances = 40;
constexpr int kBatchedUsers = 8;
constexpr std::int64_t kBatchedRequests = 120000;

// replay_stream_drift: one instance per shard at first; the autoscaler may
// grow each shard to six.
constexpr int kStreamInstances = 8;
constexpr int kStreamMaxInstances = 48;
constexpr int kStreamUsers = 8;
constexpr std::int64_t kStreamRequests = 20000;

struct ServingSetup {
  serving::ServiceModel service;
  double profile_ms = 0;
  double reorganize_ms = 0;
};

/// Model build plus the hardware search that yields the service model.
StatusOr<ServingSetup> build_setup() {
  auto decoder = build_decoder_model();
  if (!decoder.is_ok()) return decoder.status();
  dse::SearchSpec spec;
  spec.customization.datapath = "pipelined-int8";
  spec.customization.batch_sizes = kBatchTargets;
  spec.search.seed = kHardwareSeed;
  spec.control.threads = kThreads;
  auto outcome =
      dse::SearchDriver(decoder->model, arch::platform_zu9cg()).run(spec);
  if (!outcome.is_ok()) return outcome.status();
  if (!outcome->search.feasible) {
    return Status::infeasible("set-up search missed the batch targets");
  }
  ServingSetup setup;
  setup.service = serving::service_model_from_eval(outcome->search.config,
                                                   outcome->search.eval);
  setup.profile_ms = decoder->profile_ms;
  setup.reorganize_ms = decoder->reorganize_ms;
  return setup;
}

serving::ServeSpec batched_spec() {
  serving::ServeSpec spec;
  spec.workload.users = kBatchedUsers;
  spec.workload.branches = static_cast<int>(kBatchTargets.size());
  spec.workload.target_requests = kBatchedRequests;
  spec.fleet.instances = kBatchedInstances;
  spec.fleet.shards = kShards;
  spec.fleet.threads = kThreads;
  spec.fleet.policy = serving::DispatchPolicy::kBranchAffinity;
  spec.fleet.switch_penalty_us = 500;
  spec.fleet.batch_timeout_us = 4000;
  spec.fleet.latency_mode = serving::LatencyMode::kExact;
  return spec;
}

serving::ServeSpec stream_spec() {
  serving::ServeSpec spec;
  spec.workload.users = kStreamUsers;
  spec.workload.branches = static_cast<int>(kBatchTargets.size());
  spec.workload.target_requests = kStreamRequests;
  spec.fleet.instances = kStreamInstances;
  spec.fleet.shards = kShards;
  spec.fleet.threads = kThreads;
  spec.fleet.policy = serving::DispatchPolicy::kLeastLoaded;
  spec.fleet.switch_penalty_us = 500;
  spec.fleet.batch_timeout_us = 4000;
  spec.fleet.latency_mode = serving::LatencyMode::kSketch;
  // The offered rate averages about users x 30 Hz x 3 branches, so the
  // replay spans `span_s` of virtual time: four diurnal periods, a flash
  // crowd in each, and autoscaler moves throughout.
  const double span_s = static_cast<double>(kStreamRequests) /
                        (kStreamUsers * 30.0 * 3.0);
  spec.scenario.diurnal.period_s = span_s / 4;
  spec.scenario.diurnal.amplitude = 0.6;
  for (int k = 0; k < 4; ++k) {
    const double start = span_s * (0.1 + 0.25 * k);
    spec.scenario.flash.push_back({start, start + span_s / 40, 1.5, 4});
  }
  spec.elastic.autoscale.max_instances = kStreamMaxInstances;
  spec.elastic.autoscale.min_instances = kStreamInstances;
  spec.elastic.autoscale.high_watermark = 0.6;
  spec.elastic.autoscale.low_watermark = 0.3;
  return spec;
}

std::string stats_text(const ServingStats& stats) {
  std::ostringstream os;
  serving::serving_stats_to_text(os, stats);
  return os.str();
}

bool summaries_agree(const serving::LatencySummary& x,
                     const serving::LatencySummary& y) {
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= serving::QuantileSketch::kDefaultAlpha *
                                   std::max(std::fabs(a), std::fabs(b));
  };
  return x.count == y.count && close(x.p50, y.p50) && close(x.p95, y.p95) &&
         close(x.p99, y.p99) && close(x.max, y.max) && close(x.mean, y.mean);
}

/// Sketch-mode agreement: every count equal, every latency summary within
/// the sketch's relative error. Returns "" when the two agree.
std::string sketch_stats_mismatch(const ServingStats& a,
                                  const ServingStats& b) {
  if (a.offered != b.offered || a.completed != b.completed ||
      a.batches != b.batches || a.sla_violations != b.sla_violations ||
      a.max_queue_depth != b.max_queue_depth ||
      a.scale_up_events != b.scale_up_events ||
      a.scale_down_events != b.scale_down_events ||
      a.branch_completed != b.branch_completed ||
      a.instances.size() != b.instances.size()) {
    return "counts differ";
  }
  for (std::size_t k = 0; k < a.instances.size(); ++k) {
    if (a.instances[k].requests != b.instances[k].requests ||
        a.instances[k].batches != b.instances[k].batches) {
      return "instance " + std::to_string(k) + " counts differ";
    }
  }
  if (!summaries_agree(a.latency, b.latency) ||
      !summaries_agree(a.queue_wait, b.queue_wait)) {
    return "latency summaries differ beyond the sketch error";
  }
  return "";
}

// ------------------------------------------------------------ traced loop --

/// Host time per engine call, summed over one shard's event loop.
struct LoopTimes {
  std::int64_t gen_ns = 0;
  std::int64_t draws = 0;
  std::int64_t enqueue_ns = 0;
  std::int64_t enqueues = 0;
  std::int64_t tick_ns = 0;
  std::int64_t ticks = 0;
  std::int64_t dispatch_ns = 0;
  std::int64_t next_event_ns = 0;
  std::int64_t advance_ns = 0;
  std::int64_t iterations = 0;
  std::int64_t take_stats_ns = 0;
  std::vector<double> scale_event_us;  ///< virtual times of autoscaler moves
};

/// One shard's materialized arrivals (simulate_fleet's partition slice).
class VectorArrivals {
 public:
  explicit VectorArrivals(const std::vector<Request>& requests)
      : requests_(requests) {}
  const Request* peek(LoopTimes&) {
    return next_ < requests_.size() ? &requests_[next_] : nullptr;
  }
  void pop() { ++next_; }

 private:
  const std::vector<Request>& requests_;
  std::size_t next_ = 0;
};

/// One shard's slice of the full generated stream, filtered the way
/// simulate_fleet_stream filters it; times and counts the stream draws.
class StreamArrivals {
 public:
  StreamArrivals(serving::RequestStream& stream, int shard, int shards)
      : stream_(stream), shard_(shard), shards_(shards) {}
  const Request* peek(LoopTimes& times) {
    if (!buffered_ && !exhausted_) {
      const std::int64_t t0 = now_ns();
      while (true) {
        std::optional<Request> r = stream_.next();
        ++times.draws;
        if (!r) {
          exhausted_ = true;
          break;
        }
        if (r->user % shards_ == shard_) {
          buffered_ = *r;
          break;
        }
      }
      times.gen_ns += now_ns() - t0;
    }
    return buffered_ ? &*buffered_ : nullptr;
  }
  void pop() { buffered_.reset(); }

 private:
  serving::RequestStream& stream_;
  int shard_;
  int shards_;
  std::optional<Request> buffered_;
  bool exhausted_ = false;
};

template <typename Arrivals>
StatusOr<ShardStats> run_traced_shard(const serving::ServiceModel& service,
                                      const serving::ServeSpec& spec,
                                      const serving::ShardElasticPlan& plan,
                                      int shard, std::int64_t expected,
                                      Arrivals& arrivals, LoopTimes& t) {
  const serving::FleetOptions& options = spec.fleet;
  const Request* first = arrivals.peek(t);
  const std::unique_ptr<serving::Clock> clock = serving::make_clock(
      options.clock, first != nullptr ? first->arrival_us : 0);
  serving::FleetEngineConfig config;
  config.policy = options.policy;
  config.batch_timeout_us = options.batch_timeout_us;
  config.switch_penalty_us = options.switch_penalty_us;
  config.sla_bound_us = options.sla_bound_us;
  config.progress_tail_pct = options.progress_tail_pct;
  config.keep_records = options.keep_records;
  config.shard_index = shard;
  config.first_instance = plan.first_instance;
  config.instances = plan.provisioned;
  config.initial_active = plan.initial_active;
  config.max_cells =
      spec.elastic.reshard_enabled() ? spec.elastic.reshard.max_cells : 1;
  config.expected_requests = expected;
  config.latency_mode = options.latency_mode;
  // Sketch seeds only bind sketches to a checkpoint fingerprint; quantiles
  // do not depend on them.
  config.sketch_seed = 0;
  serving::FleetEngine engine(service, config, clock.get());
  std::optional<serving::ElasticController> controller;
  if (spec.elastic.enabled() || !plan.faults.empty()) {
    controller.emplace(spec.elastic, plan, options.sla_bound_us);
    engine.set_controller(&*controller);
  }

  // Timestamps are chained (each phase ends where the next starts) to keep
  // clock reads per iteration low; the ingest phase covers the enqueue calls
  // and arrival bookkeeping, minus the stream draws timed inside peek().
  std::int64_t mark = now_ns();
  while (true) {
    ++t.iterations;
    const std::int64_t gen_before = t.gen_ns;
    while (const Request* r = arrivals.peek(t)) {
      if (r->arrival_us > engine.now_us()) break;
      engine.enqueue(*r);
      ++t.enqueues;
      arrivals.pop();
    }
    const Request* upcoming = arrivals.peek(t);
    if (upcoming == nullptr) engine.close();
    std::int64_t phase = now_ns();
    t.enqueue_ns += phase - mark - (t.gen_ns - gen_before);
    if (controller) {
      const ShardStats& s = engine.stats();
      const std::int64_t moves = s.scale_up_events + s.scale_down_events;
      controller->tick(engine, engine.now_us());
      if (s.scale_up_events + s.scale_down_events != moves) {
        t.scale_event_us.push_back(engine.now_us());
      }
      const std::int64_t ticked = now_ns();
      t.tick_ns += ticked - phase;
      ++t.ticks;
      phase = ticked;
    }
    engine.dispatch_ready();
    const std::int64_t dispatched = now_ns();
    double t_us = engine.next_event_us();
    const std::int64_t queried = now_ns();
    t.dispatch_ns += dispatched - phase;
    t.next_event_ns += queried - dispatched;
    if (upcoming != nullptr) t_us = std::min(t_us, upcoming->arrival_us);
    if (controller) {
      t_us = std::min(t_us, controller->next_event_us(engine.now_us()));
    }
    if ((upcoming == nullptr && engine.drained()) || t_us == kInf) break;
    if (!(t_us > engine.now_us())) {
      return Status::internal("traced loop: virtual time did not advance");
    }
    engine.advance_to(t_us);
    mark = now_ns();
    t.advance_ns += mark - queried;
  }
  const std::int64_t t5 = now_ns();
  ShardStats out = engine.take_stats();
  t.take_stats_ns = now_ns() - t5;
  if (out.completed != out.offered) {
    return Status::internal("traced loop lost requests in flight");
  }
  return out;
}

/// What the traced pass counted for one job, beyond its stats.
struct TracedJob {
  std::int64_t requests = 0;
  std::int64_t draws = 0;
  std::int64_t loop_iterations = 0;
  int scale_deciles = 0;  ///< tenths of the virtual span holding a scale move
  std::vector<double> scale_event_us;
};

/// Runs one shard under a span, with one folded child span per engine call
/// kind.
template <typename Arrivals>
StatusOr<ShardStats> traced_shard(const serving::ServiceModel& service,
                                  const serving::ServeSpec& spec,
                                  const serving::ShardElasticPlan& plan,
                                  int shard, std::int64_t expected,
                                  Arrivals& arrivals, SpanLog& log,
                                  int parent, std::int64_t job,
                                  TracedJob& out) {
  LoopTimes t;
  const int span = log.open("serving.engine.shard", parent, job);
  const std::int64_t start = now_ns();
  auto stats =
      run_traced_shard(service, spec, plan, shard, expected, arrivals, t);
  const std::int64_t end = now_ns();
  log.close(span);
  const auto fold = [&](const char* name, std::int64_t ns, std::int64_t n) {
    log.fold(name, span, job, start, end, ns, n);
  };
  fold("serving.workload.next", t.gen_ns, t.draws);
  fold("serving.engine.enqueue", t.enqueue_ns, t.enqueues);
  fold("serving.elastic.tick", t.tick_ns, t.ticks);
  fold("serving.engine.dispatch_ready", t.dispatch_ns, t.iterations);
  fold("serving.engine.next_event", t.next_event_ns, t.iterations);
  fold("serving.engine.advance_to", t.advance_ns, t.iterations);
  fold("serving.engine.take_stats", t.take_stats_ns, 1);
  out.draws += t.draws;
  out.loop_iterations += t.iterations;
  out.scale_event_us.insert(out.scale_event_us.end(),
                            t.scale_event_us.begin(), t.scale_event_us.end());
  return stats;
}

ServingStats merge_traced(
    std::vector<ShardStats> shards, const serving::ServiceModel& service,
    const serving::ServeSpec& spec,
    const std::vector<serving::ShardElasticPlan>& plans, SpanLog& log,
    int parent, std::int64_t job, TracedJob& out) {
  const int span = log.open("serving.merge", parent, job);
  ServingStats stats = serving::merge_shard_stats(
      std::move(shards), service, spec.fleet.sla_bound_us,
      plans.back().first_instance + plans.back().provisioned, 0);
  log.close(span);
  std::set<int> deciles;
  for (double t : out.scale_event_us) {
    deciles.insert(std::clamp(
        static_cast<int>(10 * t / std::max(stats.makespan_us, 1.0)), 0, 9));
  }
  out.scale_deciles = static_cast<int>(deciles.size());
  return stats;
}

/// simulate_fleet(service, generate_workload(spec.workload), spec), driven
/// from here.
StatusOr<ServingStats> traced_batched_job(const serving::ServiceModel& service,
                                          const serving::ServeSpec& spec,
                                          SpanLog& log, std::int64_t job,
                                          TracedJob& out) {
  const int job_span = log.open("serving.replay", SpanLog::kNoParent, job);
  int span = log.open("serving.workload.generate", job_span, job);
  auto requests = serving::generate_workload(spec.workload);
  log.close(span);
  if (!requests.is_ok()) return requests.status();

  // simulate_fleet's static partition: user u -> shard u mod S, arrival
  // order kept (generated traces arrive sorted).
  span = log.open("serving.engine.partition", job_span, job);
  const int shards = spec.fleet.shards;
  std::vector<std::vector<Request>> shard_requests(
      static_cast<std::size_t>(shards));
  for (const Request& r : *requests) {
    shard_requests[static_cast<std::size_t>(r.user % shards)].push_back(r);
  }
  log.close(span);
  auto plans = serving::plan_elastic_shards(
      spec.elastic, spec.scenario.faults, spec.fleet.instances, shards);
  if (!plans.is_ok()) return plans.status();

  std::vector<ShardStats> results;
  for (int s = 0; s < shards; ++s) {
    const auto& slice = shard_requests[static_cast<std::size_t>(s)];
    VectorArrivals arrivals(slice);
    auto stats = traced_shard(service, spec,
                              (*plans)[static_cast<std::size_t>(s)], s,
                              static_cast<std::int64_t>(slice.size()),
                              arrivals, log, job_span, job, out);
    if (!stats.is_ok()) return stats.status();
    results.push_back(std::move(stats).value());
  }
  // The materialized trace is drawn once, one draw per request.
  out.requests = static_cast<std::int64_t>(requests->size());
  out.draws = out.requests;
  ServingStats merged = merge_traced(std::move(results), service, spec,
                                     *plans, log, job_span, job, out);
  log.close(job_span);
  return merged;
}

/// simulate_fleet_stream(service, spec) minus the checkpoint, driven from
/// here: every shard pulls its own copy of the global stream.
StatusOr<ServingStats> traced_stream_job(const serving::ServiceModel& service,
                                         const serving::ServeSpec& spec,
                                         SpanLog& log, std::int64_t job,
                                         TracedJob& out) {
  const int job_span = log.open("serving.replay", SpanLog::kNoParent, job);
  const int shards = spec.fleet.shards;
  auto plans = serving::plan_elastic_shards(
      spec.elastic, spec.scenario.faults, spec.fleet.instances, shards);
  if (!plans.is_ok()) return plans.status();
  std::vector<ShardStats> results;
  for (int s = 0; s < shards; ++s) {
    auto stream = serving::make_request_stream(spec.workload, spec.scenario);
    if (!stream.is_ok()) return stream.status();
    StreamArrivals arrivals(**stream, s, shards);
    auto stats = traced_shard(service, spec,
                              (*plans)[static_cast<std::size_t>(s)], s,
                              spec.workload.target_requests, arrivals, log,
                              job_span, job, out);
    if (!stats.is_ok()) return stats.status();
    if (Status fs = (*stream)->finish_status(); !fs.is_ok()) return fs;
    out.requests += stats->offered;
    results.push_back(std::move(stats).value());
  }
  ServingStats merged = merge_traced(std::move(results), service, spec,
                                     *plans, log, job_span, job, out);
  log.close(job_span);
  return merged;
}

// ---------------------------------------------------------------- driver --

enum class ReplayKind { kBatched, kStream };

/// One untraced job: the timed library call and what its checks measured.
struct ReplayJob {
  std::int64_t wall_ns = 0;
  ServingStats stats;
  double checkpoint_merge_ms = 0;
  double checkpoint_bytes = 0;
};

serving::ServeSpec job_spec(ReplayKind kind, const Args& args, int job) {
  serving::ServeSpec spec =
      kind == ReplayKind::kBatched ? batched_spec() : stream_spec();
  spec.workload.seed = mix_seed(args.seed, static_cast<std::uint64_t>(job));
  return spec;
}

/// Whether untraced stream job `job` writes (and checks) a checkpoint. The
/// traced copy of the loop writes none, so a traced run compares tracing
/// overhead only on untraced jobs without one.
bool writes_checkpoint(ReplayKind kind, const Args& args, int job) {
  return kind == ReplayKind::kStream && (!args.trace || job < kSimJobs);
}

/// Runs job `job` untraced and checks it; failures land in `result`.
ReplayJob run_untraced(ReplayKind kind, const serving::ServiceModel& service,
                       const Args& args, int job, RunResult& result) {
  ReplayJob out;
  serving::ServeSpec spec = job_spec(kind, args, job);
  const bool checkpoint = writes_checkpoint(kind, args, job);
  const std::string where = "job " + std::to_string(job) + ": ";
  ++result.attempted;
  StatusOr<ServingStats> stats = Status::internal("not run");
  if (kind == ReplayKind::kBatched) {
    const std::int64_t t0 = now_ns();
    auto requests = serving::generate_workload(spec.workload);
    stats = requests.is_ok() ? serving::simulate_fleet(service, *requests, spec)
                             : StatusOr<ServingStats>(requests.status());
    out.wall_ns = now_ns() - t0;
  } else {
    if (checkpoint) {
      // A fresh path per job: a stale file could resume shards and turn the
      // timed replay into a no-op.
      spec.fleet.checkpoint_path =
          args.out_dir + "/ckpt-" + std::to_string(::getpid()) + "-" +
          std::to_string(args.seed) + "-" + std::to_string(job) + ".bin";
      std::error_code ec;
      std::filesystem::remove(spec.fleet.checkpoint_path, ec);
    }
    const std::int64_t t0 = now_ns();
    stats = serving::simulate_fleet_stream(service, spec);
    out.wall_ns = now_ns() - t0;
  }
  if (!stats.is_ok()) {
    result.fail(where + stats.status().to_string());
    return out;
  }
  out.stats = std::move(stats).value();
  const ServingStats& s = out.stats;
  std::int64_t branch_sum = 0;
  for (std::int64_t c : s.branch_completed) branch_sum += c;
  if (s.completed != s.offered ||
      s.offered != spec.workload.target_requests || branch_sum != s.completed) {
    result.fail(where + "completed != offered, or short of the target");
  }
  if (s.resumed_shards != 0) {
    result.fail(where + "resumed shards from a checkpoint");
  }
  if (checkpoint) {
    const std::string& path = spec.fleet.checkpoint_path;
    std::error_code ec;
    out.checkpoint_bytes =
        static_cast<double>(std::filesystem::file_size(path, ec));
    const std::int64_t t0 = now_ns();
    auto merged = serving::merge_replay_checkpoints(service, spec, {path});
    out.checkpoint_merge_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (!merged.is_ok()) {
      result.fail(where + "checkpoint merge: " + merged.status().to_string());
    } else if (stats_text(*merged) != stats_text(s)) {
      result.fail(where + "checkpoint merge does not reproduce the run");
    }
    std::filesystem::remove(path, ec);
  }
  return out;
}

void add_layer_metrics(ReplayKind kind, const std::vector<ReplayJob>& jobs,
                       const std::vector<TracedJob>& traced,
                       const SpanLog& log, RunResult& result) {
  double requests = 0;
  double draws = 0;
  double iterations = 0;
  double batches = 0;
  for (std::size_t j = 0; j < traced.size(); ++j) {
    requests += static_cast<double>(traced[j].requests);
    draws += static_cast<double>(traced[j].draws);
    iterations += static_cast<double>(traced[j].loop_iterations);
    batches += static_cast<double>(jobs[j].stats.batches);
  }
  const auto per_req = [&](const char* span) {
    return requests > 0 ? static_cast<double>(log.total_ns(span)) / requests
                        : 0;
  };
  const double count = static_cast<double>(traced.size());
  auto& m = result.metrics;
  m["serving.workload.gen_ns_per_req"] =
      per_req(kind == ReplayKind::kBatched ? "serving.workload.generate"
                                           : "serving.workload.next");
  m["serving.workload.draws_per_req"] = requests > 0 ? draws / requests : 0;
  m["serving.engine.enqueue_ns_per_req"] = per_req("serving.engine.enqueue");
  m["serving.engine.dispatch_ns_per_req"] =
      per_req("serving.engine.dispatch_ready");
  m["serving.engine.next_event_ns_per_req"] =
      per_req("serving.engine.next_event");
  m["serving.engine.advance_ns_per_req"] = per_req("serving.engine.advance_to");
  m["serving.engine.loop_self_ns_per_req"] =
      requests > 0
          ? static_cast<double>(log.self_ns("serving.engine.shard")) / requests
          : 0;
  m["serving.engine.iters_per_req"] = requests > 0 ? iterations / requests : 0;
  m["serving.engine.dispatch_yield"] =
      iterations > 0 ? batches / iterations : 0;
  m["serving.elastic.tick_ns_per_req"] = per_req("serving.elastic.tick");
  m["serving.merge_ms"] =
      static_cast<double>(log.total_ns("serving.merge")) * 1e-6 / count;
  m["serving.take_stats_ms"] =
      static_cast<double>(log.total_ns("serving.engine.take_stats")) * 1e-6 /
      count;
  if (kind == ReplayKind::kStream) {
    std::vector<double> merge_ms;
    for (std::size_t j = 0; j < static_cast<std::size_t>(kSimJobs); ++j) {
      merge_ms.push_back(jobs[j].checkpoint_merge_ms);
    }
    m["serving.checkpoint.merge_ms"] = median(merge_ms);
  }

  // Simulated values: the first kSimJobs jobs, so they depend on the seed
  // only.
  double completed = 0;
  double sim_batches = 0;
  double violations = 0;
  double fill = 0;
  double p99_ms = 0;
  double scale_events = 0;
  double deciles = 0;
  double max_depth = 0;
  double checkpoint_bytes = 0;
  for (std::size_t j = 0; j < static_cast<std::size_t>(kSimJobs); ++j) {
    const ServingStats& s = jobs[j].stats;
    completed += static_cast<double>(s.completed);
    sim_batches += static_cast<double>(s.batches);
    violations += static_cast<double>(s.sla_violations);
    fill += s.mean_batch_fill / kSimJobs;
    p99_ms += s.latency.p99 * 1e-3 / kSimJobs;
    scale_events +=
        static_cast<double>(s.scale_up_events + s.scale_down_events) /
        kSimJobs;
    deciles += static_cast<double>(traced[j].scale_deciles) / kSimJobs;
    max_depth = std::max(max_depth, static_cast<double>(s.max_queue_depth));
    checkpoint_bytes += jobs[j].checkpoint_bytes / kSimJobs;
  }
  m["serving.elastic.scale_events"] = scale_events;
  m["serving.elastic.scale_deciles"] = deciles;
  m["serving.checkpoint.bytes"] = checkpoint_bytes;
  m["serving.engine.mean_batch_fill"] = fill;
  m["serving.engine.requests_per_batch"] =
      sim_batches > 0 ? completed / sim_batches : 0;
  m["serving.engine.max_queue_depth"] = max_depth;
  m["serving.sim_p99_ms"] = p99_ms;
  m["serving.sla_violation_rate"] = completed > 0 ? violations / completed : 0;
}

RunResult run_replay(ReplayKind kind, const Args& args) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<double> profile_ms;
  std::vector<double> reorganize_ms;
  const auto timed_setup = [&] {
    const std::int64_t t0 = now_ns();
    StatusOr<ServingSetup> setup = build_setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (setup.is_ok()) {
      profile_ms.push_back(setup->profile_ms);
      reorganize_ms.push_back(setup->reorganize_ms);
    } else {
      ++result.attempted;
      result.fail("set-up: " + setup.status().to_string());
    }
    return setup;
  };
  // The first set-up's service model serves every job; the other timed
  // set-ups run between jobs.
  const StatusOr<ServingSetup> setup = timed_setup();
  if (!setup.is_ok()) return result;
  const serving::ServiceModel& service = setup->service;
  std::string service_text;
  for (const serving::BranchService& b : service.branches) {
    if (!service_text.empty()) service_text += " ";
    service_text += std::to_string(b.capacity) + "x" +
                    std::to_string(b.pass_us * 1e-3) + "ms";
  }
  result.context["service"] = service_text;
  result.context["threads"] = std::to_string(kThreads);

  std::vector<ReplayJob> jobs;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t wall0 = now_ns();
  const int count = run_for(
      budget, kSimJobs,
      [&](int job) {
        jobs.push_back(run_untraced(kind, service, args, job, result));
      },
      kSetupRepeats - 1, timed_setup);
  result.context["jobs"] = std::to_string(count);
  result.context["cpu_per_wall"] =
      std::to_string(static_cast<double>(process_cpu_ns() - cpu0) /
                     static_cast<double>(now_ns() - wall0));

  if (!args.trace) {
    std::vector<double> walls_ms;
    for (const ReplayJob& j : jobs) {
      walls_ms.push_back(static_cast<double>(j.wall_ns) * 1e-6);
    }
    add_job_metrics(walls_ms, median(setup_s),
                    static_cast<double>(job_spec(kind, args, 0)
                                            .workload.target_requests),
                    result);
    return result;
  }

  // Traced pass over the same inputs, checked against the untraced stats.
  SpanLog log;
  std::vector<TracedJob> traced(static_cast<std::size_t>(count));
  std::int64_t untraced_ns = 0;
  std::int64_t traced_ns = 0;
  for (int job = 0; job < count; ++job) {
    const auto j = static_cast<std::size_t>(job);
    const serving::ServeSpec spec = job_spec(kind, args, job);
    const std::string where = "traced job " + std::to_string(job) + ": ";
    ++result.attempted;
    const std::int64_t t0 = now_ns();
    auto stats = kind == ReplayKind::kBatched
                     ? traced_batched_job(service, spec, log, job, traced[j])
                     : traced_stream_job(service, spec, log, job, traced[j]);
    if (!writes_checkpoint(kind, args, job)) {
      traced_ns += now_ns() - t0;
      untraced_ns += jobs[j].wall_ns;
    }
    if (!stats.is_ok()) {
      result.fail(where + stats.status().to_string());
      continue;
    }
    if (kind == ReplayKind::kBatched) {
      if (stats_text(*stats) != stats_text(jobs[j].stats)) {
        result.fail(where + "stats differ from simulate_fleet");
      }
    } else if (std::string why = sketch_stats_mismatch(*stats, jobs[j].stats);
               !why.empty()) {
      result.fail(where + why + " vs simulate_fleet_stream");
    }
  }
  const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  if (!log.write_json(spans_path)) result.fail("cannot write " + spans_path);
  result.context["spans"] = spans_path;

  add_layer_metrics(kind, jobs, traced, log, result);
  result.metrics["analysis.profile_ms"] = median(profile_ms);
  result.metrics["arch.reorganize_ms"] = median(reorganize_ms);
  result.metrics["obs.trace_overhead_pct"] =
      untraced_ns > 0 ? (static_cast<double>(traced_ns) /
                             static_cast<double>(untraced_ns) -
                         1) *
                            100
                      : 0;
  return result;
}

}  // namespace

RunResult run_replay_batched_sla(const Args& args) {
  return run_replay(ReplayKind::kBatched, args);
}

RunResult run_replay_stream_drift(const Args& args) {
  return run_replay(ReplayKind::kStream, args);
}

}  // namespace perfbench
