#include "serving/fleet.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serving/binary_io.hpp"
#include "serving/shard_loop.hpp"
#include "serving/stream.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace fcad::serving {
namespace {

/// Checkpoint v3 leading/trailing magics. Earlier formats (text v1, binary
/// v2) fail the magic check and are rejected like any unreadable file.
constexpr char kCheckpointMagic[8] = {'F', 'C', 'A', 'D', 'F', 'L', 'T', '3'};
constexpr std::uint32_t kCheckpointVersion = 3;
constexpr std::uint32_t kCheckpointTrailer = 0x33544c46;  // "FLT3"

// ------------------------------------------------- checkpoint format (v3) --
// Raw fixed-width fields (serving/binary_io.hpp, like the sketch's own
// encoding). A shard block opens with its latency-mode byte: a sketch block
// then carries the counters and both sketches — O(branches + instances +
// sketch buckets) however many requests it covered — and an exact block
// carries the counters plus raw f64 pages of every latency and wait and the
// per-request records.

void put_f64_page(std::ostream& os, const std::vector<double>& values) {
  put_u64(os, values.size());
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size() * sizeof(double)));
}

bool get_f64_page(std::istream& in, std::vector<double>& values) {
  std::uint64_t n = 0;
  if (!get_raw(in, n)) return false;
  values.clear();
  // The count comes from an untrusted file: grow chunk by chunk so a corrupt
  // value fails a short read (-> wholesale restart) instead of throwing out
  // of one huge allocation.
  constexpr std::uint64_t kChunk = 1 << 16;
  while (values.size() < n) {
    const std::size_t have = values.size();
    const auto take =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - have));
    values.resize(have + take);
    const auto bytes = static_cast<std::streamsize>(take * sizeof(double));
    in.read(reinterpret_cast<char*>(values.data() + have), bytes);
    if (in.gcount() != bytes) return false;
  }
  return true;
}

void shard_to_binary(std::ostream& os, const ShardStats& shard) {
  os.put(static_cast<char>(shard.latency_mode));
  put_i64(os, shard.offered);
  put_i64(os, shard.completed);
  put_i64(os, shard.batches);
  put_i64(os, shard.sla_violations);
  put_i64(os, shard.max_queue_depth);
  put_i64(os, shard.scale_up_events);
  put_i64(os, shard.scale_down_events);
  put_i64(os, shard.reshard_splits);
  put_i64(os, shard.fault_events);
  put_i64(os, shard.recover_events);
  put_f64(os, shard.fill_sum);
  put_f64(os, shard.depth_integral_us);
  put_f64(os, shard.makespan_us);
  put_u32(os, static_cast<std::uint32_t>(shard.branch_completed.size()));
  for (std::int64_t v : shard.branch_completed) put_i64(os, v);
  put_u32(os, static_cast<std::uint32_t>(shard.instances.size()));
  for (const InstanceStats& inst : shard.instances) {
    put_i64(os, inst.instance);
    put_i64(os, inst.batches);
    put_i64(os, inst.requests);
    put_i64(os, inst.branch_switches);
    put_f64(os, inst.busy_us);
  }
  if (shard.latency_mode == LatencyMode::kSketch) {
    shard.latency_sketch.write_binary(os);
    shard.wait_sketch.write_binary(os);
    return;
  }
  put_f64_page(os, shard.latencies);
  put_f64_page(os, shard.waits);
  put_u64(os, shard.records.size());
  for (const RequestRecord& rec : shard.records) {
    put_i64(os, rec.id);
    put_i64(os, rec.user);
    put_i64(os, rec.branch);
    put_i64(os, rec.instance);
    put_f64(os, rec.arrival_us);
    put_f64(os, rec.start_us);
    put_f64(os, rec.finish_us);
  }
}

/// Reads one shard block written by a `mode` replay; a block of the other
/// mode is as foreign as a torn one.
bool shard_from_binary(std::istream& in, LatencyMode mode, ShardStats& shard) {
  char mode_byte = 0;
  if (!in.get(mode_byte) || mode_byte != static_cast<char>(mode)) {
    return false;
  }
  shard.latency_mode = mode;
  std::int64_t depth = 0;
  if (!get_raw(in, shard.offered) || !get_raw(in, shard.completed) ||
      !get_raw(in, shard.batches) || !get_raw(in, shard.sla_violations) ||
      !get_raw(in, depth) || !get_raw(in, shard.scale_up_events) ||
      !get_raw(in, shard.scale_down_events) ||
      !get_raw(in, shard.reshard_splits) ||
      !get_raw(in, shard.fault_events) ||
      !get_raw(in, shard.recover_events) || !get_raw(in, shard.fill_sum) ||
      !get_raw(in, shard.depth_integral_us) ||
      !get_raw(in, shard.makespan_us)) {
    return false;
  }
  shard.max_queue_depth = static_cast<int>(depth);
  std::uint32_t n_branch = 0;
  if (!get_raw(in, n_branch)) return false;
  shard.branch_completed.clear();
  shard.branch_completed.reserve(std::min<std::uint32_t>(n_branch, 1u << 20));
  for (std::uint32_t i = 0; i < n_branch; ++i) {
    std::int64_t v = 0;
    if (!get_raw(in, v)) return false;
    shard.branch_completed.push_back(v);
  }
  std::uint32_t n_instances = 0;
  if (!get_raw(in, n_instances)) return false;
  shard.instances.clear();
  shard.instances.reserve(std::min<std::uint32_t>(n_instances, 1u << 20));
  for (std::uint32_t i = 0; i < n_instances; ++i) {
    InstanceStats inst;
    std::int64_t id = 0;
    if (!get_raw(in, id) || !get_raw(in, inst.batches) ||
        !get_raw(in, inst.requests) || !get_raw(in, inst.branch_switches) ||
        !get_raw(in, inst.busy_us)) {
      return false;
    }
    inst.instance = static_cast<int>(id);
    shard.instances.push_back(inst);
  }
  if (mode == LatencyMode::kSketch) {
    return QuantileSketch::read_binary(in, shard.latency_sketch) &&
           QuantileSketch::read_binary(in, shard.wait_sketch);
  }
  std::uint64_t n_records = 0;
  if (!get_f64_page(in, shard.latencies) || !get_f64_page(in, shard.waits) ||
      !get_raw(in, n_records)) {
    return false;
  }
  shard.records.clear();
  shard.records.reserve(std::min<std::uint64_t>(n_records, 1u << 20));
  for (std::uint64_t i = 0; i < n_records; ++i) {
    RequestRecord rec;
    std::int64_t user = 0;
    std::int64_t branch = 0;
    std::int64_t instance = 0;
    if (!get_raw(in, rec.id) || !get_raw(in, user) || !get_raw(in, branch) ||
        !get_raw(in, instance) || !get_raw(in, rec.arrival_us) ||
        !get_raw(in, rec.start_us) || !get_raw(in, rec.finish_us)) {
      return false;
    }
    rec.user = static_cast<int>(user);
    rec.branch = static_cast<int>(branch);
    rec.instance = static_cast<int>(instance);
    shard.records.push_back(rec);
  }
  return true;
}

/// Loads finished-shard slots from `path` and returns how many it loaded.
/// Any mismatch (magic or version, fingerprint, shard count, latency mode)
/// or torn content ignores the file wholesale — resuming from a stale or
/// corrupt checkpoint would silently change results, restarting never does.
int load_checkpoint(const std::string& path, const ReplayPlan& plan,
                    std::vector<std::optional<ShardStats>>& slots) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  char magic[8];
  in.read(magic, sizeof magic);
  std::uint32_t version = 0;
  std::uint32_t fp_len = 0;
  if (in.gcount() != sizeof magic ||
      std::memcmp(magic, kCheckpointMagic, sizeof magic) != 0 ||
      !get_raw(in, version) || version != kCheckpointVersion ||
      !get_raw(in, fp_len) || fp_len != plan.fingerprint.size()) {
    FCAD_LOG(kWarn) << "fleet checkpoint unreadable or an older format, "
                       "restarting: "
                    << path;
    return 0;
  }
  std::string fp(fp_len, '\0');
  in.read(fp.data(), static_cast<std::streamsize>(fp_len));
  if (in.gcount() != static_cast<std::streamsize>(fp_len) ||
      fp != plan.fingerprint) {
    FCAD_LOG(kWarn) << "fleet checkpoint is for a different replay, "
                       "restarting: "
                    << path;
    return 0;
  }
  std::uint32_t total = 0;
  std::uint32_t present = 0;
  if (!get_raw(in, total) || total != slots.size() || !get_raw(in, present) ||
      present > total) {
    FCAD_LOG(kWarn) << "fleet checkpoint shard count mismatch, restarting: "
                    << path;
    return 0;
  }
  std::vector<std::optional<ShardStats>> loaded(slots.size());
  for (std::uint32_t i = 0; i < present; ++i) {
    std::uint32_t index = 0;
    ShardStats shard;
    if (!get_raw(in, index) || index >= slots.size() ||
        !shard_from_binary(in, plan.options.latency_mode, shard)) {
      FCAD_LOG(kWarn) << "fleet checkpoint torn or truncated, restarting: "
                      << path;
      return 0;
    }
    loaded[index] = std::move(shard);
  }
  std::uint32_t trailer = 0;
  if (!get_raw(in, trailer) || trailer != kCheckpointTrailer) {
    FCAD_LOG(kWarn) << "fleet checkpoint torn or truncated, restarting: "
                    << path;
    return 0;
  }
  slots = std::move(loaded);
  return static_cast<int>(present);
}

/// Atomically rewrites the checkpoint (temp + rename) with every finished
/// shard. Called under the caller's mutex; a failed write only costs
/// resumability.
void write_checkpoint(const std::string& path, const ReplayPlan& plan,
                      const std::vector<std::optional<ShardStats>>& slots) {
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::binary);
    if (out) {
      out.write(kCheckpointMagic, sizeof kCheckpointMagic);
      put_u32(out, kCheckpointVersion);
      put_u32(out, static_cast<std::uint32_t>(plan.fingerprint.size()));
      out.write(plan.fingerprint.data(),
                static_cast<std::streamsize>(plan.fingerprint.size()));
      put_u32(out, static_cast<std::uint32_t>(slots.size()));
      std::uint32_t present = 0;
      for (const auto& slot : slots) present += slot ? 1 : 0;
      put_u32(out, present);
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s]) continue;
        put_u32(out, static_cast<std::uint32_t>(s));
        shard_to_binary(out, *slots[s]);
      }
      put_u32(out, kCheckpointTrailer);
      written = out.good();
    }
  }
  std::error_code ec;
  if (written) {
    std::filesystem::rename(tmp_path, path, ec);
    written = !ec;
  }
  if (!written) {
    std::filesystem::remove(tmp_path, ec);
    FCAD_LOG(kWarn) << "fleet checkpoint not writable: " << path;
  }
}

/// Fingerprint binding a checkpoint to its exact run: the service model,
/// every result-affecting fleet option, the scenario and elastic specs, and
/// a digest of the request source — a trace's per-shard slices (hashed
/// request by request, in shard order), or a stream's generator parameters
/// (the stream is a pure function of them, so they bind it just as
/// tightly). A mismatch means "different replay" — the checkpoint is
/// ignored. The clock kind is deliberately absent: it paces events without
/// changing results, so a virtual run may resume a cancelled wall-clock one
/// and vice versa. process_index/process_count are likewise absent — the
/// point of the multi-process mode is that every process (and the final
/// merge) agrees on one fingerprint.
std::string replay_fingerprint(const ServiceModel& service,
                               const ServeSpec& spec, const ReplayPlan& plan) {
  const FleetOptions& options = plan.options;
  util::Hash128 h;
  h.absorb_string("fcad-fleet-replay v4");
  // Elastic policies and fault schedules change per-shard results, so a
  // checkpoint from a different spec must never resume this run. The
  // canonical strings are byte-stable (format_spec_number round-trips
  // exactly).
  h.absorb_string(scenario_to_string(spec.scenario));
  h.absorb_string(elastic_to_string(spec.elastic));
  h.absorb(service.branches.size());
  for (const BranchService& b : service.branches) {
    h.absorb(static_cast<std::uint64_t>(b.capacity));
    h.absorb_double(b.pass_us);
  }
  h.absorb(static_cast<std::uint64_t>(options.instances));
  h.absorb(static_cast<std::uint64_t>(options.policy));
  h.absorb_double(options.batch_timeout_us);
  h.absorb_double(options.switch_penalty_us);
  h.absorb_double(options.sla_bound_us);
  h.absorb(static_cast<std::uint64_t>(options.shards));
  h.absorb(static_cast<std::uint64_t>(options.keep_records));
  h.absorb(static_cast<std::uint64_t>(options.latency_mode));
  if (!plan.trace_shards.empty()) {
    h.absorb_string("trace");
    for (const std::vector<Request>& shard : plan.trace_shards) {
      h.absorb(shard.size());
      for (const Request& r : shard) {
        h.absorb(static_cast<std::uint64_t>(r.id));
        h.absorb(static_cast<std::uint64_t>(r.user));
        h.absorb(static_cast<std::uint64_t>(r.branch));
        h.absorb_double(r.arrival_us);
      }
    }
    return h.hex();
  }
  const WorkloadOptions& workload = plan.workload;
  h.absorb_string("stream");
  h.absorb(static_cast<std::uint64_t>(workload.process));
  h.absorb(static_cast<std::uint64_t>(workload.users));
  h.absorb(static_cast<std::uint64_t>(workload.branches));
  h.absorb_double(workload.frame_rate_hz);
  h.absorb_double(workload.duration_s);
  h.absorb(workload.seed);
  h.absorb(static_cast<std::uint64_t>(workload.target_requests));
  return h.hex();
}

/// The spec checks every entry point shares, each naming its field.
Status validate_fleet_spec(const ServiceModel& service,
                           const ServeSpec& spec) {
  const FleetOptions& options = spec.fleet;
  if (options.instances < 1) {
    return Status::invalid_argument("fleet: instances must be >= 1");
  }
  if (options.shards < 1 || options.shards > options.instances) {
    return Status::invalid_argument(
        "fleet: shards must be in [1, instances], got " +
        std::to_string(options.shards));
  }
  if (!std::isfinite(options.batch_timeout_us)) {
    return Status::invalid_argument("fleet: batch_timeout_us must be finite");
  }
  if (!std::isfinite(options.switch_penalty_us) ||
      options.switch_penalty_us < 0) {
    return Status::invalid_argument(
        "fleet: switch_penalty_us must be finite and >= 0");
  }
  if (!std::isfinite(options.sla_bound_us) || options.sla_bound_us <= 0) {
    return Status::invalid_argument(
        "fleet: sla_bound_us must be finite and > 0");
  }
  if (Status s = validate_percentile(options.progress_tail_pct); !s.is_ok()) {
    return Status::invalid_argument("fleet: progress_tail_pct: " +
                                    s.message());
  }
  if (service.num_branches() < 1) {
    return Status::invalid_argument("fleet: service model has no branches");
  }
  if (Status s = validate_scenario(spec.scenario); !s.is_ok()) return s;
  if (Status s = validate_elastic(spec.elastic); !s.is_ok()) return s;
  if (options.latency_mode == LatencyMode::kSketch && options.keep_records) {
    return Status::invalid_argument(
        "fleet: keep_records requires latency_mode exact — a sketch-mode "
        "shard keeps O(1) state and its checkpoint block carries no "
        "per-request records");
  }
  if (options.process_count < 1 || options.process_count > options.shards) {
    return Status::invalid_argument(
        "fleet: process_count must be in [1, shards], got " +
        std::to_string(options.process_count));
  }
  if (options.process_index < 0 ||
      options.process_index >= options.process_count) {
    return Status::invalid_argument(
        "fleet: process_index must be in [0, process_count), got " +
        std::to_string(options.process_index));
  }
  return Status::ok();
}

}  // namespace

StatusOr<ReplayPlan> plan_replay(const ServiceModel& service,
                                 const ServeSpec& spec,
                                 const std::vector<Request>* trace) {
  if (Status s = validate_fleet_spec(service, spec); !s.is_ok()) return s;
  ReplayPlan plan;
  plan.options = spec.fleet;
  const FleetOptions& options = plan.options;
  const bool sketch_mode = options.latency_mode == LatencyMode::kSketch;
  if (options.process_count > 1 && trace != nullptr) {
    return Status::invalid_argument(
        "fleet: process sharding requires the streaming replay "
        "(simulate_fleet_stream)");
  }
  if (options.process_count > 1 && options.checkpoint_path.empty()) {
    return Status::invalid_argument(
        "fleet: process sharding needs a checkpoint_path — without one the "
        "partial results could never be merged");
  }
  const int num_shards = options.shards;

  if (trace != nullptr) {
    // Static partition: user u -> shard u mod S. One counting pass sizes
    // every slice, one partition pass fills them. Partitioning preserves
    // relative order, so a per-shard stable sort yields exactly the slice a
    // global stable sort would have handed the shard — and already-sorted
    // input (every generator's output) skips the sorts entirely.
    std::vector<std::size_t> shard_sizes(static_cast<std::size_t>(num_shards),
                                         0);
    for (const Request& r : *trace) {
      if (r.branch < 0 || r.branch >= service.num_branches()) {
        return Status::invalid_argument("fleet: request branch out of range");
      }
      ++shard_sizes[static_cast<std::size_t>(r.user % num_shards)];
    }
    plan.trace_shards.resize(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      plan.trace_shards[static_cast<std::size_t>(s)].reserve(
          shard_sizes[static_cast<std::size_t>(s)]);
    }
    const auto by_arrival = [](const Request& a, const Request& b) {
      return a.arrival_us < b.arrival_us;
    };
    const bool presorted =
        std::is_sorted(trace->begin(), trace->end(), by_arrival);
    for (const Request& r : *trace) {
      plan.trace_shards[static_cast<std::size_t>(r.user % num_shards)]
          .push_back(r);
    }
    if (!presorted) {
      for (std::vector<Request>& shard : plan.trace_shards) {
        std::stable_sort(shard.begin(), shard.end(), by_arrival);
      }
    }
    plan.offered = static_cast<std::int64_t>(trace->size());
  } else {
    plan.workload = spec.workload;
    const WorkloadOptions workload_defaults;
    if (plan.workload.branches == workload_defaults.branches) {
      plan.workload.branches = service.num_branches();
    }
    if (plan.workload.target_requests <= 0) {
      return Status::invalid_argument(
          "fleet: the streaming replay needs workload.target_requests > 0 "
          "(a definite end the shards can run to)");
    }
    if (plan.workload.branches > service.num_branches()) {
      return Status::invalid_argument(
          "fleet: workload.branches exceeds the service model's branches");
    }
    plan.offered = plan.workload.target_requests;
  }
  plan.shard_lo = static_cast<int>(
      static_cast<std::int64_t>(options.process_index) * num_shards /
      options.process_count);
  plan.shard_hi = static_cast<int>(
      static_cast<std::int64_t>(options.process_index + 1) * num_shards /
      options.process_count);

  // With a disabled elastic spec the provisioned pool is exactly the active
  // fleet, split into the classic contiguous per-shard slices.
  auto shards_or = plan_elastic_shards(spec.elastic, spec.scenario.faults,
                                       options.instances, num_shards);
  if (!shards_or.is_ok()) return shards_or.status();
  plan.shards = std::move(shards_or).value();
  plan.provisioned_total =
      plan.shards.back().first_instance + plan.shards.back().provisioned;

  // The fingerprint also seeds sketch binding. A stream's digest is O(1),
  // so it is always taken (the merge needs it); a trace's is O(requests),
  // so an exact, checkpoint-free trace replay skips it.
  if (trace == nullptr || sketch_mode || !options.checkpoint_path.empty()) {
    plan.fingerprint = replay_fingerprint(service, spec, plan);
  }
  if (sketch_mode) {
    plan.sketch_seed = sketch_seed_from_fingerprint(plan.fingerprint);
  }
  return plan;
}

namespace {

/// Shard `shard`'s request stream: its slice of the trace (moved out of
/// the plan — each shard runs once), or its own copy of the generated
/// workload stream — memory O(users), never O(requests). The generator is
/// deterministic, so every shard sees the identical global sequence.
StatusOr<std::unique_ptr<RequestStream>> shard_stream(ReplayPlan& plan,
                                                      const ServeSpec& spec,
                                                      int shard) {
  if (!plan.trace_shards.empty()) {
    return std::unique_ptr<RequestStream>(
        std::make_unique<VectorRequestStream>(std::move(
            plan.trace_shards[static_cast<std::size_t>(shard)])));
  }
  return make_request_stream(plan.workload, spec.scenario);
}

/// The ~20-tick progress cadence the shards of an observed replay share: a
/// global completion count (resumed shards included) and the next tick's
/// threshold.
struct ProgressTicks {
  void emit(std::int64_t step, double partial_tail) {
    scope->emit({"fleet",
                 static_cast<int>(std::min<std::int64_t>(step, 1LL << 30)),
                 static_cast<int>(std::min<std::int64_t>(offered, 1LL << 30)),
                 partial_tail});
    last_emitted.store(step, std::memory_order_relaxed);
  }

  const util::RunScope* scope;
  std::int64_t offered;
  std::int64_t chunk;
  std::atomic<std::int64_t> completed;
  std::atomic<std::int64_t> next_at;
  std::atomic<std::int64_t> last_emitted{-1};
  std::mutex mutex;
};

/// run_shard's observer on a replay with a progress listener: counts the
/// shard's completions into the shared ticks and keeps its partial tail — a
/// TailTracker over its exact latencies, or the engine's own sketch in
/// sketch mode (no O(expected) tracker reserve on billion-request runs).
/// Due ticks fire after a dispatch; only they (~20 per replay) read the tail.
class ProgressObserver : public ShardObserver {
 public:
  ProgressObserver(ProgressTicks& ticks, const FleetOptions& options,
                   std::int64_t expected_requests)
      : ticks_(ticks),
        pct_(options.progress_tail_pct),
        sketch_(options.latency_mode == LatencyMode::kSketch),
        tail_(sketch_ ? 0 : expected_requests, pct_) {}

  void on_start(const FleetEngine& engine) { engine_ = &engine; }
  void on_batch(const Batch& batch, int, double, double finish_us) {
    ticks_.completed.fetch_add(
        static_cast<std::int64_t>(batch.requests.size()),
        std::memory_order_relaxed);
    if (sketch_) return;
    for (const Request& r : batch.requests) tail_.add(finish_us - r.arrival_us);
  }
  void on_phase(ShardPhase phase) {
    if (phase != ShardPhase::kDispatch) return;
    const std::int64_t c = ticks_.completed.load(std::memory_order_relaxed);
    if (c < ticks_.next_at.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(ticks_.mutex);
    if (c < ticks_.next_at.load(std::memory_order_relaxed)) return;  // lost
    ticks_.emit(c, partial_tail());
    ticks_.next_at.store((c / ticks_.chunk + 1) * ticks_.chunk,
                         std::memory_order_relaxed);
  }

 private:
  double partial_tail() const {
    if (!sketch_) return tail_.partial();
    const QuantileSketch& sketch = engine_->stats().latency_sketch;
    return sketch.count() == 0 ? 0 : sketch.quantile(pct_);
  }

  ProgressTicks& ticks_;
  double pct_;
  bool sketch_;
  TailTracker tail_;
  const FleetEngine* engine_ = nullptr;
};

/// The exact final tail-percentile estimate for the terminal progress tick,
/// computed from the per-shard streams BEFORE merge_shard_stats consumes
/// them. Exact mode streams every latency through a TailTracker (O(tail)
/// memory); sketch mode folds the shard sketches and reads the quantile.
double final_tail_estimate(const std::vector<ShardStats>& shards,
                           std::int64_t total_completed,
                           const FleetOptions& options) {
  if (options.latency_mode == LatencyMode::kSketch) {
    QuantileSketch merged;
    bool first = true;
    for (const ShardStats& shard : shards) {
      if (first) {
        merged = shard.latency_sketch;
        first = false;
      } else {
        FCAD_CHECK_MSG(merged.merge(shard.latency_sketch).is_ok(),
                       "fleet: shard sketches disagree on seed/alpha");
      }
    }
    return merged.count() == 0 ? 0
                               : merged.quantile(options.progress_tail_pct);
  }
  TailTracker tail(total_completed, options.progress_tail_pct);
  for (const ShardStats& shard : shards) {
    for (double v : shard.latencies) tail.add(v);
  }
  return tail.partial();
}

}  // namespace

StatusOr<ServingStats> run_replay(ReplayPlan plan,
                                  const ServiceModel& service,
                                  const ServeSpec& spec,
                                  const util::RunScope* scope,
                                  std::int64_t* shed) {
  const FleetOptions& options = plan.options;
  const int num_shards = options.shards;

  std::vector<std::optional<ShardStats>> slots(
      static_cast<std::size_t>(num_shards));
  int resumed = 0;
  if (!options.checkpoint_path.empty()) {
    resumed = load_checkpoint(options.checkpoint_path, plan, slots);
    // A resumable checkpoint only ever carries this process's own shards —
    // drop anything outside the owned range (e.g. a file from a different
    // process split) rather than reporting shards this process does not own.
    for (int s = 0; s < num_shards; ++s) {
      if ((s < plan.shard_lo || s >= plan.shard_hi) &&
          slots[static_cast<std::size_t>(s)]) {
        slots[static_cast<std::size_t>(s)].reset();
        --resumed;
      }
    }
  }

  std::int64_t already_completed = 0;
  for (const auto& slot : slots) {
    if (slot) already_completed += slot->completed;
  }
  // Progress — ticks, and the tail estimates they carry — is an observer
  // that exists only for a scope with a listener: an unobserved replay runs
  // the bare loop and tracks no tail.
  const bool observed = scope != nullptr && scope->observed();
  std::optional<ProgressTicks> ticks;
  if (observed) {
    const std::int64_t chunk = std::max<std::int64_t>(1, plan.offered / 20);
    ticks.emplace(scope, plan.offered, chunk, already_completed,
                  (already_completed / chunk + 1) * chunk);
  }

  std::mutex slot_mutex;
  const int owned = plan.shard_hi - plan.shard_lo;
  std::vector<Status> shard_status(static_cast<std::size_t>(owned),
                                   Status::ok());
  std::vector<ShardTally> tallies(static_cast<std::size_t>(owned));
  auto run_one = [&](std::int64_t i) {
    const int s = plan.shard_lo + static_cast<int>(i);
    const auto index = static_cast<std::size_t>(s);
    Status& status = shard_status[static_cast<std::size_t>(i)];
    if (slots[index]) return;  // resumed from the checkpoint
    const std::int64_t expected =
        plan.trace_shards.empty()
            ? plan.offered
            : static_cast<std::int64_t>(plan.trace_shards[index].size());
    auto stream = shard_stream(plan, spec, s);
    if (!stream.is_ok()) {
      status = stream.status();
      return;
    }
    ShardSource source(std::move(stream).value(), s, num_shards);
    const Request* first = source.peek(ShardObserver{});
    const std::unique_ptr<Clock> clock =
        make_clock(options.clock, first != nullptr ? first->arrival_us : 0);
    ShardTally& tally = tallies[static_cast<std::size_t>(i)];
    auto result =
        ticks ? run_shard(service, source, *clock, plan, spec.elastic, s,
                          expected, scope, tally,
                          ProgressObserver(*ticks, options, expected))
              : run_shard(service, source, *clock, plan, spec.elastic, s,
                          expected, scope, tally);
    if (Status fs = source.finish_status(); !fs.is_ok()) {
      status = fs;
      return;
    }
    if (!result.is_ok()) {
      status = result.status();
      return;
    }
    std::lock_guard<std::mutex> lock(slot_mutex);
    slots[index] = std::move(result).value();
    if (!options.checkpoint_path.empty()) {
      write_checkpoint(options.checkpoint_path, plan, slots);
      obs::MetricsRegistry::global()
          .counter("serving.fleet.checkpoint_writes")
          .add(1);
      if (obs::Tracer* const tracer = obs::tracer()) {
        // Stamped at the shard's virtual makespan — where the shard's
        // timeline ends, which is when its state became durable.
        tracer->instant(shard_lane(s), "checkpoint write", "serving",
                        slots[index]->makespan_us);
      }
    }
  };
  if (owned == 1) {
    run_one(0);
  } else {
    util::ThreadPool& pool = util::ThreadPool::shared(
        scope != nullptr ? scope->threads(options.threads) : options.threads);
    pool.parallel_for(owned, run_one);
  }

  bool cancelled = false;
  for (const Status& s : shard_status) {
    if (s.is_ok()) continue;
    if (s.code() == StatusCode::kCancelled) {
      cancelled = true;
      continue;
    }
    return s;
  }
  std::int64_t total_shed = 0;
  std::int64_t total_completed = already_completed;
  for (const ShardTally& tally : tallies) {
    total_shed += tally.shed;
    total_completed += tally.completed;
  }
  if (cancelled) {
    return Status::cancelled("fleet replay cancelled after " +
                             std::to_string(total_completed) + "/" +
                             std::to_string(plan.offered) + " requests");
  }

  std::vector<ShardStats> shards;
  shards.reserve(static_cast<std::size_t>(owned));
  for (int s = plan.shard_lo; s < plan.shard_hi; ++s) {
    shards.push_back(std::move(*slots[static_cast<std::size_t>(s)]));
  }

  // The terminal tick: every replay with an observer ends with a progress
  // event whose estimate is the final tail percentile over ALL latencies
  // (exact in exact mode, the merged-sketch quantile in sketch mode). A
  // sharded run's last in-loop tick carries the emitting shard's local
  // estimate even when it lands exactly at completed == offered, so only
  // the single-shard loop (whose tracker saw every sample) may skip the
  // terminal emit. Computed before the merge, which consumes the shards.
  const bool terminal_tick =
      observed && (owned > 1 || ticks->last_emitted.load() != total_completed);
  const double final_tail =
      terminal_tick ? final_tail_estimate(shards, total_completed, options)
                    : 0;

  ServingStats stats =
      merge_shard_stats(std::move(shards), service, options.sla_bound_us,
                        plan.provisioned_total, resumed);

  FCAD_CHECK_MSG(stats.completed == stats.offered,
                 "fleet: lost requests in flight");
  if (owned == num_shards) {
    FCAD_CHECK_MSG(stats.completed + total_shed == plan.offered,
                   "fleet: replay ended short of its requests");
  }
  if (shed != nullptr) *shed = total_shed;

  if (terminal_tick) ticks->emit(stats.completed, final_tail);

  return stats;
}

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kLeastLoaded: return "least-loaded";
    case DispatchPolicy::kBranchAffinity: return "branch-affinity";
  }
  return "?";
}

StatusOr<DispatchPolicy> dispatch_policy_by_name(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "round-robin" || lower == "rr") {
    return DispatchPolicy::kRoundRobin;
  }
  if (lower == "least-loaded" || lower == "least") {
    return DispatchPolicy::kLeastLoaded;
  }
  if (lower == "branch-affinity" || lower == "affinity") {
    return DispatchPolicy::kBranchAffinity;
  }
  return Status::not_found("unknown dispatch policy '" + name + "'");
}

StatusOr<ServingStats> simulate_fleet(const ServiceModel& service,
                                      const std::vector<Request>& requests,
                                      const ServeSpec& spec,
                                      const util::RunScope* scope) {
  auto plan = plan_replay(service, spec, &requests);
  if (!plan.is_ok()) return plan.status();
  return run_replay(std::move(plan).value(), service, spec, scope);
}

StatusOr<ServingStats> simulate_fleet_stream(const ServiceModel& service,
                                             const ServeSpec& spec,
                                             const util::RunScope* scope) {
  auto plan = plan_replay(service, spec, nullptr);
  if (!plan.is_ok()) return plan.status();
  return run_replay(std::move(plan).value(), service, spec, scope);
}

StatusOr<ServingStats> merge_replay_checkpoints(
    const ServiceModel& service, const ServeSpec& spec,
    const std::vector<std::string>& checkpoint_paths) {
  // The merge is the single-process view of the replay: it owns every
  // shard, whatever process split produced the files.
  ServeSpec whole = spec;
  whole.fleet.process_index = 0;
  whole.fleet.process_count = 1;
  auto plan_or = plan_replay(service, whole, nullptr);
  if (!plan_or.is_ok()) return plan_or.status();
  const ReplayPlan& plan = *plan_or;
  const int num_shards = plan.options.shards;
  if (checkpoint_paths.empty()) {
    return Status::invalid_argument("merge: no checkpoint files given");
  }

  // Unlike checkpoint *resume* (where a bad file just restarts work),
  // merging has nothing to fall back to — every anomaly is an error.
  std::vector<std::optional<ShardStats>> slots(
      static_cast<std::size_t>(num_shards));
  for (const std::string& path : checkpoint_paths) {
    std::vector<std::optional<ShardStats>> file_slots(
        static_cast<std::size_t>(num_shards));
    if (load_checkpoint(path, plan, file_slots) == 0) {
      return Status::invalid_argument(
          "merge: checkpoint unreadable, torn, empty, an older format, or "
          "for a different replay: " +
          path);
    }
    for (int s = 0; s < num_shards; ++s) {
      const auto index = static_cast<std::size_t>(s);
      if (!file_slots[index]) continue;
      if (slots[index]) {
        return Status::invalid_argument(
            "merge: shard " + std::to_string(s) +
            " appears in more than one checkpoint (overlapping process "
            "ranges?): " +
            path);
      }
      slots[index] = std::move(file_slots[index]);
    }
  }
  for (int s = 0; s < num_shards; ++s) {
    if (!slots[static_cast<std::size_t>(s)]) {
      return Status::invalid_argument(
          "merge: shard " + std::to_string(s) +
          " is missing from every checkpoint — did all " +
          std::to_string(num_shards) + "-shard processes finish?");
    }
  }

  std::vector<ShardStats> shards;
  shards.reserve(slots.size());
  std::int64_t total_offered = 0;
  for (auto& slot : slots) {
    total_offered += slot->offered;
    shards.push_back(std::move(*slot));
  }
  if (total_offered != plan.offered) {
    return Status::invalid_argument(
        "merge: checkpoints cover " + std::to_string(total_offered) +
        " requests but the spec targets " + std::to_string(plan.offered));
  }

  ServingStats stats =
      merge_shard_stats(std::move(shards), service, plan.options.sla_bound_us,
                        plan.provisioned_total, num_shards);
  FCAD_CHECK_MSG(stats.completed == stats.offered,
                 "merge: lost requests in flight");
  return stats;
}

}  // namespace fcad::serving
