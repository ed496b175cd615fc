// Streaming-replay suite (serving step 9): the lazy workload stream must
// reproduce the materialized generators draw for draw, the streaming fleet
// replay must match the materialized one bit for bit (and stay bounded in
// sketch mode), and the checkpoint + multi-process merge must be strict
// about torn, stale, retired-format, overlapping, or missing inputs in both
// latency modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "serving/fleet.hpp"
#include "serving/scenario.hpp"
#include "serving/sketch.hpp"
#include "serving/stats.hpp"
#include "serving/stream.hpp"
#include "serving/workload.hpp"
#include "serving_goldens.hpp"
#include "util/hash.hpp"
#include "util/run_control.hpp"
#include "util/status.hpp"

namespace fcad::serving {
namespace {

ServiceModel test_service() {
  ServiceModel service;
  service.branches = {{2, 3000.0}, {4, 5000.0}};
  return service;
}

WorkloadOptions stream_workload(std::int64_t target, std::uint64_t seed) {
  WorkloadOptions wl;
  wl.users = 6;
  wl.branches = 2;
  wl.frame_rate_hz = 40;
  wl.seed = seed;
  wl.target_requests = target;
  return wl;
}

ScenarioSpec shaped_scenario() {
  ScenarioSpec spec;
  spec.diurnal.period_s = 2.0;
  spec.diurnal.amplitude = 0.5;
  FlashCrowdSpec flash;
  flash.start_s = 0.5;
  flash.end_s = 1.5;
  flash.rate_multiplier = 2.0;
  flash.extra_users = 2;
  spec.flash.push_back(flash);
  return spec;
}

void expect_same_trace(const std::vector<Request>& a,
                       const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << "at " << i;
    ASSERT_EQ(a[i].user, b[i].user) << "at " << i;
    ASSERT_EQ(a[i].branch, b[i].branch) << "at " << i;
    ASSERT_EQ(a[i].arrival_us, b[i].arrival_us) << "at " << i;
  }
}

std::string stats_text(const ServingStats& stats) {
  std::ostringstream os;
  serving_stats_to_text(os, stats);
  return os.str();
}

/// Scratch file path under the build tree, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("fcad_stream_test_" + name))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(StreamTest, StreamMatchesGeneratorsDrawForDraw) {
  // Target mode and duration mode, both arrival processes, several seeds:
  // the pull-based stream must emit exactly the materialized generator's
  // sequence (same ids, users, branches, arrival times).
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty}) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      WorkloadOptions wl = stream_workload(3000, seed);
      wl.process = process;
      auto generated = generate_workload(wl);
      ASSERT_TRUE(generated.is_ok());
      auto stream = make_request_stream(wl);
      ASSERT_TRUE(stream.is_ok());
      auto drained = drain_request_stream(**stream);
      ASSERT_TRUE(drained.is_ok());
      expect_same_trace(*generated, *drained);

      WorkloadOptions by_duration = wl;
      by_duration.target_requests = 0;
      by_duration.duration_s = 0.8;
      auto generated_d = generate_workload(by_duration);
      ASSERT_TRUE(generated_d.is_ok());
      auto stream_d = make_request_stream(by_duration);
      ASSERT_TRUE(stream_d.is_ok());
      auto drained_d = drain_request_stream(**stream_d);
      ASSERT_TRUE(drained_d.is_ok());
      expect_same_trace(*generated_d, *drained_d);
    }
  }
}

/// Count, arrival sum and 64-bit digest of (id, user, branch, arrival bits)
/// over every request `stream` yields until it ends.
struct StreamDigest {
  std::int64_t count = 0;
  double arrival_sum = 0;
  std::uint64_t hash = 0;
};

StreamDigest digest_stream(RequestStream& stream) {
  StreamDigest d;
  util::Hash128 h;
  while (std::optional<Request> r = stream.next()) {
    ++d.count;
    d.arrival_sum += r->arrival_us;
    h.absorb(static_cast<std::uint64_t>(r->id));
    h.absorb(static_cast<std::uint64_t>(r->user));
    h.absorb(static_cast<std::uint64_t>(r->branch));
    h.absorb_double(r->arrival_us);
  }
  d.hash = h.lo ^ h.hi;
  return d;
}

StreamDigest digest_of(const WorkloadOptions& wl,
                       const ScenarioSpec& scenario) {
  auto stream = make_request_stream(wl, scenario);
  EXPECT_TRUE(stream.is_ok());
  if (!stream.is_ok()) return {};
  const StreamDigest d = digest_stream(**stream);
  EXPECT_TRUE((*stream)->finish_status().is_ok());
  return d;
}

void expect_digest(const StreamDigest& got, std::int64_t count,
                   double arrival_sum, std::uint64_t hash) {
  EXPECT_EQ(got.count, count);
  EXPECT_EQ(got.arrival_sum, arrival_sum)
      << std::setprecision(17) << got.arrival_sum;
  EXPECT_EQ(got.hash, hash) << std::hex << "0x" << got.hash;
}

TEST(StreamTest, ShapedStreamsMatchPinnedGoldens) {
  // Pinned output of the thinned generator, independent of the generator
  // itself (the materialized entry points drain this same stream, so only
  // goldens can catch a change in the seeded draw or merge order).
  {
    // perfbench's replay_stream_drift shape: four diurnal periods over the
    // replay span, a 1.5x flash crowd with 4 extra users in each.
    WorkloadOptions wl;
    wl.users = 8;
    wl.branches = 3;
    wl.target_requests = 20000;
    const double span_s = 20000.0 / (8 * 30.0 * 3.0);
    ScenarioSpec drift;
    drift.diurnal.period_s = span_s / 4;
    drift.diurnal.amplitude = 0.6;
    for (int k = 0; k < 4; ++k) {
      const double start = span_s * (0.1 + 0.25 * k);
      drift.flash.push_back({start, start + span_s / 40, 1.5, 4});
    }
    SCOPED_TRACE("drift");
    expect_digest(digest_of(wl, drift), 20000, 225436840423.28546,
                  0xaf0530c36cc0aeb3ULL);
  }
  {
    // Churn alone thins (peak 1) a bursty process; user 4 leaves and
    // rejoins.
    WorkloadOptions wl = stream_workload(6000, 9);
    wl.process = ArrivalProcess::kBursty;
    ScenarioSpec churn;
    churn.churn = {{1, 0.3, 1.2}, {4, 0.0, 0.8}, {4, 1.5, 3.0}};
    SCOPED_TRACE("churn + bursty");
    expect_digest(digest_of(wl, churn), 6000, 49522305556.52565,
                  0x2271594ac9782a68ULL);
  }
  {
    WorkloadOptions wl = stream_workload(0, 3);
    wl.duration_s = 3.0;
    SCOPED_TRACE("duration-bounded");
    expect_digest(digest_of(wl, shaped_scenario()), 2332, 3032470912.0751071,
                  0x9b586b43a50e35cbULL);
  }
}

TEST(StreamTest, UnreachableTargetEndsAtPinnedRequest) {
  // Every user churns out by 1 s, far short of the target: the stream must
  // end after the last accepted event and report why.
  WorkloadOptions wl = stream_workload(100000, 5);
  wl.users = 3;
  ScenarioSpec spec;
  spec.churn = {{0, 0.0, 1.0}, {1, 0.2, 0.9}, {2, 0.0, 0.5}};
  auto stream = make_request_stream(wl, spec);
  ASSERT_TRUE(stream.is_ok());
  expect_digest(digest_stream(**stream), 156, 75841081.865011945,
                0xcc1215c8756a2aaULL);
  const Status status = (*stream)->finish_status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("target_requests unreachable"),
            std::string::npos)
      << status.message();
  EXPECT_FALSE((*stream)->next().has_value()) << "an ended stream stays ended";
}

TEST(StreamTest, ScenarioStreamMatchesScenarioGenerator) {
  WorkloadOptions wl = stream_workload(4000, 11);
  const ScenarioSpec scenario = shaped_scenario();
  auto generated = generate_scenario_workload(wl, scenario);
  ASSERT_TRUE(generated.is_ok());
  auto stream = make_request_stream(wl, scenario);
  ASSERT_TRUE(stream.is_ok());
  auto drained = drain_request_stream(**stream);
  ASSERT_TRUE(drained.is_ok());
  expect_same_trace(*generated, *drained);
}

TEST(StreamTest, StreamingFleetMatchesMaterializedBitForBit) {
  // The tentpole contract: simulate_fleet_stream == simulate_fleet on the
  // same spec, in both latency modes, at several thread counts — compared
  // through the full text serialization, so every field must agree.
  const ServiceModel service = test_service();
  for (LatencyMode mode : {LatencyMode::kExact, LatencyMode::kSketch}) {
    ServeSpec spec;
    spec.workload = stream_workload(20000, 5);
    spec.fleet.instances = 4;
    spec.fleet.shards = 4;
    spec.fleet.latency_mode = mode;
    spec.scenario = shaped_scenario();

    auto trace = generate_scenario_workload(spec.workload, spec.scenario);
    ASSERT_TRUE(trace.is_ok());
    auto materialized = simulate_fleet(service, *trace, spec);
    ASSERT_TRUE(materialized.is_ok());
    const std::string want = stats_text(*materialized);
    // The materialized and stream fingerprints differ by design (one hashes
    // requests, the other generator parameters), but both must derive the
    // same per-request sketch inputs — compare full stats text, which in
    // sketch mode includes the sketch-derived quantiles.
    for (int threads : {1, 2, 8}) {
      spec.fleet.threads = threads;
      auto streamed = simulate_fleet_stream(service, spec);
      ASSERT_TRUE(streamed.is_ok());
      EXPECT_EQ(stats_text(*streamed), want)
          << "mode " << to_string(mode) << " threads " << threads;
      EXPECT_EQ(streamed->latency_mode, mode);
    }
  }
}

TEST(StreamTest, StreamingFleetRecordsMatchMaterializedRecords) {
  // With keep_records on, the stream replay must also emit the materialized
  // replay's per-request records: the same ids in the same order, each on
  // the same instance at the same times.
  const ServiceModel service = test_service();
  ServeSpec spec;
  spec.workload = stream_workload(20000, 5);
  spec.fleet.instances = 4;
  spec.fleet.shards = 4;
  spec.fleet.latency_mode = LatencyMode::kExact;
  spec.fleet.keep_records = true;
  spec.scenario = shaped_scenario();

  auto trace = generate_scenario_workload(spec.workload, spec.scenario);
  ASSERT_TRUE(trace.is_ok());
  auto materialized = simulate_fleet(service, *trace, spec);
  ASSERT_TRUE(materialized.is_ok());
  ASSERT_EQ(materialized->records.size(), trace->size());
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    spec.fleet.threads = threads;
    auto streamed = simulate_fleet_stream(service, spec);
    ASSERT_TRUE(streamed.is_ok());
    ASSERT_EQ(streamed->records.size(), materialized->records.size());
    for (std::size_t i = 0; i < streamed->records.size(); ++i) {
      const RequestRecord& got = streamed->records[i];
      const RequestRecord& want = materialized->records[i];
      ASSERT_EQ(got.id, want.id) << "at " << i;
      ASSERT_EQ(got.user, want.user) << "at " << i;
      ASSERT_EQ(got.branch, want.branch) << "at " << i;
      ASSERT_EQ(got.instance, want.instance) << "at " << i;
      ASSERT_EQ(got.arrival_us, want.arrival_us) << "at " << i;
      ASSERT_EQ(got.start_us, want.start_us) << "at " << i;
      ASSERT_EQ(got.finish_us, want.finish_us) << "at " << i;
    }
    EXPECT_EQ(stats_text(*streamed), stats_text(*materialized));
  }
}

TEST(StreamTest, SketchReplayTracksExactReplayWithinBound) {
  // Cross-check at scale: the sketch-mode replay's p50/p95/p99 within 0.5%
  // of the exact-mode replay on the same million-request workload.
  const ServiceModel service = test_service();
  ServeSpec spec;
  spec.workload = stream_workload(1'000'000, 21);
  spec.workload.users = 16;
  spec.fleet.instances = 8;
  spec.fleet.shards = 8;

  spec.fleet.latency_mode = LatencyMode::kExact;
  auto exact = simulate_fleet_stream(service, spec);
  ASSERT_TRUE(exact.is_ok());
  spec.fleet.latency_mode = LatencyMode::kSketch;
  auto sketch = simulate_fleet_stream(service, spec);
  ASSERT_TRUE(sketch.is_ok());

  EXPECT_EQ(sketch->completed, exact->completed);
  EXPECT_EQ(sketch->latency.max, exact->latency.max) << "max stays exact";
  // The sketch sum is fixed point (2^-24 us units), so its mean can differ
  // from the exact double-accumulated mean by rounding dust only.
  EXPECT_NEAR(sketch->latency.mean, exact->latency.mean,
              1e-6 * std::abs(exact->latency.mean) + 1e-6)
      << "mean stays exact to within fixed-point rounding";
  const std::vector<std::pair<double, double>> pairs = {
      {sketch->latency.p50, exact->latency.p50},
      {sketch->latency.p95, exact->latency.p95},
      {sketch->latency.p99, exact->latency.p99},
      {sketch->queue_wait.p99, exact->queue_wait.p99}};
  for (const auto& [approx, want] : pairs) {
    ASSERT_GT(want, 0);
    EXPECT_LE(std::abs(approx - want) / want, 0.005)
        << "sketch " << approx << " vs exact " << want;
  }
  EXPECT_EQ(sketch->sketch_compactions, 0);
  EXPECT_GT(sketch->sketch_buckets, 0);
}

TEST(StreamTest, SketchReplayProgressTicksArePinned) {
  // A sketch-mode streaming replay with a listener: in-loop ticks carry the
  // emitting shard's sketch quantile, the terminal tick the merged one.
  const ServiceModel service = test_service();
  ServeSpec spec;
  spec.workload = stream_workload(3000, 21);
  spec.fleet.instances = 4;
  spec.fleet.shards = 2;
  spec.fleet.threads = 1;
  spec.fleet.latency_mode = LatencyMode::kSketch;
  util::RunControl control;
  std::vector<util::ProgressEvent> events;
  control.on_progress = [&](const util::ProgressEvent& event) {
    events.push_back(event);
  };
  const util::RunScope scope(control);
  auto stats = simulate_fleet_stream(service, spec, &scope);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(events.back().best_fitness, stats->latency.p99);
  expect_fleet_ticks(events, {{150, 3000, 9595.0493941596123},
                              {300, 3000, 9537.65144470417},
                              {450, 3000, 9537.65144470417},
                              {600, 3000, 9537.65144470417},
                              {750, 3000, 9518.5951980614045},
                              {900, 3000, 9480.5968519597081},
                              {1050, 3000, 9537.65144470417},
                              {1201, 3000, 9595.0493941596123},
                              {1350, 3000, 9537.65144470417},
                              {1501, 3000, 9382.8276730108919},
                              {1650, 3000, 9769.3241083806133},
                              {1800, 3000, 9652.7927666597952},
                              {1950, 3000, 9769.3241083806133},
                              {2100, 3000, 9749.8049792929414},
                              {2251, 3000, 9847.7921811988799},
                              {2400, 3000, 9788.8823148037973},
                              {2550, 3000, 9788.8823148037973},
                              {2700, 3000, 9788.8823148037973},
                              {2852, 3000, 9788.8823148037973},
                              {3000, 3000, 9769.3241083806133},
                              {3000, 3000, 9672.1176771035571}});
}

TEST(StreamTest, ProcessShardedCheckpointsMergeToSingleProcessResult) {
  // One checkpoint format carries either latency mode: exact blocks hold the
  // raw latency/wait pages and records, sketch blocks the two sketches.
  const ServiceModel service = test_service();
  for (LatencyMode mode : {LatencyMode::kExact, LatencyMode::kSketch}) {
    SCOPED_TRACE(to_string(mode));
    ScratchFile p0("merge_p0.ckpt");
    ScratchFile p1("merge_p1.ckpt");
    ServeSpec spec;
    spec.workload = stream_workload(30000, 13);
    spec.fleet.instances = 4;
    spec.fleet.shards = 4;
    spec.fleet.latency_mode = mode;
    spec.fleet.keep_records = mode == LatencyMode::kExact;

    ServeSpec single = spec;
    auto want = simulate_fleet_stream(service, single);
    ASSERT_TRUE(want.is_ok());

    spec.fleet.process_count = 2;
    spec.fleet.process_index = 0;
    spec.fleet.checkpoint_path = p0.path();
    auto part0 = simulate_fleet_stream(service, spec);
    ASSERT_TRUE(part0.is_ok());
    spec.fleet.process_index = 1;
    spec.fleet.checkpoint_path = p1.path();
    auto part1 = simulate_fleet_stream(service, spec);
    ASSERT_TRUE(part1.is_ok());
    // Each process reports only its owned shards.
    EXPECT_EQ(part0->offered + part1->offered, want->offered);

    ServeSpec merge_spec = single;
    auto merged =
        merge_replay_checkpoints(service, merge_spec, {p0.path(), p1.path()});
    ASSERT_TRUE(merged.is_ok());
    ServingStats expect = *want;
    expect.resumed_shards = merged->resumed_shards;  // provenance, not results
    EXPECT_EQ(stats_text(*merged), stats_text(expect));

    // Merge order must not matter: shards land in their own slots, and
    // sketch merges are associative.
    auto merged_rev =
        merge_replay_checkpoints(service, merge_spec, {p1.path(), p0.path()});
    ASSERT_TRUE(merged_rev.is_ok());
    EXPECT_EQ(stats_text(*merged_rev), stats_text(*merged));
  }
}

/// Raw bytes of `path`.
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The checkpoint at `path` re-headed as one of the retired formats: the
/// text v1 magic line, or the binary v2 magic and version word. Everything
/// after the header is a genuine current body, so only the header can be
/// what rejects it.
std::string retired_format_bytes(const std::string& path, bool text_v1) {
  const std::string body = file_bytes(path);
  if (text_v1) return "fcad-fleet-checkpoint v1\n" + body.substr(8);
  std::string v2 = body;
  v2.replace(0, 8, "FCADFLT2");
  v2[8] = 2;  // little-endian u32 version word
  return v2;
}

TEST(StreamTest, MergeIsStrictAboutBadInputs) {
  const ServiceModel service = test_service();
  for (LatencyMode mode : {LatencyMode::kExact, LatencyMode::kSketch}) {
    SCOPED_TRACE(to_string(mode));
    ScratchFile p0("strict_p0.ckpt");
    ScratchFile p1("strict_p1.ckpt");
    ScratchFile bad("strict_bad.ckpt");
    ServeSpec spec;
    spec.workload = stream_workload(8000, 17);
    spec.fleet.instances = 4;
    spec.fleet.shards = 4;
    spec.fleet.latency_mode = mode;

    ServeSpec run = spec;
    run.fleet.process_count = 2;
    run.fleet.process_index = 0;
    run.fleet.checkpoint_path = p0.path();
    ASSERT_TRUE(simulate_fleet_stream(service, run).is_ok());
    run.fleet.process_index = 1;
    run.fleet.checkpoint_path = p1.path();
    ASSERT_TRUE(simulate_fleet_stream(service, run).is_ok());
    ASSERT_TRUE(
        merge_replay_checkpoints(service, spec, {p0.path(), p1.path()})
            .is_ok());

    // Missing shard range: only half the fleet is covered.
    auto missing = merge_replay_checkpoints(service, spec, {p0.path()});
    EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
    // Overlap: the same range twice.
    auto overlap =
        merge_replay_checkpoints(service, spec, {p0.path(), p0.path()});
    EXPECT_EQ(overlap.status().code(), StatusCode::kInvalidArgument);
    // Torn file: a truncated copy must be rejected, never partially applied.
    const std::string bytes = file_bytes(p1.path());
    write_bytes(bad.path(), bytes.substr(0, bytes.size() * 2 / 3));
    auto torn_merge =
        merge_replay_checkpoints(service, spec, {p0.path(), bad.path()});
    EXPECT_EQ(torn_merge.status().code(), StatusCode::kInvalidArgument);
    // Retired formats are caches, not archives: never merged.
    for (bool text_v1 : {true, false}) {
      write_bytes(bad.path(), retired_format_bytes(p1.path(), text_v1));
      auto retired =
          merge_replay_checkpoints(service, spec, {p0.path(), bad.path()});
      EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument)
          << (text_v1 ? "text v1" : "binary v2");
    }
    // Stale/foreign: a checkpoint from a different seed never merges.
    ServeSpec other = spec;
    other.workload.seed = 99;
    auto stale =
        merge_replay_checkpoints(service, other, {p0.path(), p1.path()});
    EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StreamTest, BinaryCheckpointResumesAndRejectsTamperedFiles) {
  const ServiceModel service = test_service();
  for (LatencyMode mode : {LatencyMode::kExact, LatencyMode::kSketch}) {
    SCOPED_TRACE(to_string(mode));
    ScratchFile ckpt("resume.ckpt");
    ServeSpec spec;
    spec.workload = stream_workload(10000, 23);
    spec.fleet.instances = 4;
    spec.fleet.shards = 4;
    spec.fleet.latency_mode = mode;
    // Exact mode keeps the per-request records, so the record pages must
    // round-trip through the resumed shards too (stats_text includes them).
    spec.fleet.keep_records = mode == LatencyMode::kExact;

    auto fresh = simulate_fleet_stream(service, spec);
    ASSERT_TRUE(fresh.is_ok());
    if (spec.fleet.keep_records) {
      EXPECT_EQ(static_cast<std::int64_t>(fresh->records.size()),
                fresh->completed);
    }

    // A half-fleet process run leaves a resumable checkpoint; the full run
    // resumes those shards and still matches the uninterrupted result.
    ServeSpec half = spec;
    half.fleet.process_count = 2;
    half.fleet.process_index = 0;
    half.fleet.checkpoint_path = ckpt.path();
    ASSERT_TRUE(simulate_fleet_stream(service, half).is_ok());
    const std::string half_bytes = file_bytes(ckpt.path());
    ServeSpec resume = spec;
    resume.fleet.checkpoint_path = ckpt.path();
    auto resumed = simulate_fleet_stream(service, resume);
    ASSERT_TRUE(resumed.is_ok());
    EXPECT_EQ(resumed->resumed_shards, 2);
    ServingStats want = *fresh;
    want.resumed_shards = resumed->resumed_shards;
    EXPECT_EQ(stats_text(*resumed), stats_text(want));

    // Truncate the file: a torn checkpoint restarts (resumes nothing) and
    // still converges to the same stats.
    const std::string bytes = file_bytes(ckpt.path());
    write_bytes(ckpt.path(), bytes.substr(0, bytes.size() / 2));
    auto after_torn = simulate_fleet_stream(service, resume);
    ASSERT_TRUE(after_torn.is_ok());
    EXPECT_EQ(after_torn->resumed_shards, 0);
    want.resumed_shards = 0;
    EXPECT_EQ(stats_text(*after_torn), stats_text(want));

    // Retired formats are ignored on resume, never misread.
    for (bool text_v1 : {true, false}) {
      write_bytes(ckpt.path(), half_bytes);
      write_bytes(ckpt.path(), retired_format_bytes(ckpt.path(), text_v1));
      auto retired = simulate_fleet_stream(service, resume);
      ASSERT_TRUE(retired.is_ok());
      EXPECT_EQ(retired->resumed_shards, 0)
          << (text_v1 ? "text v1" : "binary v2");
      EXPECT_EQ(stats_text(*retired), stats_text(want));
    }

    // A different replay's checkpoint (stale fingerprint) is ignored, never
    // misapplied.
    ServeSpec other = spec;
    other.workload.seed = 77;
    other.fleet.checkpoint_path = ckpt.path();
    ASSERT_TRUE(simulate_fleet_stream(service, other).is_ok());
    auto mismatched = simulate_fleet_stream(service, resume);
    ASSERT_TRUE(mismatched.is_ok());
    EXPECT_EQ(mismatched->resumed_shards, 0);
    EXPECT_EQ(stats_text(*mismatched), stats_text(want));
  }
}

TEST(StreamTest, UnsortedTraceReplaysIdenticallyToSortedTrace) {
  // The single-pass partition keeps per-shard relative order; a shuffled
  // trace must replay to bit-identical stats as its sorted twin.
  const ServiceModel service = test_service();
  WorkloadOptions wl = stream_workload(5000, 31);
  auto trace = generate_workload(wl);
  ASSERT_TRUE(trace.is_ok());
  std::vector<Request> shuffled = *trace;
  std::mt19937_64 rng(4242);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  ServeSpec spec;
  spec.fleet.instances = 4;
  spec.fleet.shards = 4;
  auto sorted_stats = simulate_fleet(service, *trace, spec);
  ASSERT_TRUE(sorted_stats.is_ok());
  auto shuffled_stats = simulate_fleet(service, shuffled, spec);
  ASSERT_TRUE(shuffled_stats.is_ok());
  EXPECT_EQ(stats_text(*shuffled_stats), stats_text(*sorted_stats));
}

TEST(StreamTest, StreamPathRejectsInvalidSpecs) {
  const ServiceModel service = test_service();
  ServeSpec spec;
  spec.workload = stream_workload(1000, 3);
  spec.fleet.instances = 2;
  spec.fleet.shards = 2;

  ServeSpec no_target = spec;
  no_target.workload.target_requests = 0;
  EXPECT_EQ(simulate_fleet_stream(service, no_target).status().code(),
            StatusCode::kInvalidArgument);

  ServeSpec records = spec;
  records.fleet.latency_mode = LatencyMode::kSketch;
  records.fleet.keep_records = true;
  EXPECT_EQ(simulate_fleet_stream(service, records).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(simulate_fleet(service, {}, records).status().code(),
            StatusCode::kInvalidArgument);

  ServeSpec no_ckpt = spec;
  no_ckpt.fleet.process_count = 2;
  EXPECT_EQ(simulate_fleet_stream(service, no_ckpt).status().code(),
            StatusCode::kInvalidArgument);

  ServeSpec bad_range = spec;
  bad_range.fleet.process_count = 2;
  bad_range.fleet.process_index = 2;
  bad_range.fleet.checkpoint_path = "unused.ckpt";
  EXPECT_EQ(simulate_fleet_stream(service, bad_range).status().code(),
            StatusCode::kInvalidArgument);

  // The materialized path refuses process sharding outright.
  ServeSpec not_stream = spec;
  not_stream.fleet.process_count = 2;
  not_stream.fleet.checkpoint_path = "unused.ckpt";
  EXPECT_EQ(simulate_fleet(service, {}, not_stream).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fcad::serving
