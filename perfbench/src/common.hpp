// Shared pieces of the F-CAD benchmark driver: wall-clock helpers, the run
// arguments, the decoder model build every workload's set-up starts from,
// the in-memory span log of the traced pass, and the result each workload
// hands back to main() for printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/reorg.hpp"
#include "util/status.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by this process so far (all threads), nanoseconds.
std::int64_t process_cpu_ns();

/// SplitMix64 finalizer: derives per-job input seeds from the run seed, so a
/// fixed --seed reproduces every job's inputs and jobs stay decorrelated.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Nearest-rank percentile of `values` (pct in (0, 100]); 0 when empty.
double percentile(std::vector<double> values, double pct);

double median(std::vector<double> values);

/// Process peak resident set (VmHWM) in MiB; 0 when unavailable.
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What one workload run reports: operations attempted, failures (failed
/// operations plus failed correctness checks, one message each), its metric
/// values by name — the end-to-end set on an untraced run, the per-layer set
/// on a traced run — and run context printed beside them.
struct RunResult {
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> context;

  void fail(std::string message) { failures.push_back(std::move(message)); }
};

/// Fills the end-to-end metrics of an untraced run from its per-job host
/// times (2nd percentile and mean per item) and set-up time. Host load on a
/// shared machine comes in phases of seconds that slow every job in them,
/// so the job-time distribution is a mix of a fast and a slow mode whose
/// weights change from run to run: a quantile near the fast end stays put,
/// while the median and p90 can jump between the modes. Those go to the run
/// context with the p10, ungated.
void add_job_metrics(const std::vector<double>& job_ms, double setup_s,
                     double items_per_job, RunResult& result);

/// The Table-I avatar decoder, profiled, fused and reorganized, with the
/// host time the profile and the fuse + reorganize steps took.
struct DecoderModel {
  fcad::arch::ReorganizedModel model;
  double profile_ms = 0;
  double reorganize_ms = 0;
};

fcad::StatusOr<DecoderModel> build_decoder_model();

/// Runs `job(i)` for i = 0, 1, ... until `budget_s` seconds have passed and
/// at least `min_jobs` ran; returns the number of jobs run. Between jobs it
/// also calls `setup()` until `setups` calls were made, spread evenly over
/// the budget: host speed drifts over seconds, so set-ups timed back to back
/// would all sample one phase of it.
template <typename Job, typename Setup>
int run_for(double budget_s, int min_jobs, Job&& job, int setups,
            Setup&& setup) {
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  int jobs = 0;
  int setups_done = 0;
  while (jobs < min_jobs || now_ns() - start < budget_ns) {
    job(jobs++);
    while (setups_done < setups &&
           now_ns() - start >= budget_ns / setups * setups_done) {
      setup();
      ++setups_done;
    }
  }
  while (setups_done++ < setups) setup();
  return jobs;
}

/// Spans recorded by the traced pass. A span is a named interval with a
/// parent and a job id. Calls made once per request or per event-loop
/// iteration are folded into one span per (parent, name): `calls` counts the
/// folded calls and `total_ns` sums their durations, which keeps the log
/// O(jobs x layers) instead of O(requests). For an ordinary span `calls` is
/// 1 and `total_ns == end_ns - start_ns`.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span starting now; returns its id.
  int open(const std::string& name, int parent, std::int64_t job);
  /// Closes span `id` now.
  void close(int id);
  /// Records `calls` folded calls totalling `total_ns`, observed between
  /// start_ns and end_ns.
  int fold(const std::string& name, int parent, std::int64_t job,
           std::int64_t start_ns, std::int64_t end_ns, std::int64_t total_ns,
           std::int64_t calls);

  /// Summed total_ns and calls over every span named `name`.
  std::int64_t total_ns(const std::string& name) const;
  std::int64_t calls(const std::string& name) const;
  /// Summed self time of spans named `name`: each span's total minus the
  /// totals of its direct children.
  std::int64_t self_ns(const std::string& name) const;

  /// Writes every span plus per-name total/self/calls as JSON.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    int name = 0;
    int parent = kNoParent;
    std::int64_t job = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t total_ns = 0;
    std::int64_t calls = 1;
  };

  int intern(const std::string& name);
  std::vector<std::int64_t> child_totals() const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

RunResult run_replay_batched_sla(const Args& args);
RunResult run_replay_stream_drift(const Args& args);
RunResult run_dse_table1(const Args& args);

}  // namespace perfbench
