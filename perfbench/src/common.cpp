#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/profile.hpp"
#include "arch/fusion.hpp"
#include "nn/zoo/avatar_decoder.hpp"

namespace perfbench {

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  const auto n = values.size();
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n))),
      1, n);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

void add_job_metrics(const std::vector<double>& job_ms, double setup_s,
                     double items_per_job, RunResult& result) {
  double total_ms = 0;
  for (double ms : job_ms) total_ms += ms;
  result.metrics["setup_s"] = setup_s;
  result.metrics["job_ms_p2"] = percentile(job_ms, 2);
  result.metrics["ns_per_item"] =
      total_ms * 1e6 / (items_per_job * static_cast<double>(job_ms.size()));
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  for (int pct : {10, 50, 90}) {
    result.context["job_ms_p" + std::to_string(pct)] =
        std::to_string(percentile(job_ms, pct));
  }
}

fcad::StatusOr<DecoderModel> build_decoder_model() {
  using namespace fcad;
  const nn::Graph graph = nn::zoo::avatar_decoder();
  DecoderModel out;
  const std::int64_t t0 = now_ns();
  const analysis::GraphProfile profile = analysis::profile_graph(graph);
  const std::int64_t t1 = now_ns();
  auto fused = arch::fuse(graph, profile);
  if (!fused.is_ok()) return fused.status();
  auto model = arch::reorganize(std::move(fused).value());
  if (!model.is_ok()) return model.status();
  const std::int64_t t2 = now_ns();
  // The same output roles arch::reorganize(graph) attaches.
  for (std::size_t b = 0; b < model->branches.size(); ++b) {
    model->branches[b].role =
        graph.layer(graph.output_ids()[b]).output().role;
  }
  out.model = std::move(model).value();
  out.profile_ms = static_cast<double>(t1 - t0) * 1e-6;
  out.reorganize_ms = static_cast<double>(t2 - t1) * 1e-6;
  return out;
}

// ----------------------------------------------------------------- spans --

int SpanLog::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanLog::open(const std::string& name, int parent, std::int64_t job) {
  const std::int64_t t = now_ns();
  return fold(name, parent, job, t, t, 0, 1);
}

void SpanLog::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  span.total_ns = span.end_ns - span.start_ns;
}

int SpanLog::fold(const std::string& name, int parent, std::int64_t job,
                  std::int64_t start_ns, std::int64_t end_ns,
                  std::int64_t total_ns, std::int64_t calls) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.job = job;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.total_ns = total_ns;
  span.calls = calls;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t SpanLog::total_ns(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& span : spans_) {
    if (names_[static_cast<std::size_t>(span.name)] == name) {
      sum += span.total_ns;
    }
  }
  return sum;
}

std::int64_t SpanLog::calls(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& span : spans_) {
    if (names_[static_cast<std::size_t>(span.name)] == name) sum += span.calls;
  }
  return sum;
}

std::vector<std::int64_t> SpanLog::child_totals() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      covered[static_cast<std::size_t>(span.parent)] += span.total_ns;
    }
  }
  return covered;
}

std::int64_t SpanLog::self_ns(const std::string& name) const {
  const std::vector<std::int64_t> covered = child_totals();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[static_cast<std::size_t>(spans_[i].name)] == name) {
      sum += spans_[i].total_ns - covered[i];
    }
  }
  return sum;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> covered = child_totals();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"job\": %lld, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"total_ns\": %lld, \"self_ns\": %lld, \"calls\": %lld}\n",
                 i == 0 ? "" : ",", i,
                 names_[static_cast<std::size_t>(s.name)].c_str(), s.parent,
                 static_cast<long long>(s.job),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.total_ns),
                 static_cast<long long>(s.total_ns - covered[i]),
                 static_cast<long long>(s.calls));
  }
  std::fprintf(f, "], \"by_name\": {\n");
  for (std::size_t n = 0; n < names_.size(); ++n) {
    std::fprintf(f,
                 "%s\"%s\": {\"total_ns\": %lld, \"self_ns\": %lld, "
                 "\"calls\": %lld}\n",
                 n == 0 ? "" : ",", names_[n].c_str(),
                 static_cast<long long>(total_ns(names_[n])),
                 static_cast<long long>(self_ns(names_[n])),
                 static_cast<long long>(calls(names_[n])));
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
