#include "core/pipeline.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/profile.hpp"
#include "arch/config_io.hpp"
#include "arch/datapath.hpp"
#include "dse/spec_hash.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serving/stats.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace fcad::core {
namespace {

/// Wall-clock lane for pipeline-stage spans; shares the DSE process row so
/// stages nest visually around the strategy rounds they drive.
obs::LaneId pipeline_lane(obs::Tracer* tracer) {
  const int worker = util::ThreadPool::current_worker();
  const obs::LaneId lane{obs::kDsePid, worker};
  if (tracer != nullptr) {
    tracer->name_lane(lane, "dse (wall clock)",
                      worker == 0 ? "driver"
                                  : "worker " + std::to_string(worker));
  }
  return lane;
}

// v3 embedded the kTraffic serving stats (serving_stats_to_text) so traffic
// outcomes round-trip whole and qualify for the spec-hash artifact cache.
// v4 keys sweep_point lines by canonical datapath name and adds the point's
// batch scale (joint precision x microarchitecture x batch sweeps). v5
// drops the wall-clock `seconds` of each result and the convergence line's
// `mean_seconds`, so one spec always saves the same bytes. Older files are
// rejected like any other stale magic and simply re-searched.
constexpr const char* kArtifactMagic = "fcad-search-artifact v5";

std::string format_double(double value) { return format_exact(value); }

StatusOr<dse::SearchKind> search_kind_by_name(const std::string& name) {
  for (dse::SearchKind kind :
       {dse::SearchKind::kOptimize, dse::SearchKind::kTraffic,
        dse::SearchKind::kMaxBatch, dse::SearchKind::kSweep,
        dse::SearchKind::kConvergence}) {
    if (name == dse::to_string(kind)) return kind;
  }
  return Status::invalid_argument("search artifact: unknown kind '" + name +
                                  "'");
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

void write_doubles(std::ostringstream& os, const char* key,
                   const std::vector<double>& values) {
  os << key << " " << values.size();
  for (double v : values) os << " " << format_double(v);
  os << "\n";
}

/// One search result as key/value stats plus the line-counted config block
/// (arch/config_io format). Shared by the winner and every sweep point. A
/// result truncated before its first evaluation (cancelled run) has no
/// configuration and serializes `config 0`. The fitness-cache hit/miss
/// counters and the wall-clock `seconds` are diagnostics of the producing
/// run and are not round-tripped.
void write_search_block(std::ostringstream& os, const ReorgArtifact& reorg,
                        const dse::SearchResult& result) {
  os << "fitness " << format_double(result.fitness) << "\n";
  os << "feasible " << (result.feasible ? 1 : 0) << "\n";
  os << "stopped_early " << (result.stopped_early ? 1 : 0) << "\n";
  os << "evaluations " << result.trace.evaluations << "\n";
  os << "convergence_iteration " << result.trace.convergence_iteration
     << "\n";
  write_doubles(os, "best_fitness", result.trace.best_fitness);
  write_doubles(os, "c_frac", result.distribution.c_frac);
  write_doubles(os, "m_frac", result.distribution.m_frac);
  write_doubles(os, "bw_frac", result.distribution.bw_frac);
  const std::string config =
      result.config.branches.empty()
          ? std::string()
          : arch::config_to_text(reorg.model, result.config);
  os << "config " << count_lines(config) << "\n";
  os << config;
}

/// Parses the block written by write_search_block. The configuration is
/// re-evaluated under the quantized model — the same view the search reports
/// its winner with — so a loaded result is immediately usable for reports,
/// serving models, and simulation.
StatusOr<dse::SearchResult> parse_search_block(const ReorgArtifact& reorg,
                                               std::istream& in) {
  dse::SearchResult result;
  std::string line;
  auto read_doubles = [](std::istringstream& fields, const std::string& count,
                         std::vector<double>& out) {
    const long n = std::strtol(count.c_str(), nullptr, 10);
    out.clear();
    for (long i = 0; i < n; ++i) {
      double v = 0;
      fields >> v;
      if (fields.fail()) return false;
      out.push_back(v);
    }
    return true;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    std::string value;
    fields >> value;
    if (fields.fail()) {
      return Status::invalid_argument(
          "search artifact: result field '" + key + "' has no value");
    }
    if (key == "best_fitness" || key == "c_frac" || key == "m_frac" ||
        key == "bw_frac") {
      std::vector<double>& target =
          key == "best_fitness" ? result.trace.best_fitness
          : key == "c_frac"     ? result.distribution.c_frac
          : key == "m_frac"     ? result.distribution.m_frac
                                : result.distribution.bw_frac;
      if (!read_doubles(fields, value, target)) {
        return Status::invalid_argument("search artifact: malformed " + key +
                                        " line");
      }
    } else if (key == "fitness") {
      result.fitness = std::strtod(value.c_str(), nullptr);
    } else if (key == "feasible") {
      result.feasible = value == "1";
    } else if (key == "stopped_early") {
      result.stopped_early = value == "1";
    } else if (key == "evaluations") {
      result.trace.evaluations = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "convergence_iteration") {
      result.trace.convergence_iteration =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (key == "config") {
      const long lines = std::strtol(value.c_str(), nullptr, 10);
      if (lines < 0) {
        return Status::invalid_argument(
            "search artifact: bad config line count");
      }
      if (lines == 0) return result;  // no winning config (cancelled run)
      std::ostringstream config_text;
      for (long i = 0; i < lines; ++i) {
        if (!std::getline(in, line)) {
          return Status::invalid_argument(
              "search artifact: truncated config block");
        }
        config_text << line << "\n";
      }
      auto config = arch::config_from_text(reorg.model, config_text.str());
      if (!config.is_ok()) return config.status();
      result.config = std::move(config).value();
      result.eval = arch::evaluate(reorg.model, result.config,
                                   arch::EvalMode::kQuantized);
      return result;
    } else {
      return Status::invalid_argument(
          "search artifact: unknown result field '" + key + "'");
    }
  }
  return Status::invalid_argument("search artifact: missing config section");
}

}  // namespace

const dse::SearchResult& SearchArtifact::best() const {
  return outcome.kind == dse::SearchKind::kTraffic ? outcome.traffic.search
                                                   : outcome.search;
}

std::string search_artifact_to_text(const ReorgArtifact& reorg,
                                    const SearchArtifact& artifact) {
  const dse::SearchOutcome& outcome = artifact.outcome;
  std::ostringstream os;
  os << kArtifactMagic << "\n";
  os << "kind " << dse::to_string(outcome.kind) << "\n";
  os << "cancelled " << (outcome.cancelled ? 1 : 0) << "\n";
  if (outcome.kind == dse::SearchKind::kMaxBatch) {
    os << "max_batch " << outcome.max_batch << "\n";
  }
  if (outcome.kind == dse::SearchKind::kConvergence) {
    const dse::ConvergenceStats& stats = outcome.convergence;
    os << "convergence " << stats.runs << " "
       << format_double(stats.mean_iterations) << " "
       << format_double(stats.min_iterations) << " "
       << format_double(stats.max_iterations) << " "
       << format_double(stats.mean_fitness) << " "
       << format_double(stats.fitness_spread) << "\n";
  }
  // kSweep/kConvergence outcomes have no winner slot of their own; every
  // other kind writes its winning search (possibly config-less when the run
  // was cancelled before the first evaluation).
  if (outcome.kind != dse::SearchKind::kSweep &&
      outcome.kind != dse::SearchKind::kConvergence) {
    os << "result\n";
    write_search_block(os, reorg, artifact.best());
  }
  if (outcome.kind == dse::SearchKind::kTraffic) {
    const dse::TrafficSearchResult& traffic = outcome.traffic;
    os << "traffic_users_served " << traffic.users_served << "\n";
    os << "traffic_sla_met " << (traffic.sla_met ? 1 : 0) << "\n";
    os << "traffic_sla_fitness " << format_double(traffic.sla_fitness)
       << "\n";
    os << "batch_sizes " << traffic.batch_sizes.size();
    for (int b : traffic.batch_sizes) os << " " << b;
    os << "\n";
    serving::serving_stats_to_text(os, traffic.stats);
  }
  for (const dse::SweepPoint& point : outcome.sweep) {
    os << "sweep_point " << point.datapath << " "
       << format_double(point.freq_mhz) << " " << point.batch_scale << " "
       << (point.pareto_optimal ? 1 : 0) << "\n";
    write_search_block(os, reorg, point.result);
  }
  // Terminal marker: a torn or short-written file (crashed writer, full
  // disk) must parse as truncated, never as a shorter-but-valid artifact.
  os << "end\n";
  return os.str();
}

StatusOr<SearchArtifact> search_artifact_from_text(const ReorgArtifact& reorg,
                                                   const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kArtifactMagic) {
    return Status::invalid_argument(
        "search artifact: missing '" + std::string(kArtifactMagic) +
        "' header");
  }

  SearchArtifact artifact;
  bool saw_kind = false;
  bool saw_result = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
      break;
    }
    if (key == "kind") {
      std::string value;
      fields >> value;
      auto kind = search_kind_by_name(value);
      if (!kind.is_ok()) return kind.status();
      artifact.outcome.kind = *kind;
      saw_kind = true;
    } else if (key == "cancelled") {
      std::string value;
      fields >> value;
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed cancelled line");
      }
      artifact.outcome.cancelled = value == "1";
    } else if (key == "max_batch") {
      fields >> artifact.outcome.max_batch;
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed max_batch line");
      }
    } else if (key == "convergence") {
      dse::ConvergenceStats& stats = artifact.outcome.convergence;
      fields >> stats.runs >> stats.mean_iterations >> stats.min_iterations >>
          stats.max_iterations >> stats.mean_fitness >> stats.fitness_spread;
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed convergence line");
      }
    } else if (key == "result") {
      auto result = parse_search_block(reorg, in);
      if (!result.is_ok()) return result.status();
      if (artifact.outcome.kind == dse::SearchKind::kTraffic) {
        artifact.outcome.traffic.search = std::move(result).value();
      } else {
        artifact.outcome.search = std::move(result).value();
      }
      saw_result = true;
    } else if (key == "traffic_users_served") {
      fields >> artifact.outcome.traffic.users_served;
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed traffic_users_served line");
      }
    } else if (key == "traffic_sla_met") {
      std::string value;
      fields >> value;
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed traffic_sla_met line");
      }
      artifact.outcome.traffic.sla_met = value == "1";
    } else if (key == "traffic_sla_fitness") {
      fields >> artifact.outcome.traffic.sla_fitness;
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed traffic_sla_fitness line");
      }
    } else if (key == "batch_sizes") {
      std::size_t n = 0;
      fields >> n;
      std::vector<int>& sizes = artifact.outcome.traffic.batch_sizes;
      sizes.clear();
      for (std::size_t i = 0; i < n && !fields.fail(); ++i) {
        int b = 0;
        fields >> b;
        sizes.push_back(b);
      }
      if (fields.fail()) {
        return Status::invalid_argument(
            "search artifact: malformed batch_sizes line");
      }
    } else if (key == "serving_stats") {
      auto stats =
          serving::serving_stats_from_text(in, /*header_consumed=*/true);
      if (!stats.is_ok()) return stats.status();
      artifact.outcome.traffic.stats = std::move(stats).value();
    } else if (key == "sweep_point") {
      dse::SweepPoint point;
      std::string pareto;
      fields >> point.datapath >> point.freq_mhz >> point.batch_scale >>
          pareto;
      if (fields.fail() || point.batch_scale < 1) {
        return Status::invalid_argument(
            "search artifact: malformed sweep_point line");
      }
      if (auto dp = arch::datapath_from_string(point.datapath);
          !dp.is_ok()) {
        return Status::invalid_argument("search artifact: " +
                                        dp.status().message());
      }
      point.pareto_optimal = pareto == "1";
      auto result = parse_search_block(reorg, in);
      if (!result.is_ok()) return result.status();
      point.result = std::move(result).value();
      artifact.outcome.sweep.push_back(std::move(point));
    } else {
      return Status::invalid_argument("search artifact: unknown field '" +
                                      key + "'");
    }
  }
  if (!saw_kind) {
    return Status::invalid_argument("search artifact: missing kind");
  }
  if (!saw_end) {
    return Status::invalid_argument(
        "search artifact: truncated (missing end marker)");
  }
  const bool needs_winner =
      artifact.outcome.kind != dse::SearchKind::kConvergence &&
      artifact.outcome.kind != dse::SearchKind::kSweep;
  if (needs_winner && !saw_result) {
    return Status::invalid_argument("search artifact: missing result block");
  }
  return artifact;
}

Status Pipeline::analyze() {
  if (profile_) return Status::ok();
  obs::Tracer* const tracer = obs::tracer();
  const obs::WallSpan span(tracer, pipeline_lane(tracer), "pipeline.analyze",
                           "pipeline");
  ProfileArtifact artifact;
  artifact.profile = analysis::profile_graph(graph_);
  auto decomposition = analysis::decompose(graph_, artifact.profile);
  if (!decomposition.is_ok()) return decomposition.status();
  artifact.decomposition = std::move(decomposition).value();
  profile_ = std::move(artifact);
  return Status::ok();
}

Status Pipeline::construct() {
  if (reorg_) return Status::ok();
  if (Status s = analyze(); !s.is_ok()) return s;
  obs::Tracer* const tracer = obs::tracer();
  const obs::WallSpan span(tracer, pipeline_lane(tracer),
                           "pipeline.construct", "pipeline");
  auto model = arch::reorganize(graph_);
  if (!model.is_ok()) return model.status();
  reorg_ = ReorgArtifact{std::move(model).value()};
  return Status::ok();
}

std::string Pipeline::artifact_cache_key(const dse::SearchSpec& spec) const {
  // A deadline makes results timing-dependent and must not be cached.
  // kTraffic qualifies since artifact v3: the serving stats serialize with
  // the outcome, so a traffic run reloads whole.
  if (spec.control.deadline_s > 0) return "";
  // The graph and platform are fixed for the pipeline's lifetime; their
  // digest (which serializes the whole graph) is computed once.
  if (model_digest_.empty()) {
    util::Hash128 model;
    model.absorb_string(nn::to_text(graph_));
    model.absorb_string(platform_.name);
    model.absorb(static_cast<std::uint64_t>(platform_.dsps));
    model.absorb(static_cast<std::uint64_t>(platform_.brams18k));
    model.absorb_double(platform_.bw_gbps);
    model.absorb_double(platform_.freq_mhz);
    model.absorb(static_cast<std::uint64_t>(platform_.is_asic));
    model_digest_ = model.hex();
  }
  util::Hash128 h = dse::spec_hash(spec);
  h.absorb_string(model_digest_);
  return h.hex();
}

Status Pipeline::optimize(const dse::SearchSpec& spec) {
  if (Status s = construct(); !s.is_ok()) return s;
  obs::Tracer* const tracer = obs::tracer();
  const obs::LaneId lane = pipeline_lane(tracer);
  const obs::WallSpan span(tracer, lane, "pipeline.optimize", "pipeline");

  const std::string key =
      artifact_cache_dir_.empty() ? "" : artifact_cache_key(spec);
  const std::filesystem::path cache_path =
      key.empty() ? std::filesystem::path{}
                  : std::filesystem::path(artifact_cache_dir_) /
                        (key + ".artifact");
  if (!key.empty()) {
    const obs::WallSpan probe_span(tracer, lane, "artifact cache probe",
                                   "pipeline");
    std::ifstream in(cache_path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      auto artifact = search_artifact_from_text(*reorg_, buffer.str());
      if (artifact.is_ok() && artifact->outcome.kind == spec.kind) {
        ++artifact_cache_hits_;
        obs::MetricsRegistry::global()
            .counter("core.pipeline.artifact_cache.hits")
            .add(1);
        FCAD_LOG(kInfo) << "artifact cache hit: " << cache_path.string();
        search_ = std::move(artifact).value();
        sim_.reset();
        return Status::ok();
      }
      // A stale or corrupt entry falls through to a fresh search (and is
      // overwritten below).
      FCAD_LOG(kWarn) << "artifact cache entry unreadable, re-searching: "
                      << cache_path.string();
    }
    ++artifact_cache_misses_;
    obs::MetricsRegistry::global()
        .counter("core.pipeline.artifact_cache.misses")
        .add(1);
  }

  const dse::SearchDriver driver(reorg_->model, platform_);
  auto outcome = driver.run(spec);
  if (!outcome.is_ok()) return outcome.status();
  search_ = SearchArtifact{std::move(outcome).value()};
  sim_.reset();  // stale: simulated a previous search stage

  // A cancelled run is partial — never cache it. The write goes through a
  // process-unique temp file + atomic rename so a crashed writer (or two
  // runs sharing a cache dir) can never leave a torn entry behind; readers
  // additionally require the artifact's terminal "end" marker.
  if (!key.empty() && !search_->outcome.cancelled) {
    std::error_code ec;
    std::filesystem::create_directories(artifact_cache_dir_, ec);
    const std::filesystem::path tmp_path =
        cache_path.string() + ".tmp." + std::to_string(::getpid());
    bool written = false;
    {
      std::ofstream out(tmp_path);
      if (out) {
        out << search_artifact_to_text(*reorg_, *search_);
        written = out.good();
      }
    }
    if (written) {
      std::filesystem::rename(tmp_path, cache_path, ec);
      written = !ec;
    }
    if (!written) {
      std::filesystem::remove(tmp_path, ec);
      FCAD_LOG(kWarn) << "artifact cache not writable: "
                      << cache_path.string();
    }
  }
  return Status::ok();
}

Status Pipeline::simulate() {
  if (sim_) return Status::ok();
  if (!search_) {
    return Status::invalid_argument(
        "Pipeline::simulate: run or load a search first");
  }
  const dse::SearchResult& best = search_->best();
  if (best.config.branches.empty()) {
    return Status::invalid_argument(
        "Pipeline::simulate: the search artifact has no winning "
        "configuration");
  }
  obs::Tracer* const tracer = obs::tracer();
  const obs::WallSpan span(tracer, pipeline_lane(tracer), "pipeline.simulate",
                           "pipeline");
  sim_ = SimArtifact{sim::simulate(reorg_->model, best.config, platform_)};
  return Status::ok();
}

std::string Pipeline::save_search() const {
  if (!search_ || !reorg_) return "";
  return search_artifact_to_text(*reorg_, *search_);
}

Status Pipeline::load_search(const std::string& text) {
  if (Status s = construct(); !s.is_ok()) return s;
  auto artifact = search_artifact_from_text(*reorg_, text);
  if (!artifact.is_ok()) return artifact.status();
  search_ = std::move(artifact).value();
  sim_.reset();
  return Status::ok();
}

StatusOr<PipelineResult> Pipeline::result() const {
  if (!profile_ || !reorg_ || !search_) {
    return Status::invalid_argument(
        "Pipeline::result: analysis/construction/optimization stages have "
        "not all completed");
  }
  PipelineResult result;
  result.profile = profile_->profile;
  result.decomposition = profile_->decomposition;
  result.model = reorg_->model;
  result.search = search_->best();
  if (sim_) result.simulation = sim_->result;
  return result;
}

StatusOr<PipelineResult> Pipeline::run(const PipelineOptions& options) {
  if (Status s = analyze(); !s.is_ok()) return s;
  if (Status s = construct(); !s.is_ok()) return s;
  if (Status s = optimize(options.spec); !s.is_ok()) return s;
  if (options.run_simulation) {
    if (Status s = simulate(); !s.is_ok()) return s;
  }
  return result();
}

}  // namespace fcad::core
