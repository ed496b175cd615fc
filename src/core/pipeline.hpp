// fcad::core::Pipeline — the staged, resumable Fig. 4 flow behind the
// public API:
//   Stage 1 (Analysis):     analyze()   -> ProfileArtifact
//   Stage 2 (Construction): construct() -> ReorgArtifact
//   Stage 3 (Optimization): optimize(SearchSpec) -> SearchArtifact
//   Stage 4 (Validation):   simulate()  -> SimArtifact
//
// Each stage is produced once and cached, so repeated optimize() calls (a
// serving sweep, a spec ladder) reuse the analysis/construction artifacts
// instead of re-profiling the graph per configuration. The search artifact
// serializes (reusing arch/config_io for the configurations) and re-enters
// via load_search(), so a design found yesterday can be re-evaluated,
// simulated, or reported today without re-searching.
//
// On top of the explicit save/load round trip, optimize() can consult a
// spec-hash-keyed artifact cache (set_artifact_cache_dir): each cacheable
// spec maps to a 128-bit key over the spec, the model text, and the
// platform, and a key hit reloads the previous run's bit-identical
// SearchArtifact from disk instead of re-searching — so sweeps, convergence
// studies, and (since artifact v3 serializes the serving stats) traffic
// searches all resume across process restarts.
//
// run() is the one-shot convenience covering the whole flow.
#pragma once

#include <optional>
#include <string>

#include "analysis/branches.hpp"
#include "arch/reorg.hpp"
#include "dse/search_driver.hpp"
#include "nn/graph.hpp"
#include "sim/simulator.hpp"

namespace fcad::core {

/// Stage-1 artifact: per-layer compute/memory profile + branch structure.
struct ProfileArtifact {
  analysis::GraphProfile profile;
  analysis::BranchDecomposition decomposition;
};

/// Stage-2 artifact: the fused, branch-reorganized hardware model.
struct ReorgArtifact {
  arch::ReorganizedModel model;
};

/// Stage-3 artifact: the outcome of one SearchDriver run.
struct SearchArtifact {
  dse::SearchOutcome outcome;

  /// The winning hardware search of the outcome (kTraffic's winner lives in
  /// outcome.traffic.search; every other kind fills outcome.search).
  const dse::SearchResult& best() const;
};

/// Stage-4 artifact: cycle-level validation of the winning configuration.
struct SimArtifact {
  sim::SimResult result;
};

/// Text serialization of a search artifact (format v3): the outcome header,
/// the winning search (stats, convergence curve, winning distribution,
/// configuration in the arch/config_io format), every kSweep grid point /
/// the kConvergence aggregate statistics, and the whole kTraffic result
/// (batch targets, users served, SLA verdict, and the serving stats via
/// serving_stats_to_text) — so every outcome kind re-enters whole. Stable
/// across runs; doubles round-trip bit-exactly. Not round-tripped: the
/// fitness-cache hit/miss counters (pure diagnostics of the producing run —
/// they reload as zero).
std::string search_artifact_to_text(const ReorgArtifact& reorg,
                                    const SearchArtifact& artifact);

/// Parses a serialized search artifact against `reorg` (stage names must
/// match the model) and re-evaluates the configurations, so the artifact
/// re-enters the pipeline exactly where the search left off.
StatusOr<SearchArtifact> search_artifact_from_text(const ReorgArtifact& reorg,
                                                   const std::string& text);

struct PipelineOptions {
  /// The optimization stage's request (defaults to SearchKind::kOptimize).
  dse::SearchSpec spec;
  bool run_simulation = false;  ///< cycle-level validation of the winner
};

/// Flat result of a full pipeline pass.
struct PipelineResult {
  analysis::GraphProfile profile;
  analysis::BranchDecomposition decomposition;
  arch::ReorganizedModel model;
  dse::SearchResult search;
  std::optional<sim::SimResult> simulation;
};

class Pipeline {
 public:
  Pipeline(nn::Graph graph, arch::Platform platform)
      : graph_(std::move(graph)), platform_(std::move(platform)) {}

  // ---- staged execution --------------------------------------------------
  // Stages cache their artifact: a second call is free. optimize() is the
  // exception — every call runs the given spec (or reloads it from the
  // artifact cache) and replaces the cached search artifact (clearing any
  // stale simulation). Later stages pull in their prerequisites
  // automatically.

  Status analyze();
  Status construct();
  Status optimize(const dse::SearchSpec& spec);
  Status simulate();

  /// Cached artifacts; null until the stage has run.
  const ProfileArtifact* profile() const {
    return profile_ ? &*profile_ : nullptr;
  }
  const ReorgArtifact* reorg() const { return reorg_ ? &*reorg_ : nullptr; }
  const SearchArtifact* search() const {
    return search_ ? &*search_ : nullptr;
  }
  const SimArtifact* sim() const { return sim_ ? &*sim_ : nullptr; }

  // ---- artifact re-entry -------------------------------------------------

  /// Serialized search artifact, "" when the search stage has not run.
  std::string save_search() const;
  /// Installs a previously serialized search artifact as the stage-3 result
  /// (running analysis/construction first when needed).
  Status load_search(const std::string& text);

  // ---- spec-hash artifact cache ------------------------------------------

  /// Enables the on-disk artifact cache under `dir` ("" disables, the
  /// default). With a cache dir set, optimize() computes the spec's cache
  /// key, reloads `<dir>/<key>.artifact` on a hit (no search runs), and
  /// writes the artifact there after a cache-miss search — so repeated
  /// sweeps and convergence studies resume across process restarts. Entries
  /// invalidate themselves: any spec/model/platform change changes the key.
  void set_artifact_cache_dir(std::string dir) {
    artifact_cache_dir_ = std::move(dir);
  }
  const std::string& artifact_cache_dir() const {
    return artifact_cache_dir_;
  }

  /// The cache key optimize() would use for `spec`: 32 hex digits over the
  /// spec hash, the model text, and the platform. "" when the spec is not
  /// cacheable — only a RunControl deadline disqualifies a spec (it makes
  /// results timing-dependent); kTraffic caches like every other kind now
  /// that artifact v3 serializes the serving stats.
  std::string artifact_cache_key(const dse::SearchSpec& spec) const;

  /// Cache traffic of this pipeline's optimize() calls (only counted while
  /// a cache dir is set and the spec is cacheable).
  int artifact_cache_hits() const { return artifact_cache_hits_; }
  int artifact_cache_misses() const { return artifact_cache_misses_; }

  // ---- one-shot convenience ----------------------------------------------

  /// Flattens the cached stages into the flat result shape. Fails unless
  /// analyze/construct and a search (run or loaded) have completed.
  StatusOr<PipelineResult> result() const;

  /// analyze + construct + optimize(options.spec) [+ simulate], then
  /// result(). Re-runs the optimization stage even when one is cached.
  StatusOr<PipelineResult> run(const PipelineOptions& options);

  const nn::Graph& graph() const { return graph_; }
  const arch::Platform& platform() const { return platform_; }

 private:
  nn::Graph graph_;
  arch::Platform platform_;
  std::optional<ProfileArtifact> profile_;
  std::optional<ReorgArtifact> reorg_;
  std::optional<SearchArtifact> search_;
  std::optional<SimArtifact> sim_;
  std::string artifact_cache_dir_;
  /// Lazily computed graph+platform digest feeding artifact_cache_key()
  /// (both are fixed for the pipeline's lifetime).
  mutable std::string model_digest_;
  int artifact_cache_hits_ = 0;
  int artifact_cache_misses_ = 0;
};

}  // namespace fcad::core
