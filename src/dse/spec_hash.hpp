// 128-bit fingerprint of a SearchSpec, for spec-keyed artifact caching
// (core::Pipeline): two runs with the same spec hash against the same model
// and platform produce bit-identical SearchOutcomes, so a cached
// SearchArtifact can stand in for re-running the search.
//
// The hash covers every field that influences results — kind, strategy
// name, customization, swarm options (including the seed and the
// objective's weights), the kind-specific payloads
// (traffic/sweep/batch/convergence) — and deliberately excludes fields that
// do not: RunControl (threads never change results; progress observers are
// pure observers) and the progress_label. Two caveats the caller owns:
//   * a RunControl deadline makes results timing-dependent — Pipeline skips
//     the artifact cache for deadline-bearing specs;
//   * an Objective hashes by its term names and exact weights; two
//     different TermFns under the same name would collide, so name custom
//     terms distinctly.
#pragma once

#include "dse/search_driver.hpp"
#include "util/hash.hpp"

namespace fcad::dse {

util::Hash128 spec_hash(const SearchSpec& spec);

}  // namespace fcad::dse
