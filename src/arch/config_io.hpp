// Text serialization of generated accelerator configurations, so a design
// found by the DSE can be saved, diffed, and re-evaluated later (the
// artifact a downstream RTL generator would consume).
//
// Format:
//   accelerator datapath=<name> freq_mhz=<f>   (arch/datapath.hpp grammar)
//   branch <index> batch=<n>
//   unit <stage-name> cpf=<n> kpf=<n> h=<n>
//   ...
#pragma once

#include <string>

#include "arch/evaluate.hpp"
#include "arch/reorg.hpp"
#include "util/status.hpp"

namespace fcad::arch {

/// Renders `config` against `model` (stage names come from the model).
std::string config_to_text(const ReorganizedModel& model,
                           const AcceleratorConfig& config);

/// Parses a config for `model`. Fails on unknown stage names, arity
/// mismatches with the model's branch structure, or factors that do not fit
/// the named stage.
StatusOr<AcceleratorConfig> config_from_text(const ReorganizedModel& model,
                                             const std::string& text);

}  // namespace fcad::arch
