// Named canonical scenarios — one per paper figure / table / ablation.
//
// Every bench and example used to hard-code its deployment inline; the
// registry is now the single source of those configurations, stored as the
// same INI text a user would write by hand (so `dcm_run show <name>` prints
// exactly what `dcm_run run <name>` executes, and `dcm_run report` is a thin
// client that tweaks one or two fields per point).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace dcm::scenario {

/// All registered names, sorted.
std::vector<std::string> scenario_names();

bool has_scenario(const std::string& name);

/// Expected `result_digest` of one canonical run of the named scenario
/// (`run_experiment(get_scenario(name).experiment())`, no overrides). The
/// macro benchmark and the digest regression tests verify against these, so
/// a hot-path "optimisation" that changes any reproduced number fails
/// loudly. nullopt for scenarios without a pinned digest.
std::optional<uint64_t> expected_result_digest(const std::string& name);

/// The registered INI text, verbatim. Throws std::runtime_error on an
/// unknown name (with the known names listed).
const std::string& scenario_text(const std::string& name);

/// Parsed scenario. Throws std::runtime_error on an unknown name.
Scenario get_scenario(const std::string& name);

}  // namespace dcm::scenario
