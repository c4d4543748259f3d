// Controller tournament: race the whole auto-scaler zoo across a set of
// scenarios (including fault plans) and rank the field.
//
// Each scenario becomes one deterministic `SweepRunner` sweep with
// `controller.kind` as the only axis and `SeedPolicy::kFixed`, so every
// controller faces the *identical* synthesized trace, client randomness and
// fault schedule — a paired comparison, not a statistical one. Each run is
// reduced to its cell as it finishes (SweepRunner::run_each), so a scenario
// holds at most `jobs` full results at once. Cells are scored on what the
// paper actually argues about:
//
//   * SLO-violation seconds — post-warmup seconds whose mean response time
//     exceeded the SLA bound (quality),
//   * VM-hours — provisioned VM time across the scalable tiers (cost),
//   * actuation churn — VM-level scale_out + scale_in actions (stability).
//
// Ranking is lexicographic on exactly that triple (violations, then cost,
// then churn; controller name as the final deterministic tie-break) within
// each scenario; the overall standing orders controllers by the sum of
// their per-scenario ranks. The whole scorecard folds into one FNV-1a
// digest, which CI compares across `--jobs` counts — the tournament
// inherits the sweep determinism contract wholesale.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "scenario/sweep.h"

namespace dcm::scenario {

struct TournamentOptions {
  /// Registry names or INI paths. The default trio covers a steady load, the
  /// paper's Fig. 5 trace, and a fault plan with resilience armed.
  std::vector<std::string> scenarios = {"quickstart", "fig5", "chaos-resilience"};
  /// Controller-registry names; empty = every registered controller.
  std::vector<std::string> controllers;
  /// "section.key" → value overrides applied to every base scenario through
  /// Scenario::with_overrides (the CLI's --set), e.g. shortening
  /// run.duration for smoke tests.
  std::vector<std::pair<std::string, std::string>> overrides;
  /// Worker threads per scenario sweep; <= 0 = hardware concurrency.
  int jobs = 1;
};

struct TournamentCell {
  std::string scenario;
  std::string controller;
  int slo_violation_seconds = 0;
  double vm_hours = 0.0;
  int actuation_churn = 0;  // VM-level scale_out + scale_in actions
  int soft_actions = 0;     // set_stp + set_conns (DCM's soft-resource churn)
  double mean_response_time = 0.0;
  double mean_throughput = 0.0;
  uint64_t result_digest = 0;
  int rank = 0;  // 1 = best within its scenario
};

struct TournamentStanding {
  std::string controller;
  int rank_points = 0;  // sum of per-scenario ranks; lower is better
  int total_slo_violation_seconds = 0;
  double total_vm_hours = 0.0;
  int total_actuation_churn = 0;
};

struct Tournament {
  std::vector<std::string> scenarios;    // in play order
  std::vector<std::string> controllers;  // in axis order
  /// Scenario-major, controller-minor (the sweep's run order); `rank` holds
  /// each cell's place within its scenario.
  std::vector<TournamentCell> cells;
  /// Overall standing, best first.
  std::vector<TournamentStanding> standings;
};

/// Runs the tournament. Throws std::runtime_error on an unknown scenario,
/// std::invalid_argument on an unknown controller name.
Tournament run_tournament(const TournamentOptions& options);

/// FNV-1a over the whole scorecard (names, every cell's scores and result
/// digest, the final standing). Bit-identical for any --jobs.
uint64_t scorecard_digest(const Tournament& tournament);

/// dcm-tournament-v1 JSON: schema marker, scenario/controller lists, cells,
/// standings and the scorecard digest.
void write_tournament_json(std::ostream& out, const Tournament& tournament);

/// Flat cells CSV (scenario, controller, scores, digest, rank), scenario-
/// major in rank order.
void write_tournament_csv(std::ostream& out, const Tournament& tournament);

/// Console scorecard: one ranked table per scenario plus the standings.
void print_tournament(const Tournament& tournament);

}  // namespace dcm::scenario
