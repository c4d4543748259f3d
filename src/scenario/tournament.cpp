#include "scenario/tournament.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "common/strings.h"
#include "common/table.h"
#include "control/controller_registry.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"

namespace dcm::scenario {
namespace {

// Lexicographic scorecard order: quality, then cost, then stability, then
// name (the deterministic tie-break).
bool cell_beats(const TournamentCell& a, const TournamentCell& b) {
  if (a.slo_violation_seconds != b.slo_violation_seconds) {
    return a.slo_violation_seconds < b.slo_violation_seconds;
  }
  if (a.vm_hours < b.vm_hours) return true;
  if (b.vm_hours < a.vm_hours) return false;
  if (a.actuation_churn != b.actuation_churn) return a.actuation_churn < b.actuation_churn;
  return a.controller < b.controller;
}

}  // namespace

Tournament run_tournament(const TournamentOptions& options) {
  if (options.scenarios.empty()) {
    throw std::runtime_error("tournament: at least one scenario required");
  }
  Tournament tournament;
  tournament.scenarios = options.scenarios;
  tournament.controllers =
      options.controllers.empty() ? control::controller_names() : options.controllers;
  for (const auto& name : tournament.controllers) {
    if (!control::has_controller(name)) {
      throw std::invalid_argument("tournament: unknown controller: " + name);
    }
  }

  for (const auto& scenario_name : tournament.scenarios) {
    SweepPlan plan;
    const Scenario base =
        has_scenario(scenario_name) ? get_scenario(scenario_name) : Scenario::load(scenario_name);
    plan.base = base.with_overrides(options.overrides);
    // Paired comparison: every controller must face the identical trace,
    // client randomness and fault schedule.
    plan.seed_policy = SeedPolicy::kFixed;
    plan.axes.push_back(SweepAxis{"controller", "kind", tournament.controllers});
    SweepRunner runner(plan, options.jobs);
    // Each run is reduced to its cell on the worker that ran it, and its
    // result dies there: a cell reads a few numbers and the digest.
    std::vector<TournamentCell> cells(runner.planned().size());
    runner.run_each([&cells, &scenario_name](SweepRun&& run) {
      TournamentCell& cell = cells[run.index];
      cell.scenario = scenario_name;
      cell.controller = run.overrides.front().second;
      cell.slo_violation_seconds = run.result.sla_violation_seconds;
      cell.vm_hours = run.result.total_vm_seconds / 3600.0;
      cell.actuation_churn =
          run.result.action_count("scale_out") + run.result.action_count("scale_in");
      cell.soft_actions =
          run.result.action_count("set_stp") + run.result.action_count("set_conns");
      cell.mean_response_time = run.result.mean_response_time;
      cell.mean_throughput = run.result.mean_throughput;
      cell.result_digest = result_digest(run.result);
    });

    // Rank within the scenario without disturbing the axis order.
    std::vector<size_t> order(cells.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&cells](size_t a, size_t b) { return cell_beats(cells[a], cells[b]); });
    for (size_t place = 0; place < order.size(); ++place) {
      cells[order[place]].rank = static_cast<int>(place) + 1;
    }
    tournament.cells.insert(tournament.cells.end(), cells.begin(), cells.end());
  }

  // Overall standing: sum of per-scenario ranks, totals as tie-breaks.
  for (const auto& controller : tournament.controllers) {
    TournamentStanding standing;
    standing.controller = controller;
    for (const auto& cell : tournament.cells) {
      if (cell.controller != controller) continue;
      standing.rank_points += cell.rank;
      standing.total_slo_violation_seconds += cell.slo_violation_seconds;
      standing.total_vm_hours += cell.vm_hours;  // dcm-lint: allow(no-unanchored-float-accumulate)
      standing.total_actuation_churn += cell.actuation_churn;
    }
    tournament.standings.push_back(std::move(standing));
  }
  std::sort(tournament.standings.begin(), tournament.standings.end(),
            [](const TournamentStanding& a, const TournamentStanding& b) {
              if (a.rank_points != b.rank_points) return a.rank_points < b.rank_points;
              if (a.total_slo_violation_seconds != b.total_slo_violation_seconds) {
                return a.total_slo_violation_seconds < b.total_slo_violation_seconds;
              }
              if (a.total_vm_hours < b.total_vm_hours) return true;
              if (b.total_vm_hours < a.total_vm_hours) return false;
              if (a.total_actuation_churn != b.total_actuation_churn) {
                return a.total_actuation_churn < b.total_actuation_churn;
              }
              return a.controller < b.controller;
            });
  return tournament;
}

uint64_t scorecard_digest(const Tournament& tournament) {
  Fnv1a h;
  h.mix(std::string_view("dcm-tournament-v1"));
  h.mix(static_cast<uint64_t>(tournament.scenarios.size()));
  for (const auto& name : tournament.scenarios) h.mix(std::string_view(name));
  h.mix(static_cast<uint64_t>(tournament.controllers.size()));
  for (const auto& name : tournament.controllers) h.mix(std::string_view(name));
  for (const auto& cell : tournament.cells) {
    h.mix(std::string_view(cell.scenario));
    h.mix(std::string_view(cell.controller));
    h.mix(static_cast<int64_t>(cell.slo_violation_seconds));
    h.mix(cell.vm_hours);
    h.mix(static_cast<int64_t>(cell.actuation_churn));
    h.mix(static_cast<int64_t>(cell.soft_actions));
    h.mix(cell.result_digest);
    h.mix(static_cast<int64_t>(cell.rank));
  }
  for (const auto& standing : tournament.standings) {
    h.mix(std::string_view(standing.controller));
    h.mix(static_cast<int64_t>(standing.rank_points));
  }
  return h.value();
}

void write_tournament_json(std::ostream& out, const Tournament& tournament) {
  out << "{\n  \"schema\": \"dcm-tournament-v1\",\n  \"scenarios\": [";
  for (size_t i = 0; i < tournament.scenarios.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(tournament.scenarios[i]) << "\"";
  }
  out << "],\n  \"controllers\": [";
  for (size_t i = 0; i < tournament.controllers.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(tournament.controllers[i]) << "\"";
  }
  out << "],\n  \"cells\": [\n";
  for (size_t i = 0; i < tournament.cells.size(); ++i) {
    const TournamentCell& cell = tournament.cells[i];
    out << "    {\n"
        << "      \"scenario\": \"" << json_escape(cell.scenario) << "\",\n"
        << "      \"controller\": \"" << json_escape(cell.controller) << "\",\n"
        << "      \"slo_violation_seconds\": " << cell.slo_violation_seconds << ",\n"
        << "      \"vm_hours\": " << json_number(cell.vm_hours) << ",\n"
        << "      \"actuation_churn\": " << cell.actuation_churn << ",\n"
        << "      \"soft_actions\": " << cell.soft_actions << ",\n"
        << "      \"mean_response_time\": " << json_number(cell.mean_response_time) << ",\n"
        << "      \"mean_throughput\": " << json_number(cell.mean_throughput) << ",\n"
        << "      \"result_digest\": \"" << cell.result_digest << "\",\n"
        << "      \"rank\": " << cell.rank << "\n"
        << "    }" << (i + 1 < tournament.cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"standings\": [\n";
  for (size_t i = 0; i < tournament.standings.size(); ++i) {
    const TournamentStanding& s = tournament.standings[i];
    out << "    {\n"
        << "      \"controller\": \"" << json_escape(s.controller) << "\",\n"
        << "      \"rank_points\": " << s.rank_points << ",\n"
        << "      \"total_slo_violation_seconds\": " << s.total_slo_violation_seconds << ",\n"
        << "      \"total_vm_hours\": " << json_number(s.total_vm_hours) << ",\n"
        << "      \"total_actuation_churn\": " << s.total_actuation_churn << "\n"
        << "    }" << (i + 1 < tournament.standings.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"scorecard_digest\": \"" << scorecard_digest(tournament) << "\"\n}\n";
}

void write_tournament_csv(std::ostream& out, const Tournament& tournament) {
  out << "scenario,controller,slo_violation_seconds,vm_hours,actuation_churn,soft_actions,"
         "mean_response_time,mean_throughput,result_digest,rank\n";
  for (const auto& scenario : tournament.scenarios) {
    std::vector<const TournamentCell*> cells;
    for (const auto& cell : tournament.cells) {
      if (cell.scenario == scenario) cells.push_back(&cell);
    }
    std::sort(cells.begin(), cells.end(),
              [](const TournamentCell* a, const TournamentCell* b) { return a->rank < b->rank; });
    for (const TournamentCell* cell : cells) {
      out << cell->scenario << "," << cell->controller << "," << cell->slo_violation_seconds
          << "," << json_number(cell->vm_hours) << "," << cell->actuation_churn << ","
          << cell->soft_actions << "," << json_number(cell->mean_response_time) << ","
          << json_number(cell->mean_throughput) << "," << cell->result_digest << ","
          << cell->rank << "\n";
    }
  }
}

void print_tournament(const Tournament& tournament) {
  for (const auto& scenario : tournament.scenarios) {
    std::printf("scenario %s\n", scenario.c_str());
    TextTable table({"rank", "controller", "slo_viol_s", "vm_hours", "churn", "soft", "rt_ms",
                     "xput"});
    std::vector<const TournamentCell*> cells;
    for (const auto& cell : tournament.cells) {
      if (cell.scenario == scenario) cells.push_back(&cell);
    }
    std::sort(cells.begin(), cells.end(),
              [](const TournamentCell* a, const TournamentCell* b) { return a->rank < b->rank; });
    for (const TournamentCell* cell : cells) {
      table.add_row({std::to_string(cell->rank), cell->controller,
                     std::to_string(cell->slo_violation_seconds), format_number(cell->vm_hours),
                     std::to_string(cell->actuation_churn), std::to_string(cell->soft_actions),
                     format_number(cell->mean_response_time * 1000.0, 1),
                     format_number(cell->mean_throughput, 1)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf("standings (rank points = sum of per-scenario ranks; lower is better)\n");
  TextTable standings({"place", "controller", "rank_pts", "slo_viol_s", "vm_hours", "churn"});
  for (size_t i = 0; i < tournament.standings.size(); ++i) {
    const TournamentStanding& s = tournament.standings[i];
    standings.add_row({std::to_string(i + 1), s.controller, std::to_string(s.rank_points),
                       std::to_string(s.total_slo_violation_seconds),
                       format_number(s.total_vm_hours), std::to_string(s.total_actuation_churn)});
  }
  standings.print();
}

}  // namespace dcm::scenario
