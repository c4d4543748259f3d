// Tournament determinism contract: the scorecard is bit-identical for any
// worker count, ranks are a clean permutation per scenario, and the writers
// agree on the digest.
#include "scenario/tournament.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/controller_registry.h"

namespace dcm::scenario {
namespace {

TournamentOptions smoke_options() {
  TournamentOptions options;
  options.scenarios = {"quickstart", "chaos-resilience"};  // steady load + fault plan
  options.overrides = {{"run.duration", "90"}};
  return options;
}

TEST(TournamentTest, ScorecardDigestIsJobsInvariant) {
  TournamentOptions serial = smoke_options();
  serial.jobs = 1;
  TournamentOptions threaded = smoke_options();
  threaded.jobs = 4;
  const Tournament a = run_tournament(serial);
  const Tournament b = run_tournament(threaded);
  EXPECT_EQ(scorecard_digest(a), scorecard_digest(b));
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].result_digest, b.cells[i].result_digest) << a.cells[i].controller;
  }
}

// The default tournament's scorecard and cell digests, pinned. Cells are
// reduced as their runs finish and the chaos cells' dead VMs release their
// storage mid-run; neither may change a number.
TEST(TournamentTest, DefaultTournamentMatchesPinnedDigests) {
  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"quickstart/dcm", 7144185091904520420ull},
      {"quickstart/ec2", 8007654335316031933ull},
      {"quickstart/pi", 8007654335316031933ull},
      {"quickstart/predictive", 8007654335316031933ull},
      {"quickstart/queueing", 5493741160744620268ull},
      {"fig5/dcm", 2825516737655928980ull},
      {"fig5/ec2", 3725650455189126203ull},
      {"fig5/pi", 15993569302546612406ull},
      {"fig5/predictive", 1022444256241357693ull},
      {"fig5/queueing", 2126797093468112369ull},
      {"chaos-resilience/dcm", 11487354307476855148ull},
      {"chaos-resilience/ec2", 12238669254752686660ull},
      {"chaos-resilience/pi", 14077071369785010913ull},
      {"chaos-resilience/predictive", 15578613460414250631ull},
      {"chaos-resilience/queueing", 3389786098048037093ull},
  };
  TournamentOptions options;
  options.jobs = 2;
  const Tournament tournament = run_tournament(options);
  EXPECT_EQ(scorecard_digest(tournament), 6959546997517894393ull);
  ASSERT_EQ(tournament.cells.size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    const TournamentCell& cell = tournament.cells[i];
    EXPECT_EQ(cell.scenario + "/" + cell.controller, pinned[i].first);
    EXPECT_EQ(cell.result_digest, pinned[i].second) << pinned[i].first;
  }
}

TEST(TournamentTest, DefaultFieldIsTheWholeRegistryAndRanksArePermutations) {
  const Tournament tournament = run_tournament(smoke_options());
  EXPECT_EQ(tournament.controllers, control::controller_names());
  ASSERT_EQ(tournament.cells.size(),
            tournament.scenarios.size() * tournament.controllers.size());
  // Scenario-major, controller-minor, matching the sweep's axis order.
  for (size_t i = 0; i < tournament.cells.size(); ++i) {
    const size_t scenario = i / tournament.controllers.size();
    const size_t controller = i % tournament.controllers.size();
    EXPECT_EQ(tournament.cells[i].scenario, tournament.scenarios[scenario]);
    EXPECT_EQ(tournament.cells[i].controller, tournament.controllers[controller]);
  }
  // Within each scenario the ranks are exactly 1..n.
  for (const auto& scenario : tournament.scenarios) {
    std::vector<int> ranks;
    for (const auto& cell : tournament.cells) {
      if (cell.scenario == scenario) ranks.push_back(cell.rank);
    }
    std::sort(ranks.begin(), ranks.end());
    ASSERT_EQ(ranks.size(), tournament.controllers.size());
    for (size_t place = 0; place < ranks.size(); ++place) {
      EXPECT_EQ(ranks[place], static_cast<int>(place) + 1);
    }
  }
  // Standings cover every controller, best (fewest rank points) first.
  ASSERT_EQ(tournament.standings.size(), tournament.controllers.size());
  for (size_t i = 1; i < tournament.standings.size(); ++i) {
    EXPECT_LE(tournament.standings[i - 1].rank_points, tournament.standings[i].rank_points);
  }
}

TEST(TournamentTest, ControllerSubsetRunsOnlyThoseCells) {
  TournamentOptions options;
  options.scenarios = {"quickstart"};
  options.overrides = {{"run.duration", "90"}};
  options.controllers = {"ec2", "dcm"};  // caller order is axis order
  const Tournament tournament = run_tournament(options);
  ASSERT_EQ(tournament.cells.size(), 2u);
  EXPECT_EQ(tournament.cells[0].controller, "ec2");
  EXPECT_EQ(tournament.cells[1].controller, "dcm");
}

TEST(TournamentTest, WritersCarryTheScorecardDigest) {
  TournamentOptions options;
  options.scenarios = {"quickstart"};
  options.overrides = {{"run.duration", "90"}};
  options.controllers = {"ec2", "queueing"};
  const Tournament tournament = run_tournament(options);

  std::ostringstream json;
  write_tournament_json(json, tournament);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"schema\": \"dcm-tournament-v1\""), std::string::npos);
  EXPECT_NE(json_text.find("\"scorecard_digest\": \"" +
                           std::to_string(scorecard_digest(tournament)) + "\""),
            std::string::npos);

  std::ostringstream csv;
  write_tournament_csv(csv, tournament);
  const std::string csv_text = csv.str();
  // Header plus one row per cell.
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 3);
}

TEST(TournamentTest, UnknownNamesThrowEagerly) {
  TournamentOptions unknown_controller = smoke_options();
  unknown_controller.controllers = {"pid"};
  EXPECT_THROW(run_tournament(unknown_controller), std::invalid_argument);

  TournamentOptions unknown_scenario;
  unknown_scenario.scenarios = {"no-such-scenario"};
  EXPECT_THROW(run_tournament(unknown_scenario), std::runtime_error);

  TournamentOptions no_scenarios;
  no_scenarios.scenarios = {};
  EXPECT_THROW(run_tournament(no_scenarios), std::runtime_error);
}

}  // namespace
}  // namespace dcm::scenario
