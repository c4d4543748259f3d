// `dcm_run report`'s claims. A claim with an unmeetable bound, evaluated on
// a real run, must come back FAIL under its own id, so the check can fire.
// The Fig. 2(a) and Fig. 5 suites check those figures' claim rows on the
// runs the report prints: the MySQL-only sweep and the registered fig5 /
// fig5-ec2 scenarios.
#include "scenario/report.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "scenario/registry.h"

namespace dcm::scenario {
namespace {

::testing::AssertionResult Holds(const std::vector<Claim>& claims, const std::string& id) {
  for (const Claim& claim : claims) {
    if (claim.id != id) continue;
    if (claim.holds()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << id << ": " << claim.metric << ": "
                                         << claim.verdict_text() << " does not hold";
  }
  return ::testing::AssertionFailure() << "no claim " << id;
}

// One run per figure per process; each test reads its claim rows.
const std::vector<Claim>& claims_of(const std::string& figure) {
  static std::map<std::string, std::vector<Claim>> cache;
  auto it = cache.find(figure);
  if (it == cache.end()) it = cache.emplace(figure, run_figure(figure, false)).first;
  return it->second;
}

TEST(ReportTest, UnmeetableClaimFailsNamingItsId) {
  const core::ExperimentResult result =
      core::run_experiment(get_scenario("quickstart").experiment());
  ASSERT_GT(result.max_response_time, 0.0);
  const Claim claim{"quickstart.unmeetable", "Sec. V", "max RT (s)", result.max_response_time,
                    Cmp::kLess, 0.0};
  EXPECT_FALSE(claim.holds());
  std::istringstream table(render_claims({claim}));
  std::string line;
  int rows = 0;
  while (std::getline(table, line)) {
    if (line.find("quickstart.unmeetable") == std::string::npos) continue;
    ++rows;
    EXPECT_NE(line.find("FAIL"), std::string::npos) << line;
  }
  EXPECT_EQ(rows, 1);
}

// Every listed claim row of `figure` holds.
#define DCM_CLAIM_TEST(suite, name, figure, ...)                                   \
  TEST(suite, name) {                                                              \
    for (const char* id : {__VA_ARGS__}) EXPECT_TRUE(Holds(claims_of(figure), id)); \
  }

DCM_CLAIM_TEST(SingleTierShapeTest, ThroughputRisesUpToTheKnee, "fig2a", "fig2a.rise-to-5",
               "fig2a.rise-to-40")
DCM_CLAIM_TEST(SingleTierShapeTest, ThroughputCollapsesBeyondTheKnee, "fig2a",
               "fig2a.collapse-160", "fig2a.collapse-600")
DCM_CLAIM_TEST(SingleTierShapeTest, ReasonableBandBetween20And80, "fig2a", "fig2a.band-20",
               "fig2a.band-80")
DCM_CLAIM_TEST(SingleTierShapeTest, MeasuredCurveTracksEq7Prediction, "fig2a", "fig2a.eq7-n10",
               "fig2a.eq7-n36", "fig2a.eq7-n60")
DCM_CLAIM_TEST(DcmVsEc2Test, BothControllersScaleOut, "fig5", "fig5.both-scale-out")
DCM_CLAIM_TEST(DcmVsEc2Test, Ec2SuffersSecondScaleResponseTimeSpikes, "fig5", "fig5.ec2-spikes")
DCM_CLAIM_TEST(DcmVsEc2Test, DcmStabilizesResponseTime, "fig5", "fig5.dcm-max-rt",
               "fig5.dcm-mean-rt", "fig5.dcm-no-sla-violation")
DCM_CLAIM_TEST(DcmVsEc2Test, DcmP95IsLower, "fig5", "fig5.dcm-p95-rt")
DCM_CLAIM_TEST(DcmVsEc2Test, DcmLosesNoThroughput, "fig5", "fig5.dcm-completed")
DCM_CLAIM_TEST(DcmVsEc2Test, DcmAdaptsSoftResources, "fig5", "fig5.dcm-soft-actions",
               "fig5.ec2-no-soft-actions")
DCM_CLAIM_TEST(DcmVsEc2Test, NoErrorsEitherWay, "fig5", "fig5.no-errors")

}  // namespace
}  // namespace dcm::scenario
