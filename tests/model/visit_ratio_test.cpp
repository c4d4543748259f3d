#include "model/visit_ratio.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/topologies.h"
#include "workload/closed_loop.h"

namespace dcm::model {
namespace {

TEST(VisitRatioPropagationTest, ChainDegeneratesToPaperVector) {
  // web --1--> app --3.5--> db is the paper's V = {1, 1, q}.
  const auto ratios = propagate_visit_ratios(3, {{0, 1, 1.0}, {1, 2, 3.5}});
  ASSERT_EQ(ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(ratios[0], 1.0);
  EXPECT_DOUBLE_EQ(ratios[1], 1.0);
  EXPECT_DOUBLE_EQ(ratios[2], 3.5);
}

TEST(VisitRatioPropagationTest, DiamondSumsPathProducts) {
  // 0 → 1 (×2) and 0 → 2 (×1); both call 3: V_3 = 2·3 + 1·0.5 = 6.5.
  const auto ratios = propagate_visit_ratios(
      4, {{0, 1, 2.0}, {0, 2, 1.0}, {1, 3, 3.0}, {2, 3, 0.5}});
  EXPECT_DOUBLE_EQ(ratios[1], 2.0);
  EXPECT_DOUBLE_EQ(ratios[2], 1.0);
  EXPECT_DOUBLE_EQ(ratios[3], 6.5);
}

TEST(VisitRatioPropagationTest, FanOutWithDeepMultiplication) {
  // 0 → 1 (×1); 1 fans out to 2 (×1), 3 (×2), 4 (×3); 3 → 4 adds 2·0.5.
  const auto ratios = propagate_visit_ratios(
      5, {{0, 1, 1.0}, {1, 2, 1.0}, {1, 3, 2.0}, {1, 4, 3.0}, {3, 4, 0.5}});
  EXPECT_DOUBLE_EQ(ratios[2], 1.0);
  EXPECT_DOUBLE_EQ(ratios[3], 2.0);
  EXPECT_DOUBLE_EQ(ratios[4], 4.0);
}

TEST(VisitRatioPropagationTest, UnreachableNodeKeepsZero) {
  const auto ratios = propagate_visit_ratios(3, {{0, 1, 1.0}});
  EXPECT_DOUBLE_EQ(ratios[1], 1.0);
  EXPECT_DOUBLE_EQ(ratios[2], 0.0);
}

TEST(VisitRatioPropagationTest, CycleIsRejectedByNodeId) {
  try {
    propagate_visit_ratios(3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}});
    FAIL() << "expected std::runtime_error for the 1↔2 cycle";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find('1'), std::string::npos) << what;
    EXPECT_NE(what.find('2'), std::string::npos) << what;
  }
}

TEST(VisitRatioPropagationTest, BadEdgesAreRejected) {
  EXPECT_THROW(propagate_visit_ratios(2, {{0, 5, 1.0}}), std::runtime_error);
  EXPECT_THROW(propagate_visit_ratios(2, {{-1, 1, 1.0}}), std::runtime_error);
  EXPECT_THROW(propagate_visit_ratios(2, {{0, 1, -2.0}}), std::runtime_error);
}

TEST(VisitRatioEstimatorTest, NoTrafficIsZero) {
  VisitRatioEstimator estimator(3);
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(0), 0.0);
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(2), 0.0);
  EXPECT_EQ(estimator.observations(), 0u);
}

TEST(VisitRatioEstimatorTest, ExactRatiosFromSyntheticFeed) {
  VisitRatioEstimator estimator(3);
  for (int i = 0; i < 10; ++i) {
    estimator.observe(0, 50.0);
    estimator.observe(1, 50.0);
    estimator.observe(2, 100.0);
  }
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(0), 1.0);
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(1), 1.0);
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(2), 2.0);
  EXPECT_EQ(estimator.observations(), 10u);
}

TEST(VisitRatioEstimatorTest, MultiServerTiersSumPerSecond) {
  // Two DB servers each at 60 qps vs one front server at 60 rps → V=2.
  VisitRatioEstimator estimator(2);
  estimator.observe(0, 60.0);
  estimator.observe(1, 60.0);
  estimator.observe(1, 60.0);
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(1), 2.0);
}

TEST(VisitRatioEstimatorTest, IgnoresOutOfRangeAndNegative) {
  VisitRatioEstimator estimator(2);
  estimator.observe(5, 100.0);
  estimator.observe(0, -3.0);
  estimator.observe(0, 10.0);
  estimator.observe(1, 20.0);
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(1), 2.0);
}

TEST(VisitRatioEstimatorTest, ResetClears) {
  VisitRatioEstimator estimator(2);
  estimator.observe(0, 10.0);
  estimator.reset();
  EXPECT_DOUBLE_EQ(estimator.visit_ratio(0), 0.0);
  EXPECT_EQ(estimator.observations(), 0u);
}

TEST(VisitRatioEstimatorTest, RecoversMixVisitRatioFromSimulation) {
  // End-to-end: measure V_db of the browse-only mix from real tier
  // completion counts, as the forced-flow law prescribes.
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 100);
  generator->start();

  VisitRatioEstimator estimator(app.tier_count());
  std::vector<uint64_t> prev(app.tier_count(), 0);
  engine.schedule_periodic(sim::kNanosPerSecond, [&] {
    for (size_t i = 0; i < app.tier_count(); ++i) {
      const uint64_t now_completed = app.tier(i).completed();
      estimator.observe(i, static_cast<double>(now_completed - prev[i]));
      prev[i] = now_completed;
    }
  });
  engine.run_until(sim::from_seconds(120.0));

  EXPECT_NEAR(estimator.visit_ratio(1), 1.0, 0.03);
  EXPECT_NEAR(estimator.visit_ratio(2), catalog.mean_db_queries(), 0.1);
}

}  // namespace
}  // namespace dcm::model
