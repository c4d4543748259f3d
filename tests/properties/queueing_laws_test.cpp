// Operational-law conformance of the whole simulated system, swept across
// load levels. These are the invariants any queueing-faithful simulator
// must satisfy regardless of parameters:
//   * Little's law  N = X·R  at the front tier (closed loop, zero think)
//   * Forced Flow   X_db = V_db · X_system
//   * Interactive response-time law for closed loops with think time:
//       R = U/X − Z
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/closed_loop.h"

namespace dcm::core {
namespace {

class QueueingLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(QueueingLawsTest, InteractiveResponseTimeLawHolds) {
  const int users = GetParam();
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.workload = WorkloadSpec::rubbos(users, 3.0);
  config.controller = ControllerSpec::none();
  config.duration_seconds = 150.0;
  config.warmup_seconds = 50.0;
  const auto result = run_experiment(config);

  // X = U/(Z + R) — checked in this direction because inverting to
  // R = U/X − Z amplifies throughput measurement noise at light load.
  const double predicted_x = users / (3.0 + result.mean_response_time);
  EXPECT_NEAR(result.mean_throughput, predicted_x, predicted_x * 0.06)
      << "users=" << users << " R=" << result.mean_response_time;
}

TEST_P(QueueingLawsTest, ForcedFlowLawAtDbTier) {
  const int users = GetParam();
  // Direct simulation access to compare per-tier completion counts.
  sim::Engine engine;
  ntier::NTierApp app(engine, build_service_graph(TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, users);
  generator->start();
  engine.run_until(sim::from_seconds(120.0));

  const double x_system = static_cast<double>(generator->stats().completed());
  const double x_db = static_cast<double>(app.tier(2).completed());
  ASSERT_GT(x_system, 0.0);
  // X_db ≈ V_db · X (queries of in-flight requests blur the tail slightly).
  EXPECT_NEAR(x_db / x_system, catalog.mean_db_queries(), 0.1) << "users=" << users;
}

TEST_P(QueueingLawsTest, LittlesLawAtFrontTierZeroThink) {
  const int users = GetParam();
  sim::Engine engine;
  ntier::NTierApp app(engine, build_service_graph(TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_jmeter(engine, app, catalog, users);
  generator->start();
  engine.run_until(sim::from_seconds(120.0));

  // N (users, all always in flight) = X · R.
  const double x = generator->stats().mean_throughput(sim::from_seconds(30.0),
                                                      sim::from_seconds(120.0));
  metrics::Welford rt;
  for (const auto& bucket : generator->stats().response_time_series().buckets()) {
    if (bucket.start < sim::from_seconds(30.0)) continue;
    rt.merge(bucket.stat);
  }
  EXPECT_NEAR(x * rt.mean(), static_cast<double>(users), 0.08 * users) << "users=" << users;
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, QueueingLawsTest,
                         ::testing::Values(20, 60, 120, 240, 400),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "users_" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace dcm::core
