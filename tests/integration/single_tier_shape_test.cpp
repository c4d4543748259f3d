// End-to-end Fig. 2(a) shape check: a JMeter closed loop stressing the
// MySQL-only deployment reproduces the rise / knee-near-40 / collapse curve.
#include <gtest/gtest.h>

#include "core/topologies.h"
#include "sim/engine.h"
#include "workload/closed_loop.h"

namespace dcm {
namespace {

double mysql_only_throughput(int concurrency, double seconds = 40.0) {
  sim::Engine engine;
  // A one-node db graph whose worker cap matches the offered concurrency.
  core::TopologySpec mysql_only;
  mysql_only.kind = core::TopologySpec::Kind::kGraph;
  mysql_only.nodes = {{"mysql", "db"}};
  ntier::NTierApp app(engine, core::build_service_graph(mysql_only, {1, 1, 1}, {}, 1), 1);
  app.tier(0).set_thread_pool_size(concurrency);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  workload::ClosedLoopConfig config;
  config.users = concurrency;
  config.seed = 1000 + static_cast<uint64_t>(concurrency);
  workload::ClosedLoopGenerator generator(
      engine, app, workload::graph_request_factory(catalog, *app.graph()), std::move(config));
  generator.start();
  const double warmup = 5.0;
  engine.run_until(sim::from_seconds(seconds));
  return generator.stats().mean_throughput(sim::from_seconds(warmup),
                                           sim::from_seconds(seconds));
}

TEST(SingleTierShapeTest, ThroughputRisesUpToTheKnee) {
  // With Table I's fitted α ≈ 0.7·S0 the rise from low concurrency to the
  // knee is modest but monotone (Eq. 7: X(1)=139, X(5)=183, X(40)=194 qps).
  const double x1 = mysql_only_throughput(1);
  const double x5 = mysql_only_throughput(5);
  const double x40 = mysql_only_throughput(40);
  EXPECT_GT(x5, x1 * 1.2);
  EXPECT_GT(x40, x5 * 1.03);
}

TEST(SingleTierShapeTest, ThroughputCollapsesBeyondTheKnee) {
  const double x40 = mysql_only_throughput(40);
  const double x160 = mysql_only_throughput(160);
  const double x600 = mysql_only_throughput(600, 60.0);
  EXPECT_LT(x160, 0.65 * x40);
  EXPECT_LT(x600, 0.25 * x40);
}

TEST(SingleTierShapeTest, ReasonableBandBetween20And80) {
  // Paper: "MySQL achieves reasonable performance when the request
  // processing concurrency is between 20 to 80."
  const double peak = mysql_only_throughput(40);
  EXPECT_GT(mysql_only_throughput(20), 0.7 * peak);
  EXPECT_GT(mysql_only_throughput(80), 0.7 * peak);
}

TEST(SingleTierShapeTest, MeasuredCurveTracksEq7Prediction) {
  const ntier::CpuModelConfig cpu = core::mysql_cpu_model();
  for (const int n : {10, 36, 60}) {
    const double measured = mysql_only_throughput(n);
    const double predicted = cpu.throughput_at(n);
    EXPECT_NEAR(measured, predicted, predicted * 0.08) << "concurrency " << n;
  }
}

}  // namespace
}  // namespace dcm
