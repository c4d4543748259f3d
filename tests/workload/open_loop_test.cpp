#include "workload/open_loop.h"

#include <gtest/gtest.h>

#include "core/topologies.h"

namespace dcm::workload {
namespace {

class OpenLoopTest : public ::testing::Test {
 protected:
  OpenLoopTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1),
        catalog_(ServletCatalog::browse_only_mix()) {}

  sim::Engine engine_;
  ntier::NTierApp app_;
  ServletCatalog catalog_;
};

TEST_F(OpenLoopTest, ThroughputMatchesArrivalRateWhenUnsaturated) {
  OpenLoopGenerator generator(engine_, app_, graph_request_factory(catalog_, *app_.graph()), 30.0);
  generator.start();
  engine_.run_until(sim::from_seconds(120.0));
  const double x = generator.stats().mean_throughput(sim::from_seconds(20.0),
                                                     sim::from_seconds(120.0));
  EXPECT_NEAR(x, 30.0, 2.0);
  EXPECT_EQ(generator.stats().errors(), 0u);
}

TEST_F(OpenLoopTest, RateChangeTakesEffect) {
  OpenLoopGenerator generator(engine_, app_, graph_request_factory(catalog_, *app_.graph()), 10.0);
  generator.start();
  engine_.run_until(sim::from_seconds(60.0));
  generator.set_arrival_rate(40.0);
  engine_.run_until(sim::from_seconds(160.0));
  const double x_late = generator.stats().mean_throughput(sim::from_seconds(80.0),
                                                          sim::from_seconds(160.0));
  EXPECT_NEAR(x_late, 40.0, 3.0);
}

TEST_F(OpenLoopTest, OverloadGrowsBacklog) {
  // Offered 120 req/s vs ~69 req/s capacity at default pools: outstanding
  // requests pile up instead of self-throttling.
  OpenLoopGenerator generator(engine_, app_, graph_request_factory(catalog_, *app_.graph()), 120.0);
  generator.start();
  engine_.run_until(sim::from_seconds(60.0));
  const int backlog_1m = generator.outstanding();
  engine_.run_until(sim::from_seconds(120.0));
  EXPECT_GT(generator.outstanding(), backlog_1m + 500);
}

TEST_F(OpenLoopTest, StopHaltsArrivals) {
  OpenLoopGenerator generator(engine_, app_, graph_request_factory(catalog_, *app_.graph()), 50.0);
  generator.start();
  engine_.run_until(sim::from_seconds(10.0));
  generator.stop();
  const uint64_t at_stop = generator.stats().completed();
  engine_.run_until(sim::from_seconds(20.0));
  // Outstanding drain, but no new arrivals: completions grow only by the
  // in-flight few.
  EXPECT_LE(generator.stats().completed(), at_stop + 100);
  EXPECT_EQ(generator.outstanding(), 0);
}

TEST_F(OpenLoopTest, ZeroRateIsIdle) {
  OpenLoopGenerator generator(engine_, app_, graph_request_factory(catalog_, *app_.graph()), 0.0);
  generator.start();
  engine_.run_until(sim::from_seconds(10.0));
  EXPECT_EQ(generator.stats().completed(), 0u);
}

TEST_F(OpenLoopTest, PoissonGapsHaveExponentialSpread) {
  // Indirect check: count arrivals in 1 s buckets; variance ≈ mean for a
  // Poisson process.
  OpenLoopGenerator generator(engine_, app_, graph_request_factory(catalog_, *app_.graph()), 20.0);
  generator.start();
  engine_.run_until(sim::from_seconds(300.0));
  const auto& buckets = generator.stats().throughput_series().buckets();
  metrics::Welford counts;
  for (size_t t = 20; t < buckets.size(); ++t) counts.add(buckets[t].stat.sum());
  EXPECT_NEAR(counts.variance() / counts.mean(), 1.0, 0.35);
}

}  // namespace
}  // namespace dcm::workload
