#include "workload/closed_loop.h"

#include <gtest/gtest.h>

#include "core/topologies.h"

namespace dcm::workload {
namespace {

class ClosedLoopTest : public ::testing::Test {
 protected:
  ClosedLoopTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1),
        catalog_(ServletCatalog::browse_only_mix()) {}

  sim::Engine engine_;
  ntier::NTierApp app_;
  ServletCatalog catalog_;
};

TEST_F(ClosedLoopTest, JmeterMaintainsExactConcurrency) {
  auto generator = make_jmeter(engine_, app_, catalog_, 15);
  generator->start();
  engine_.run_until(sim::from_seconds(5.0));
  EXPECT_EQ(generator->live_users(), 15);
  // Zero think time ⇒ every user has exactly one request in flight, and
  // each holds a front-tier (Apache) worker for its whole lifetime.
  EXPECT_EQ(app_.tier(0).total_in_flight(), 15);
}

TEST_F(ClosedLoopTest, CompletionsAreRecorded) {
  auto generator = make_jmeter(engine_, app_, catalog_, 5);
  generator->start();
  engine_.run_until(sim::from_seconds(10.0));
  EXPECT_GT(generator->stats().completed(), 100u);
  EXPECT_EQ(generator->stats().errors(), 0u);
  EXPECT_GT(generator->stats().response_time_stats().mean(), 0.0);
}

TEST_F(ClosedLoopTest, ThinkTimeThrottlesThroughput) {
  auto thinky = make_rubbos_clients(engine_, app_, catalog_, 30, 3.0);
  thinky->start();
  engine_.run_until(sim::from_seconds(60.0));
  // 30 users with 3 s think and fast responses → ~10 req/s.
  const double x = thinky->stats().mean_throughput(sim::from_seconds(20.0),
                                                   sim::from_seconds(60.0));
  EXPECT_NEAR(x, 10.0, 1.5);
}

TEST_F(ClosedLoopTest, RampUpAddsUsers) {
  auto generator = make_rubbos_clients(engine_, app_, catalog_, 10);
  generator->start();
  engine_.run_until(sim::from_seconds(5.0));
  generator->set_user_count(50);
  engine_.run_until(sim::from_seconds(10.0));
  EXPECT_EQ(generator->live_users(), 50);
}

TEST_F(ClosedLoopTest, RampDownParksUsers) {
  auto generator = make_jmeter(engine_, app_, catalog_, 40);
  generator->start();
  engine_.run_until(sim::from_seconds(5.0));
  generator->set_user_count(10);
  engine_.run_until(sim::from_seconds(10.0));
  EXPECT_EQ(generator->live_users(), 10);
}

TEST_F(ClosedLoopTest, StopDrainsAllUsers) {
  auto generator = make_jmeter(engine_, app_, catalog_, 20);
  generator->start();
  engine_.run_until(sim::from_seconds(5.0));
  generator->stop();
  engine_.run_until(sim::from_seconds(15.0));
  EXPECT_EQ(generator->live_users(), 0);
  int total = 0;
  for (size_t i = 0; i < app_.tier_count(); ++i) total += app_.tier(i).total_in_flight();
  EXPECT_EQ(total, 0);
}

TEST_F(ClosedLoopTest, ZeroUsersIsValid) {
  auto generator = make_jmeter(engine_, app_, catalog_, 0);
  generator->start();
  engine_.run_until(sim::from_seconds(5.0));
  EXPECT_EQ(generator->stats().completed(), 0u);
}

TEST_F(ClosedLoopTest, DeterministicAcrossRuns) {
  uint64_t completed_first = 0;
  for (int run = 0; run < 2; ++run) {
    sim::Engine engine;
    ntier::NTierApp app(
        engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 7);
    auto generator = make_rubbos_clients(engine, app, catalog_, 50, 3.0, /*seed=*/7);
    generator->start();
    engine.run_until(sim::from_seconds(30.0));
    if (run == 0) {
      completed_first = generator->stats().completed();
    } else {
      EXPECT_EQ(generator->stats().completed(), completed_first);
    }
  }
}

TEST_F(ClosedLoopTest, CustomFactoryIsUsed) {
  int calls = 0;
  RequestFactory factory = [&](sim::Arena*, uint64_t id, Rng&, sim::SimTime now) {
    ++calls;
    auto req = std::make_shared<ntier::RequestContext>();
    req->id = id;
    req->created = now;
    req->demand_scale = {1.0, 1.0, 1.0};
    req->downstream_calls = {1, 1, 0};
    return req;
  };
  ClosedLoopConfig config;
  config.users = 3;
  ClosedLoopGenerator generator(engine_, app_, std::move(factory), std::move(config));
  generator.start();
  engine_.run_until(sim::from_seconds(2.0));
  EXPECT_GT(calls, 3);
}

}  // namespace
}  // namespace dcm::workload
