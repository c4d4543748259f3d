#include "ntier/server.h"

#include <gtest/gtest.h>

#include "ntier/tier.h"
#include "sim/engine.h"

namespace dcm::ntier {
namespace {

ServerConfig leaf_config(double s0 = 0.010, int threads = 4) {
  ServerConfig config;
  config.name = "leaf";
  config.cpu.params = {s0, 0.0, 0.0};
  config.max_threads = threads;
  config.pre_fraction = 1.0;
  return config;
}

// An app server calling the db tier along edge 0 through a pool of `conns`.
std::unique_ptr<Server> app_server(sim::Engine& engine, Tier* db, int conns) {
  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.010, 0.0, 0.0};
  up.max_threads = 10;
  up.pre_fraction = 0.5;
  auto server = std::make_unique<Server>(engine, up, /*depth=*/0, Rng(3));
  server->set_out_edges({{db, /*edge_id=*/0, /*pool_capacity=*/conns, /*managed=*/true}});
  return server;
}

RequestPtr simple_request(uint64_t id = 1) {
  auto req = std::make_shared<RequestContext>();
  req->id = id;
  req->demand_scale = {1.0};
  req->downstream_calls = {0};
  return req;
}

TEST(ServerTest, CompletesSingleRequest) {
  sim::Engine engine;
  Server server(engine, leaf_config(), 0, Rng(1));
  bool ok = false;
  server.process(simple_request(), [&](bool r) { ok = r; });
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_TRUE(ok);
  EXPECT_EQ(server.completed(), 1u);
  EXPECT_EQ(server.in_flight(), 0);
}

TEST(ServerTest, ResponseTimeIncludesQueueing) {
  sim::Engine engine;
  Server server(engine, leaf_config(0.010, 1), 0, Rng(1));
  for (int i = 0; i < 3; ++i) server.process(simple_request(), [](bool) {});
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_EQ(server.completed(), 3u);
  // Visits of 10 ms each through one worker: RTs 10, 20, 30 ms.
  EXPECT_NEAR(server.response_time_sum(), 0.060, 1e-6);
}

TEST(ServerTest, DemandScaleMultipliesWork) {
  sim::Engine engine;
  Server server(engine, leaf_config(), 0, Rng(1));
  auto req = simple_request();
  req->demand_scale = {3.0};
  bool done = false;
  server.process(req, [&](bool) { done = true; });
  engine.run_until(sim::from_seconds(0.025));
  EXPECT_FALSE(done);  // needs 30 ms
  engine.run_until(sim::from_seconds(0.035));
  EXPECT_TRUE(done);
}

TEST(ServerTest, AcceptQueueOverflowRejects) {
  sim::Engine engine;
  ServerConfig config = leaf_config(0.010, 1);
  config.max_queue = 2;
  Server server(engine, config, 0, Rng(1));
  int rejected = 0, accepted = 0;
  for (int i = 0; i < 5; ++i) {
    server.process(simple_request(), [&](bool ok) { (ok ? accepted : rejected)++; });
  }
  engine.run_until(sim::from_seconds(1.0));
  // 1 in service + 2 queued accepted, 2 rejected immediately.
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(server.rejected(), 2u);
}

TEST(ServerTest, ThreadPoolResizeTakesEffect) {
  sim::Engine engine;
  Server server(engine, leaf_config(0.010, 1), 0, Rng(1));
  server.set_thread_pool_size(4);
  EXPECT_EQ(server.thread_pool_size(), 4);
  for (int i = 0; i < 4; ++i) server.process(simple_request(), [](bool) {});
  EXPECT_EQ(server.in_flight(), 4);
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_EQ(server.completed(), 4u);
}

TEST(ServerTest, IdleCallbackFiresWhenDrained) {
  sim::Engine engine;
  Server server(engine, leaf_config(0.010, 2), 0, Rng(1));
  int idle_calls = 0;
  server.set_idle_callback([&] { ++idle_calls; });
  server.process(simple_request(), [](bool) {});
  server.process(simple_request(), [](bool) {});
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_EQ(idle_calls, 1);  // both complete at the same PS instant
}

class TwoTierFixture : public ::testing::Test {
 protected:
  // A minimal upstream server + downstream tier to exercise nested calls.
  TwoTierFixture() {
    TierConfig db;
    db.name = "db";
    db.server = leaf_config(0.010, 100);
    db.initial_vms = 1;
    db.max_vms = 1;
    db_tier_ = std::make_unique<Tier>(engine_, db, /*depth=*/1, rng_);
    upstream_ = app_server(engine_, db_tier_.get(), /*conns=*/2);
  }

  RequestPtr nested_request(int calls) {
    auto req = std::make_shared<RequestContext>();
    req->id = 9;
    req->demand_scale = {1.0, 1.0};
    req->downstream_calls = {calls, 0};
    return req;
  }

  sim::Engine engine_;
  Rng rng_{2};
  std::unique_ptr<Tier> db_tier_;
  std::unique_ptr<Server> upstream_;
};

TEST_F(TwoTierFixture, NestedCallsReachDownstream) {
  bool ok = false;
  upstream_->process(nested_request(2), [&](bool r) { ok = r; });
  engine_.run_until(sim::from_seconds(1.0));
  EXPECT_TRUE(ok);
  EXPECT_EQ(upstream_->completed(), 1u);
  EXPECT_EQ(db_tier_->completed(), 2u);  // two queries
}

TEST_F(TwoTierFixture, VisitTimeSumsPhasesAndCalls) {
  bool done = false;
  upstream_->process(nested_request(2), [&](bool) { done = true; });
  // pre 5ms + 2 sequential queries 10ms + post 5ms = 30ms.
  engine_.run_until(sim::from_seconds(0.029));
  EXPECT_FALSE(done);
  engine_.run_until(sim::from_seconds(0.031));
  EXPECT_TRUE(done);
}

TEST_F(TwoTierFixture, ConnectionPoolLimitsDownstreamConcurrency) {
  // 6 requests, each 1 query; conn pool = 2 → at most 2 queries in flight.
  for (int i = 0; i < 6; ++i) upstream_->process(nested_request(1), [](bool) {});
  int max_db_inflight = 0;
  engine_.schedule_periodic(sim::from_millis(1.0), [&] {
    max_db_inflight = std::max(max_db_inflight, db_tier_->total_in_flight());
  });
  engine_.run_until(sim::from_seconds(1.0));
  EXPECT_LE(max_db_inflight, 2);
  EXPECT_EQ(db_tier_->completed(), 6u);
}

TEST_F(TwoTierFixture, ConnectionPoolResizeRaisesConcurrency) {
  upstream_->set_downstream_connections(6);
  for (int i = 0; i < 6; ++i) upstream_->process(nested_request(1), [](bool) {});
  int max_db_inflight = 0;
  engine_.schedule_periodic(sim::from_millis(0.5), [&] {
    max_db_inflight = std::max(max_db_inflight, db_tier_->total_in_flight());
  });
  engine_.run_until(sim::from_seconds(1.0));
  EXPECT_GE(max_db_inflight, 3);
}

TEST_F(TwoTierFixture, DownstreamFailurePropagates) {
  // Shrink the DB accept queue to force rejections.
  TierConfig db;
  db.name = "db2";
  db.server = leaf_config(0.050, 1);
  db.server.max_queue = 0;
  Rng rng(5);
  Tier tight(engine_, db, 1, rng);
  const auto upstream = app_server(engine_, &tight, /*conns=*/4);

  int failures = 0, successes = 0;
  for (int i = 0; i < 4; ++i) {
    upstream->process(nested_request(1), [&](bool ok) { (ok ? successes : failures)++; });
  }
  engine_.run_until(sim::from_seconds(2.0));
  EXPECT_EQ(successes + failures, 4);
  EXPECT_GE(failures, 1);  // the DB rejects queue-overflow queries
}

}  // namespace
}  // namespace dcm::ntier
