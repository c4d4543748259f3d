// Failure injection: crash semantics at server, VM, and tier level.
#include <gtest/gtest.h>

#include "core/topologies.h"
#include "ntier/tier.h"
#include "sim/engine.h"
#include "workload/closed_loop.h"

namespace dcm::ntier {
namespace {

ServerConfig slow_leaf(int threads = 4) {
  ServerConfig config;
  config.name = "leaf";
  config.cpu.params = {0.5, 0.0, 0.0};  // slow: requests stay in flight
  config.max_threads = threads;
  config.pre_fraction = 1.0;
  return config;
}

RequestPtr request() {
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0};
  req->downstream_calls = {0};
  return req;
}

TEST(ServerCrashTest, InFlightVisitsFailImmediately) {
  sim::Engine engine;
  Server server(engine, slow_leaf(), 0, Rng(1));
  int ok = 0, failed = 0;
  for (int i = 0; i < 6; ++i) {
    server.process(request(), [&](bool r) { (r ? ok : failed)++; });
  }
  engine.run_until(sim::from_seconds(0.1));
  server.crash();
  EXPECT_EQ(failed, 6);  // 4 in flight + 2 queued
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(server.in_flight(), 0);
  EXPECT_EQ(server.rejected(), 6u);
}

TEST(ServerCrashTest, ServerIsUsableAfterCrash) {
  sim::Engine engine;
  Server server(engine, slow_leaf(), 0, Rng(1));
  server.process(request(), [](bool) {});
  server.crash();
  bool ok = false;
  server.process(request(), [&](bool r) { ok = r; });
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_TRUE(ok);
  EXPECT_EQ(server.completed(), 1u);
}

TEST(ServerCrashTest, PendingCpuWorkIsDropped) {
  sim::Engine engine;
  Server server(engine, slow_leaf(), 0, Rng(1));
  server.process(request(), [](bool) {});
  server.crash();
  const uint64_t completed_at_crash = server.cpu().jobs_completed();
  engine.run_until(sim::from_seconds(2.0));
  // No ghost completion fires later.
  EXPECT_EQ(server.cpu().jobs_completed(), completed_at_crash);
  EXPECT_EQ(server.completed(), 0u);
}

TEST(ServerCrashTest, UpstreamSeesDownstreamCrashAsFailure) {
  sim::Engine engine;
  Rng rng(2);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8);
  Tier db_tier(engine, db, 1, rng);

  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  Server upstream(engine, up, 0, Rng(3));
  upstream.set_out_edges({{&db_tier, /*edge_id=*/0, /*pool_capacity=*/8, /*managed=*/true}});

  int ok = 0, failed = 0;
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0};
  req->downstream_calls = {1, 0};
  for (int i = 0; i < 4; ++i) upstream.process(req, [&](bool r) { (r ? ok : failed)++; });
  engine.run_until(sim::from_seconds(0.1));  // queries now in flight at db

  db_tier.fail_vm(db_tier.vms()[0]->id());
  engine.run_until(sim::from_seconds(0.2));
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(ok, 0);
  // Upstream released its own resources correctly.
  EXPECT_EQ(upstream.in_flight(), 0);
  EXPECT_EQ(upstream.downstream_connections_in_use(), 0);
}

TEST(ServerCrashTest, UpstreamCrashIgnoresLateDownstreamResponses) {
  sim::Engine engine;
  Rng rng(4);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8);
  Tier db_tier(engine, db, 1, rng);

  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  Server upstream(engine, up, 0, Rng(5));
  upstream.set_out_edges({{&db_tier, /*edge_id=*/0, /*pool_capacity=*/8, /*managed=*/true}});

  int failed = 0;
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0};
  req->downstream_calls = {1, 0};
  for (int i = 0; i < 3; ++i) upstream.process(req, [&](bool r) { failed += r ? 0 : 1; });
  engine.run_until(sim::from_seconds(0.1));  // queries in flight at db

  upstream.crash();
  EXPECT_EQ(failed, 3);
  // The DB responses arrive ~0.5 s later and must be dropped harmlessly.
  engine.run_until(sim::from_seconds(2.0));
  EXPECT_EQ(upstream.in_flight(), 0);
  EXPECT_EQ(upstream.downstream_connections_in_use(), 0);
  EXPECT_EQ(db_tier.completed(), 3u);  // db finished its work normally
}

TEST(VmFailTest, FailedVmLeavesBalancer) {
  sim::Engine engine;
  Rng rng(6);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf(4);
  config.initial_vms = 2;
  config.max_vms = 4;
  Tier tier(engine, config, 0, rng);

  ASSERT_TRUE(tier.fail_vm("app-vm0"));
  EXPECT_EQ(tier.active_vm_count(), 1);
  EXPECT_EQ(tier.failed_vm_count(), 1);
  // All new work routes to the survivor.
  for (int i = 0; i < 4; ++i) tier.dispatch(request(), [](bool) {});
  EXPECT_EQ(tier.vms()[1]->server().in_flight(), 4);
  EXPECT_EQ(tier.vms()[0]->server().in_flight(), 0);
}

TEST(VmFailTest, FailBootingVmNeverActivates) {
  sim::Engine engine;
  Rng rng(7);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf(4);
  config.initial_vms = 1;
  config.max_vms = 4;
  Tier tier(engine, config, 0, rng);
  tier.scale_out();
  ASSERT_EQ(tier.booting_vm_count(), 1);
  ASSERT_TRUE(tier.fail_vm("app-vm1"));
  engine.run_until(sim::from_seconds(30.0));
  EXPECT_EQ(tier.active_vm_count(), 1);
  EXPECT_EQ(tier.failed_vm_count(), 1);
}

TEST(VmFailTest, FailDuringDrainNotifiesDrainCallbackWithFailed) {
  // Regression: a crash mid-drain used to clear the idle callback without
  // firing the drain's on_stopped, leaking the scale-in bookkeeping forever.
  sim::Engine engine;
  Vm vm(engine, "vm0", 0, std::make_unique<Server>(engine, slow_leaf(), 0, Rng(9)), 0,
        [](Vm&) {});
  vm.server().process(request(), [](bool) {});  // keeps the drain pending
  int notified = 0;
  bool failed_flag = false;
  vm.begin_drain([&](Vm&, bool failed) {
    ++notified;
    failed_flag = failed;
  });
  ASSERT_EQ(vm.state(), VmState::kDraining);

  vm.fail();
  EXPECT_EQ(vm.state(), VmState::kFailed);
  EXPECT_EQ(notified, 1);
  EXPECT_TRUE(failed_flag);
  // The server going idle later must not re-fire the callback.
  engine.run_until(sim::from_seconds(2.0));
  EXPECT_EQ(notified, 1);
}

TEST(VmFailTest, CleanDrainStillReportsNotFailed) {
  sim::Engine engine;
  Vm vm(engine, "vm0", 0, std::make_unique<Server>(engine, slow_leaf(), 0, Rng(10)), 0,
        [](Vm&) {});
  vm.server().process(request(), [](bool) {});
  bool failed_flag = true;
  int notified = 0;
  vm.begin_drain([&](Vm&, bool failed) {
    ++notified;
    failed_flag = failed;
  });
  engine.run_until(sim::from_seconds(2.0));
  EXPECT_EQ(vm.state(), VmState::kStopped);
  EXPECT_EQ(notified, 1);
  EXPECT_FALSE(failed_flag);
}

TEST(ServerCrashTest, NestedDownstreamCrashFailsEachVisitExactlyOnce) {
  // Epoch bookkeeping with nested sub-requests: the DB crashes while app
  // visits are blocked on it. Each visit's done callback must fire exactly
  // once (the crash-time failure), with no second completion when stray
  // events or late responses surface afterwards.
  sim::Engine engine;
  Rng rng(11);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8);
  Tier db_tier(engine, db, 1, rng);

  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  Server upstream(engine, up, 0, Rng(12));
  upstream.set_out_edges({{&db_tier, /*edge_id=*/0, /*pool_capacity=*/8, /*managed=*/true}});

  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0};
  req->downstream_calls = {1, 0};
  std::vector<int> done_counts(5, 0);
  std::vector<bool> results(5, true);
  for (int i = 0; i < 5; ++i) {
    upstream.process(req, [&done_counts, &results, i](bool ok) {
      ++done_counts[i];
      results[i] = ok;
    });
  }
  engine.run_until(sim::from_seconds(0.1));  // queries blocked at the db

  db_tier.fail_vm(db_tier.vms()[0]->id());
  engine.run_until(sim::from_seconds(2.0));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(done_counts[i], 1) << "visit " << i;
    EXPECT_FALSE(results[i]) << "visit " << i;
  }
  EXPECT_EQ(upstream.in_flight(), 0);
  EXPECT_EQ(upstream.downstream_connections_in_use(), 0);
}

TEST(ServerCrashTest, FanOutCrashFailsEachVisitExactlyOnce) {
  // A fan-out server crashes with branch calls in flight on both edges and
  // more queued on both edge pools. Each visit fails once, at the crash;
  // the late branch responses are ignored; every edge pool is free again.
  sim::Engine engine;
  Rng rng(13);
  TierConfig cache;
  cache.name = "cache";
  cache.server = slow_leaf(8);
  Tier cache_tier(engine, cache, 1, rng);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8);
  Tier db_tier(engine, db, 2, rng);

  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  Server upstream(engine, up, 0, Rng(14));
  upstream.set_out_edges({{&cache_tier, /*edge_id=*/0, /*pool_capacity=*/4, /*managed=*/false},
                          {&db_tier, /*edge_id=*/1, /*pool_capacity=*/2, /*managed=*/true}});

  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0, 1.0};
  req->downstream_calls = {1, 1};
  std::vector<int> done_counts(5, 0);
  std::vector<bool> results(5, true);
  for (int i = 0; i < 5; ++i) {
    upstream.process(req, [&done_counts, &results, i](bool ok) {
      ++done_counts[i];
      results[i] = ok;
    });
  }
  engine.run_until(sim::from_seconds(0.1));  // branches in flight and queued
  ASSERT_EQ(upstream.downstream_connections_in_use(), 2);

  upstream.crash();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(done_counts[i], 1) << "visit " << i;
    EXPECT_FALSE(results[i]) << "visit " << i;
  }
  EXPECT_EQ(upstream.downstream_connections_in_use(), 0);

  // Four fresh visits need all four cache-pool slots: they complete only if
  // the crash left no slot held by a pre-crash branch.
  int fresh_ok = 0;
  for (int i = 0; i < 4; ++i) upstream.process(req, [&](bool ok) { fresh_ok += ok ? 1 : 0; });
  engine.run_until(sim::from_seconds(30.0));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(done_counts[i], 1) << "visit " << i;
  EXPECT_EQ(fresh_ok, 4);
  EXPECT_EQ(upstream.in_flight(), 0);
  EXPECT_EQ(upstream.downstream_connections_in_use(), 0);
  EXPECT_EQ(cache_tier.completed(), 4u + 4u);  // pre-crash calls finished normally
  EXPECT_EQ(db_tier.completed(), 2u + 4u);
}

TEST(VmFailTest, CannotFailDeadVm) {
  sim::Engine engine;
  Rng rng(8);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf(4);
  config.initial_vms = 1;
  config.max_vms = 4;
  Tier tier(engine, config, 0, rng);
  ASSERT_TRUE(tier.fail_one());
  EXPECT_FALSE(tier.fail_vm("app-vm0"));
  EXPECT_FALSE(tier.fail_vm("no-such-vm"));
}

}  // namespace
}  // namespace dcm::ntier
