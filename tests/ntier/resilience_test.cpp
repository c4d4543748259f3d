// Resilience mechanisms at the ntier layer: passive balancer health checks,
// the tier health sweep (eject + replacement launch = MTTR), and the
// inter-tier sub-request deadline/retry discipline on chain and fan-out
// edges alike.
#include <gtest/gtest.h>

#include "core/topologies.h"
#include "ntier/tier.h"
#include "sim/engine.h"

namespace dcm::ntier {
namespace {

ServerConfig slow_leaf(int threads = 4, double service_s = 0.5) {
  ServerConfig config;
  config.name = "leaf";
  config.cpu.params = {service_s, 0.0, 0.0};
  config.max_threads = threads;
  config.pre_fraction = 1.0;
  return config;
}

TEST(LoadBalancerHealthTest, ConsecutiveFailuresMarkMemberDown) {
  sim::Engine engine;
  Server a(engine, slow_leaf(), 0, Rng(1));
  Server b(engine, slow_leaf(), 0, Rng(2));
  LoadBalancer lb(LbPolicy::kRoundRobin);
  lb.add(&a);
  lb.add(&b);
  lb.set_health_policy(3);

  lb.report_result(&a, false);
  lb.report_result(&a, false);
  EXPECT_FALSE(lb.is_down(&a));
  lb.report_result(&a, false);
  EXPECT_TRUE(lb.is_down(&a));
  EXPECT_EQ(lb.consecutive_failures(&a), 3);

  // pick() now only returns the healthy member.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(lb.pick(), &b);

  // One success resets the streak and brings the member back.
  lb.report_result(&a, true);
  EXPECT_FALSE(lb.is_down(&a));
  EXPECT_EQ(lb.consecutive_failures(&a), 0);
}

TEST(LoadBalancerHealthTest, AllMembersDownYieldsNull) {
  sim::Engine engine;
  Server a(engine, slow_leaf(), 0, Rng(3));
  LoadBalancer lb(LbPolicy::kRoundRobin);
  lb.add(&a);
  lb.set_health_policy(1);
  lb.report_result(&a, false);
  EXPECT_EQ(lb.pick(), nullptr);
}

TEST(LoadBalancerHealthTest, DisabledPolicyKeepsLegacyPick) {
  sim::Engine engine;
  Server a(engine, slow_leaf(), 0, Rng(4));
  Server b(engine, slow_leaf(), 0, Rng(5));
  LoadBalancer lb(LbPolicy::kRoundRobin);
  lb.add(&a);
  lb.add(&b);
  // No health policy: failures are not tracked and rotation is untouched.
  lb.report_result(&a, false);
  EXPECT_EQ(lb.consecutive_failures(&a), 0);
  EXPECT_EQ(lb.pick(), &a);
  EXPECT_EQ(lb.pick(), &b);
}

TEST(TierHealthSweepTest, SilentCrashIsEjectedAndReplacedWithinMttrBound) {
  sim::Engine engine;
  Rng rng(6);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf();
  config.initial_vms = 2;
  config.max_vms = 4;
  Tier tier(engine, config, 0, rng);
  HealthCheckConfig health;
  health.period_seconds = 5.0;
  tier.enable_health_checks(health);
  EXPECT_TRUE(tier.health_checks_enabled());

  // Silent crash at t=7: the dead server stays in the balancer until the
  // next sweep (t=10) ejects it and launches a replacement.
  engine.schedule_at(sim::from_seconds(7.0), [&] { tier.inject_crash("app-vm0"); });
  engine.run_until(sim::from_seconds(9.9));
  EXPECT_TRUE(tier.balancer().contains(&tier.vms()[0]->server()));
  EXPECT_EQ(tier.active_vm_count(), 1);

  engine.run_until(sim::from_seconds(10.1));
  EXPECT_FALSE(tier.balancer().contains(&tier.vms()[0]->server()));
  EXPECT_EQ(tier.booting_vm_count(), 1);

  // MTTR = detection (≤ one period) + 15 s boot: capacity is restored by
  // t = 10 + 15 = 25.
  engine.run_until(sim::from_seconds(25.1));
  EXPECT_EQ(tier.active_vm_count(), 2);

  ASSERT_EQ(tier.events().size(), 2u);
  EXPECT_EQ(tier.events()[0].kind, "lb_eject");
  EXPECT_EQ(tier.events()[0].detail, "app-vm0");
  EXPECT_EQ(tier.events()[1].kind, "replace_launch");
}

TEST(TierHealthSweepTest, ReplacementRespectsMaxVms) {
  sim::Engine engine;
  Rng rng(7);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf();
  config.initial_vms = 2;
  config.max_vms = 3;
  Tier tier(engine, config, 0, rng);
  tier.enable_health_checks({});

  // The controller already scaled out before the sweep runs, so the tier is
  // fully provisioned (1 active + 1 booting + the corpse ejected below):
  // the sweep must not over-provision past max_vms with a replacement.
  tier.inject_crash("app-vm0");
  ASSERT_TRUE(tier.scale_out());
  ASSERT_TRUE(tier.scale_out());
  engine.run_until(sim::from_seconds(6.0));
  EXPECT_EQ(tier.booting_vm_count(), 2);
  ASSERT_EQ(tier.events().size(), 1u);
  EXPECT_EQ(tier.events()[0].kind, "lb_eject");
}

TEST(TierHealthSweepTest, ReplacementVmFeedsPassiveFailureTracking) {
  sim::Engine engine;
  Rng rng(16);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf();
  config.initial_vms = 2;
  config.max_vms = 3;
  Tier tier(engine, config, 0, rng);
  HealthCheckConfig health;
  health.period_seconds = 5.0;
  health.failure_threshold = 10;
  tier.enable_health_checks(health);

  // app-vm0 crashes at t=7; the t=10 sweep ejects it and launches app-vm2,
  // which enters service at t=25 — long after health checks were enabled.
  engine.schedule_at(sim::from_seconds(7.0), [&] { tier.inject_crash("app-vm0"); });
  engine.run_until(sim::from_seconds(26.0));
  ASSERT_EQ(tier.vms().size(), 3u);
  const Server& fresh = tier.vms()[2]->server();
  ASSERT_TRUE(tier.balancer().contains(&fresh));

  // The replacement dies silently and stays in the balancer until the next
  // sweep: every visit routed to it fails fast, and each failure must reach
  // the balancer's passive tracking.
  ASSERT_TRUE(tier.inject_crash("app-vm2"));
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0};
  int failed = 0;
  for (int i = 0; i < 6; ++i) tier.dispatch(req, [&](bool r) { failed += r ? 0 : 1; });
  EXPECT_EQ(failed, 3);  // round-robin over {app-vm1, app-vm2}
  EXPECT_EQ(tier.balancer().consecutive_failures(&fresh), 3);
}

TEST(TierHealthSweepTest, CrashReportsOneFailurePerFailedVisit) {
  sim::Engine engine;
  Rng rng(17);
  TierConfig config;
  config.name = "app";
  config.server = slow_leaf(/*threads=*/4);
  Tier tier(engine, config, 0, rng);
  HealthCheckConfig health;
  health.failure_threshold = 10;
  tier.enable_health_checks(health);

  // Six visits: four hold a worker, two wait in the accept queue.
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0};
  int failed = 0;
  for (int i = 0; i < 6; ++i) tier.dispatch(req, [&](bool r) { failed += r ? 0 : 1; });
  engine.run_until(sim::from_seconds(0.1));
  Server& server = tier.vms()[0]->server();
  ASSERT_EQ(server.in_flight(), 4);
  ASSERT_EQ(server.queue_length(), 2);

  // A crash with the server still in the balancer fails all six visits;
  // the balancer hears each failure exactly once.
  server.crash();
  EXPECT_EQ(failed, 6);
  EXPECT_EQ(tier.balancer().consecutive_failures(&server), 6);
  engine.run_until(sim::from_seconds(5.0));
  EXPECT_EQ(tier.balancer().consecutive_failures(&server), 6);  // no late reports
}

TEST(SubRequestRetryTest, RetryRecoversVisitAfterDownstreamFastFail) {
  sim::Engine engine;
  Rng rng(8);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8, 0.05);
  db.initial_vms = 2;
  db.max_vms = 4;
  Tier db_tier(engine, db, 1, rng);
  // db-vm0 is silently dead: round-robin sends every other sub-request to a
  // fast-failing corpse.
  ASSERT_TRUE(db_tier.inject_crash("db-vm0"));

  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  Server upstream(engine, up, 0, Rng(9));
  upstream.set_out_edges({{&db_tier, /*edge_id=*/0, /*pool_capacity=*/8, /*managed=*/true}});
  SubRequestRetryPolicy retry;
  retry.max_retries = 1;
  retry.backoff_base_seconds = 0.01;
  upstream.set_subrequest_retry(retry);

  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0};
  req->downstream_calls = {1, 0};
  int ok = 0, failed = 0;
  for (int i = 0; i < 6; ++i) {
    engine.schedule_at(sim::from_seconds(0.2 * i),
                       [&, req] { upstream.process(req, [&](bool r) { (r ? ok : failed)++; }); });
  }
  engine.run_until(sim::from_seconds(5.0));

  // Every visit completes: sub-requests that hit the corpse fail fast and
  // the single retry lands on the survivor.
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(upstream.subrequest_retries(), 0u);
}

TEST(SubRequestRetryTest, DeadlineExpirationsAreCountedAndBounded) {
  sim::Engine engine;
  Rng rng(10);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8, 0.5);  // far beyond the 10 ms deadline
  Tier db_tier(engine, db, 1, rng);

  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  Server upstream(engine, up, 0, Rng(11));
  upstream.set_out_edges({{&db_tier, /*edge_id=*/0, /*pool_capacity=*/8, /*managed=*/true}});
  SubRequestRetryPolicy retry;
  retry.timeout_seconds = 0.01;
  retry.max_retries = 1;
  retry.backoff_base_seconds = 0.01;
  upstream.set_subrequest_retry(retry);

  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0};
  req->downstream_calls = {1, 0};
  bool done_ok = true;
  int done_count = 0;
  upstream.process(req, [&](bool r) {
    done_ok = r;
    ++done_count;
  });
  engine.run_until(sim::from_seconds(5.0));

  // Both attempts timed out; the visit failed exactly once.
  EXPECT_EQ(done_count, 1);
  EXPECT_FALSE(done_ok);
  EXPECT_EQ(upstream.subrequest_timeouts(), 2u);
  EXPECT_EQ(upstream.subrequest_retries(), 1u);
  // The late DB completions were dropped harmlessly.
  EXPECT_EQ(upstream.in_flight(), 0);
  EXPECT_EQ(upstream.downstream_connections_in_use(), 0);
  EXPECT_EQ(db_tier.completed(), 2u);
}

// A fan-out node: a cache branch (edge 0, no pool) and a db branch (edge 1,
// the managed pool), joined before the post-CPU phase.
std::unique_ptr<Server> fanout_server(sim::Engine& engine, Tier* cache, Tier* db,
                                      const SubRequestRetryPolicy& retry) {
  ServerConfig up;
  up.name = "app";
  up.cpu.params = {0.01, 0.0, 0.0};
  up.max_threads = 8;
  auto server = std::make_unique<Server>(engine, up, 0, Rng(13));
  server->set_out_edges({{cache, /*edge_id=*/0, /*pool_capacity=*/0, /*managed=*/false},
                         {db, /*edge_id=*/1, /*pool_capacity=*/4, /*managed=*/true}});
  server->set_subrequest_retry(retry);
  return server;
}

RequestPtr fanout_request() {
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0, 1.0, 1.0};
  req->downstream_calls = {1, 1};  // one cache call, one db call
  return req;
}

TEST(SubRequestRetryTest, FanOutBranchRecoversFromFastFailThroughRetry) {
  sim::Engine engine;
  Rng rng(14);
  TierConfig cache;
  cache.name = "cache";
  cache.server = slow_leaf(8, 0.01);
  cache.initial_vms = 2;
  cache.max_vms = 2;
  Tier cache_tier(engine, cache, 1, rng);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8, 0.05);
  Tier db_tier(engine, db, 2, rng);
  // The balancer's first pick is the silently dead cache-vm0: the cache
  // branch fast-fails once and its retry lands on cache-vm1.
  ASSERT_TRUE(cache_tier.inject_crash("cache-vm0"));

  SubRequestRetryPolicy retry;
  retry.max_retries = 1;
  retry.backoff_base_seconds = 0.01;
  const auto upstream = fanout_server(engine, &cache_tier, &db_tier, retry);
  int ok = 0, failed = 0;
  upstream->process(fanout_request(), [&](bool r) { (r ? ok : failed)++; });
  engine.run_until(sim::from_seconds(2.0));

  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(upstream->subrequest_retries(), 1u);
  EXPECT_EQ(cache_tier.vms()[1]->server().completed(), 1u);
  EXPECT_EQ(db_tier.completed(), 1u);
  EXPECT_EQ(upstream->downstream_connections_in_use(), 0);
}

TEST(SubRequestRetryTest, FanOutBranchDeadlineFailsTheJoinExactlyOnce) {
  sim::Engine engine;
  Rng rng(15);
  TierConfig cache;
  cache.name = "cache";
  cache.server = slow_leaf(8, 0.01);
  Tier cache_tier(engine, cache, 1, rng);
  TierConfig db;
  db.name = "db";
  db.server = slow_leaf(8, 0.5);  // far beyond the 0.1 s deadline
  Tier db_tier(engine, db, 2, rng);

  SubRequestRetryPolicy retry;
  retry.timeout_seconds = 0.1;
  const auto upstream = fanout_server(engine, &cache_tier, &db_tier, retry);
  int done_count = 0;
  bool done_ok = true;
  upstream->process(fanout_request(), [&](bool r) {
    done_ok = r;
    ++done_count;
  });
  engine.run_until(sim::from_seconds(5.0));

  // The db branch timed out; the cache branch succeeded; the join failed
  // the visit once, and the db's late response was dropped.
  EXPECT_EQ(done_count, 1);
  EXPECT_FALSE(done_ok);
  EXPECT_EQ(upstream->subrequest_timeouts(), 1u);
  EXPECT_EQ(upstream->subrequest_retries(), 0u);
  EXPECT_EQ(cache_tier.completed(), 1u);
  EXPECT_EQ(db_tier.completed(), 1u);
  EXPECT_EQ(upstream->in_flight(), 0);
  EXPECT_EQ(upstream->downstream_connections_in_use(), 0);
}

}  // namespace
}  // namespace dcm::ntier
