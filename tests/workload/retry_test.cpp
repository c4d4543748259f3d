// Client-side deadline/retry (resilience mechanism) and the ClientStats
// failure accounting behind goodput / error-rate reporting.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/topologies.h"
#include "workload/closed_loop.h"

namespace dcm::workload {
namespace {

TEST(ClientRetryTest, DeadlineExpirationsAreTimeoutsThenFinalError) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_jmeter(engine, app, catalog, 1);

  // A 1 ms deadline is far below any servlet's service time, so every
  // attempt times out: each cycle is exactly (max_retries + 1) timeouts,
  // max_retries re-issues, and one final error.
  RetryPolicy policy;
  policy.timeout_seconds = 0.001;
  policy.max_retries = 1;
  policy.backoff_base_seconds = 0.01;
  generator->set_retry_policy(policy);
  generator->start();
  engine.run_until(sim::from_seconds(10.0));
  generator->stop();
  engine.run_until(sim::from_seconds(12.0));

  const ClientStats& stats = generator->stats();
  EXPECT_EQ(stats.completed(), 0u);
  EXPECT_GT(stats.errors(), 0u);
  EXPECT_EQ(stats.timeouts(), 2 * stats.errors());
  EXPECT_EQ(stats.retries(), stats.errors());
}

TEST(ClientRetryTest, RetryRecoversFromSilentlyCrashedBackend) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  // tomcat-vm0 crashes silently: the balancer keeps routing to it and every
  // visit that lands there fails fast. Without retries those surface as
  // client errors; with one retry the re-issue lands on the survivor.
  ASSERT_TRUE(app.tier(1).inject_crash("tomcat-vm0"));

  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_jmeter(engine, app, catalog, 1);
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_seconds = 0.01;
  generator->set_retry_policy(policy);
  generator->start();
  engine.run_until(sim::from_seconds(30.0));

  const ClientStats& stats = generator->stats();
  EXPECT_EQ(stats.errors(), 0u);
  EXPECT_GT(stats.completed(), 20u);
  EXPECT_GT(stats.retries(), 0u);
  EXPECT_EQ(stats.timeouts(), 0u);  // failure-driven retries, no deadline set
}

TEST(ClientRetryTest, DisabledPolicyKeepsLegacyAccounting) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_jmeter(engine, app, catalog, 4);
  ASSERT_FALSE(generator->retry_policy().enabled());
  generator->start();
  engine.run_until(sim::from_seconds(10.0));

  const ClientStats& stats = generator->stats();
  EXPECT_GT(stats.completed(), 0u);
  EXPECT_EQ(stats.timeouts(), 0u);
  EXPECT_EQ(stats.retries(), 0u);
}

// One user over the 3-tier chain with two app VMs, both slowed to a crawl:
// round-robin sends a request's first attempt to tomcat-vm0 and its re-issue
// to tomcat-vm1. The generator starts without stagger or think time, so the
// timeline below is exact.
struct SlowAppFixture {
  sim::Engine engine;
  ntier::NTierApp app{
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1};
  ServletCatalog catalog = ServletCatalog::browse_only_mix();
  std::unique_ptr<ClosedLoopGenerator> generator;

  explicit SlowAppFixture(const RetryPolicy& policy) {
    for (int vm = 0; vm < 2; ++vm) app_server(vm).set_cpu_capacity_factor(0.001);
    ClosedLoopConfig config;
    config.users = 1;
    config.start_stagger = 0;
    generator = std::make_unique<ClosedLoopGenerator>(
        engine, app, graph_request_factory(catalog, *app.graph()), std::move(config));
    generator->set_retry_policy(policy);
  }

  ntier::Server& app_server(int vm) { return app.tier(1).vms()[vm]->server(); }

  void at(double seconds, std::function<void()> fn) {
    engine.schedule_at(sim::from_seconds(seconds), std::move(fn));
  }
};

TEST(ClientRetryTest, LateResponseOfTimedOutAttemptNeverSettlesTheReissue) {
  RetryPolicy policy;
  policy.timeout_seconds = 1.0;
  policy.max_retries = 1;
  policy.backoff_base_seconds = 0.1;
  policy.jitter_fraction = 0.0;
  SlowAppFixture f(policy);
  // t=0 attempt 0 → vm0; t=1.0 its deadline expires; t=1.1 attempt 1 → vm1.
  // t=1.5 vm0 crashes: attempt 0's late response is a failure and arrives
  // while attempt 1 is in flight — settling attempt 1 with it would record
  // a final error. t=1.55 the generator stops (the user parks after this
  // request). t=1.6 vm1 recovers and attempt 1 succeeds.
  f.generator->start();
  f.at(1.5, [&] { ASSERT_TRUE(f.app.tier(1).inject_crash("tomcat-vm0")); });
  f.at(1.6, [&] { f.app_server(1).set_cpu_capacity_factor(1.0); });
  f.at(1.55, [&] { f.generator->stop(); });
  f.engine.run_until(sim::from_seconds(10.0));

  const ClientStats& stats = f.generator->stats();
  EXPECT_EQ(stats.completed(), 1u);
  EXPECT_EQ(stats.errors(), 0u);
  EXPECT_EQ(stats.timeouts(), 1u);
  EXPECT_EQ(stats.retries(), 1u);
  // Measured from the first issue, across both attempts.
  EXPECT_GT(stats.response_time_stats().max(), 1.6);
  EXPECT_EQ(f.app_server(1).completed(), 1u);
  EXPECT_EQ(f.generator->live_users(), 0);
}

TEST(ClientRetryTest, RecycledUserSlotIgnoresItsPreviousUsersLateResponse) {
  RetryPolicy policy;
  policy.timeout_seconds = 1.0;
  SlowAppFixture f(policy);
  // t=0 user A → vm0; t=0.5 the population drops to 0; t=1.0 A's deadline
  // expires (a final error) and A parks. t=1.2 user B spawns into A's slot
  // and issues → vm1. t=1.5 vm0 crashes: A's late failure reaches the slot
  // B now owns. t=1.55 the generator stops. t=1.6 vm1 recovers and B
  // completes.
  f.generator->start();
  f.at(0.5, [&] { f.generator->set_user_count(0); });
  f.at(1.2, [&] {
    ASSERT_EQ(f.generator->live_users(), 0);
    f.generator->set_user_count(1);
  });
  f.at(1.5, [&] { ASSERT_TRUE(f.app.tier(1).inject_crash("tomcat-vm0")); });
  f.at(1.6, [&] { f.app_server(1).set_cpu_capacity_factor(1.0); });
  f.at(1.55, [&] { f.generator->stop(); });
  f.engine.run_until(sim::from_seconds(10.0));

  const ClientStats& stats = f.generator->stats();
  EXPECT_EQ(stats.completed(), 1u);  // B
  EXPECT_EQ(stats.errors(), 1u);     // A's timeout, never B
  EXPECT_EQ(stats.timeouts(), 1u);
  EXPECT_EQ(stats.retries(), 0u);
  EXPECT_EQ(f.app_server(1).completed(), 1u);
  EXPECT_EQ(f.generator->user_slot_count(), 1u);  // B reused A's slot
}

TEST(ClientRetryTest, UserSlotsStayBoundedByPeakLiveUsers) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_rubbos_clients(engine, app, catalog, 20, /*mean_think_seconds=*/0.5);
  generator->start();
  // Ramp between 5 and 20 users every few seconds: every dip parks users
  // and every rise spawns new ones, which must reuse the parked slots.
  for (int k = 1; k <= 20; ++k) {
    engine.schedule_at(sim::from_seconds(3.0 * k),
                       [&, k] { generator->set_user_count(k % 2 == 1 ? 5 : 20); });
  }
  engine.run_until(sim::from_seconds(62.0));
  EXPECT_EQ(generator->user_count(), 20);
  EXPECT_GT(generator->stats().completed(), 100u);
  EXPECT_LE(generator->user_slot_count(), 20u);
}

TEST(ClientStatsAccountingTest, GoodputCountsOnlyBoundBeatingCompletions) {
  ClientStats stats;
  stats.set_goodput_bound(1.0);
  stats.record_completion(sim::from_seconds(10.0), 0.2);
  stats.record_completion(sim::from_seconds(10.5), 2.5);  // too slow: not good
  stats.record_error(sim::from_seconds(11.0));
  EXPECT_EQ(stats.completed(), 2u);
  EXPECT_EQ(stats.good(), 1u);
  EXPECT_EQ(stats.errors(), 1u);

  // Window [10, 12): 1 good completion over 2 s.
  EXPECT_DOUBLE_EQ(stats.mean_goodput(sim::from_seconds(10.0), sim::from_seconds(12.0)), 0.5);
  // 1 error out of (1 error + 2 completions).
  EXPECT_DOUBLE_EQ(stats.error_rate(sim::from_seconds(10.0), sim::from_seconds(12.0)),
                   1.0 / 3.0);
  // An idle window reports 0, not NaN.
  EXPECT_DOUBLE_EQ(stats.error_rate(sim::from_seconds(50.0), sim::from_seconds(60.0)), 0.0);
}

// Retry-storm goodput audit: a request that settles on a later attempt is
// ONE completion whose response time spans every attempt — timeout waits
// and backoff sleeps included. Each attempt here is individually fast
// (fail-fast crash or ~10 ms of service), but the 2 s backoff puts every
// retried request past the 1 s goodput bound. If completions were recorded
// per attempt, or response time measured from the last re-issue, goodput
// would (wrongly) count these.
TEST(ClientStatsAccountingTest, RetriedCompletionIsOneRequestMeasuredEndToEnd) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  ASSERT_TRUE(app.tier(1).inject_crash("tomcat-vm0"));

  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_jmeter(engine, app, catalog, 1);
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_seconds = 2.0;  // jitter 0.2 keeps this in [1.6, 2.4] s
  generator->set_retry_policy(policy);
  ASSERT_DOUBLE_EQ(generator->stats().goodput_bound(), 1.0);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));

  const ClientStats& stats = generator->stats();
  EXPECT_EQ(stats.errors(), 0u);  // the survivor always answers eventually
  EXPECT_GT(stats.retries(), 0u);
  EXPECT_GT(stats.completed(), 0u);
  // One sequential user against a 2-member round-robin balancer: each cycle
  // makes exactly two picks (fail on the crashed VM, succeed on the
  // survivor), so EVERY request's first attempt lands on the crashed VM and
  // every completion carries >= 1.6 s of backoff. Each attempt was
  // individually fast — goodput must still be zero, because response time
  // is end-to-end across attempts.
  EXPECT_EQ(stats.good(), 0u);
  // Each retried completion is one request and one re-issue: completions
  // missing the bound can never outnumber the re-issued attempts.
  EXPECT_LE(stats.completed() - stats.good(), stats.retries());
  // The histogram saw the retried requests' true end-to-end times.
  EXPECT_GT(stats.response_time_stats().max(), 1.6);
}

TEST(ClientStatsAccountingTest, TimeoutsAndRetriesAreIndependentCounters) {
  ClientStats stats;
  stats.record_timeout(sim::from_seconds(1.0));
  stats.record_timeout(sim::from_seconds(2.0));
  stats.record_retry();
  EXPECT_EQ(stats.timeouts(), 2u);
  EXPECT_EQ(stats.retries(), 1u);
  // Neither touches completion or error accounting.
  EXPECT_EQ(stats.completed(), 0u);
  EXPECT_EQ(stats.errors(), 0u);
}

}  // namespace
}  // namespace dcm::workload
