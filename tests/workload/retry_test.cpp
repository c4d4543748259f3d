// Client-side deadline/retry (resilience mechanism) and the ClientStats
// failure accounting behind goodput / error-rate reporting.
#include <gtest/gtest.h>

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
