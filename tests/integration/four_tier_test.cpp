// The paper's alternative 4-tier deployment (web/app/db-lb/db), expressed
// as a degenerate chain graph (rubbos_4tier_graph).
#include <gtest/gtest.h>

#include "bus/broker.h"
#include "control/dcm_controller.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"
#include "workload/closed_loop.h"

namespace dcm {
namespace {

std::unique_ptr<workload::ClosedLoopGenerator> make_4tier_clients(
    sim::Engine& engine, ntier::NTierApp& app, const workload::ServletCatalog& catalog,
    int users) {
  return workload::make_rubbos_clients(engine, app, catalog, users, 3.0, /*seed=*/77);
}

TEST(FourTierTest, TopologyHasFourTiersWithLbBetweenAppAndDb) {
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
  ASSERT_EQ(app.tier_count(), 4u);
  EXPECT_EQ(app.tier(0).name(), "apache");
  EXPECT_EQ(app.tier(1).name(), "tomcat");
  EXPECT_EQ(app.tier(2).name(), "haproxy");
  EXPECT_EQ(app.tier(3).name(), "mysql");
  // The chain-shaped graph is recognized as the degenerate DAG.
  ASSERT_NE(app.graph(), nullptr);
  EXPECT_TRUE(app.graph()->is_chain());
  ASSERT_EQ(app.graph()->edge_count(), 3u);
  EXPECT_TRUE(app.graph()->edge(1).managed);
}

TEST(FourTierTest, RequestsFlowThroughAllFourTiers) {
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = make_4tier_clients(engine, app, catalog, 100);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));

  const auto completed = generator->stats().completed();
  EXPECT_GT(completed, 1000u);
  EXPECT_EQ(generator->stats().errors(), 0u);
  // Forced flow: LB and DB both see ~V_db sub-requests per HTTP request.
  EXPECT_NEAR(static_cast<double>(app.tier(2).completed()) / completed,
              catalog.mean_db_queries(), 0.1);
  EXPECT_NEAR(static_cast<double>(app.tier(3).completed()) / completed,
              catalog.mean_db_queries(), 0.1);
}

TEST(FourTierTest, CatalogClientsReachTheDbTier) {
  // Regression: the catalog overloads once planned every request for the
  // 3-tier chain, so on chain4 the lb→db edge got 0 calls (MySQL was never
  // visited) and HAProxy received the db demand scale.
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 20);
  generator->start();
  engine.run_until(sim::from_seconds(20.0));
  ASSERT_GT(generator->stats().completed(), 0u);
  EXPECT_GT(app.tier(3).completed(), 0u);
  EXPECT_GE(app.tier(3).completed(), app.tier(2).completed());  // one query per lb hop
}

TEST(FourTierTest, LbTierAddsNegligibleLatency) {
  // Same workload on 3-tier and 4-tier: the extra hop costs microseconds.
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  double rt3, rt4;
  {
    sim::Engine engine;
    ntier::NTierApp app(
        engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
    auto generator = workload::make_rubbos_clients(engine, app, catalog, 100, 3.0, 77);
    generator->start();
    engine.run_until(sim::from_seconds(90.0));
    rt3 = generator->stats().response_time_stats().mean();
  }
  {
    sim::Engine engine;
    ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
    auto generator = make_4tier_clients(engine, app, catalog, 100);
    generator->start();
    engine.run_until(sim::from_seconds(90.0));
    rt4 = generator->stats().response_time_stats().mean();
  }
  EXPECT_NEAR(rt4, rt3, rt3 * 0.1 + 0.002);
}

TEST(FourTierTest, DcmControlsTheDbTierThroughTheLb) {
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 200, 80}), 1);
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);

  control::DcmConfig dcm;
  dcm.app_tier_model = core::tomcat_reference_model();
  dcm.db_tier_model = core::mysql_reference_model();
  dcm.app_tier = 1;
  dcm.db_tier = 3;  // mysql sits behind the LB tier
  control::DcmController controller(engine, app, broker, dcm);
  controller.start();

  // The APP-agent deployed the optima at construction.
  EXPECT_EQ(app.tier(1).current_thread_pool_size(), controller.app_tier_nb());
  EXPECT_EQ(app.tier(1).current_downstream_connections(), controller.db_tier_nb());

  // Under saturating load the managed deployment keeps DB concurrency at
  // the optimum even though requests pass through the LB tier.
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = make_4tier_clients(engine, app, catalog, 500);
  generator->start();
  int max_db_conc = 0;
  engine.schedule_periodic(sim::kNanosPerSecond, [&] {
    max_db_conc = std::max(max_db_conc, app.tier(3).total_in_flight());
  });
  engine.run_until(sim::from_seconds(60.0));
  EXPECT_LE(max_db_conc, controller.db_tier_nb() * app.tier(3).active_vm_count() + 2);
}

}  // namespace
}  // namespace dcm
