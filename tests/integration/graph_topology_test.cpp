// End-to-end service-graph topology runs: the diamond deployment where the
// controller's node ranking must agree with the per-edge trace attribution,
// plus fan-out and deep-chain shapes that exercise the per-request inline
// storage past the legacy 3-tier-chain bounds.
#include <gtest/gtest.h>

#include <memory>

#include "bus/broker.h"
#include "control/dcm_controller.h"
#include "core/experiment.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"
#include "sim/engine.h"
#include "trace/attribution.h"
#include "trace/tracer.h"
#include "workload/closed_loop.h"
#include "workload/servlet.h"

namespace dcm {
namespace {

core::TopologySpec diamond_spec() {
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes = {{"apache", "web"}, {"tomcat", "app"}, {"memcache", "cache"}, {"mysql", "db"}};
  spec.edges = {{"apache", "tomcat", 1, false, false},
                {"tomcat", "memcache", 1, false, false},
                {"tomcat", "mysql", 0, true, true}};
  return spec;
}

// The ISSUE's acceptance scenario: on the diamond with 3 app VMs the DB
// (V = q = 2) caps throughput at 1/(2·S0_db) ≈ 70 req/s, well under the app
// nodes' 3/S0_app ≈ 106. DCM's operational-law node ranking and the trace
// report's per-edge waterfall observe that same fact through entirely
// different instruments — the static model vs measured span wall-clock —
// and must name the same node.
TEST(GraphTopologyTest, DiamondBottleneckRankingAgreesWithEdgeAttribution) {
  sim::Engine engine;
  ntier::NTierApp app(engine,
                      core::build_service_graph(diamond_spec(), {1, 3, 1}, {1000, 100, 80}),
                      core::experiment_stream_seed(1, core::SeedStream::kTopology));
  const ntier::ServiceGraph& graph = *app.graph();
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);

  const workload::ServletCatalog catalog =
      workload::ServletCatalog::browse_only_mix(core::kDbVisitRatio);
  auto generator = workload::make_rubbos_clients(
      engine, app, workload::graph_request_factory(catalog, graph), 300, 3.0,
      core::experiment_stream_seed(1, core::SeedStream::kWorkload));

  trace::Tracer tracer(core::experiment_stream_seed(1, core::SeedStream::kTrace),
                       {true, 1.0});
  generator->set_tracer(&tracer);

  control::DcmConfig dcm;
  dcm.app_tier_model = core::tomcat_reference_model();
  dcm.db_tier_model = core::mysql_reference_model();
  dcm.app_tier = 1;  // tomcat
  dcm.db_tier = 3;   // mysql (what experiment.cpp derives from the roles)
  control::DcmController controller(engine, app, broker, dcm);

  // The static ranking of the deployed allocation, before the controller
  // acts on it: mysql (node 3) has the smallest capacity.
  const model::BottleneckReport ranking = controller.rank_graph_nodes();
  ASSERT_EQ(ranking.tier_capacity.size(), graph.node_count());
  EXPECT_EQ(ranking.bottleneck_tier, 3);
  EXPECT_LT(ranking.tier_capacity[3], ranking.tier_capacity[1]);

  controller.start();
  generator->start();
  engine.run_until(sim::from_seconds(120.0));

  // The controller spent its scale-outs on the ranked node.
  int mysql_scale_outs = 0;
  for (const auto& action : controller.log().actions()) {
    if (action.action == "scale_out" && action.tier == "mysql") ++mysql_scale_outs;
  }
  EXPECT_GT(mysql_scale_outs, 0);

  // The measured waterfall: among tomcat's two branches, the mysql edge must
  // own the dominant p99 share of end-to-end latency.
  const auto report = trace::build_report(tracer);
  ASSERT_GT(report->completed, 0u);
  const trace::EdgeAttributionRow* dominant = nullptr;
  for (const auto& row : report->edge_attribution) {
    if (row.tier != 1) continue;  // tomcat's out-edges only
    if (dominant == nullptr || row.p99_share > dominant->p99_share) dominant = &row;
  }
  ASSERT_NE(dominant, nullptr);
  // Both instruments name the same node.
  EXPECT_EQ(graph.edge(static_cast<size_t>(dominant->edge)).to, ranking.bottleneck_tier);
}

// Fan-out wider than the legacy chain's 3 hops: five concurrent branches
// joined synchronously. Regression for the per-request inline arrays
// (request.h) — a plan this wide overflowed the old per-tier sizing.
TEST(GraphTopologyTest, FiveWayFanOutJoinsCleanly) {
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes = {{"web", "web"},    {"hub", "app"},    {"c1", "cache"}, {"c2", "cache"},
                {"c3", "cache"},   {"c4", "cache"},   {"mysql", "db"}};
  spec.edges = {{"web", "hub", 1, false, false}, {"hub", "c1", 1, false, false},
                {"hub", "c2", 2, false, false},  {"hub", "c3", 1, false, false},
                {"hub", "c4", 1, false, false},  {"hub", "mysql", 0, true, true}};

  sim::Engine engine;
  ntier::NTierApp app(engine, core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}), 7);
  const workload::ServletCatalog catalog =
      workload::ServletCatalog::browse_only_mix(core::kDbVisitRatio);
  auto generator = workload::make_rubbos_clients(
      engine, app, workload::graph_request_factory(catalog, *app.graph()), 50, 3.0, 11);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));

  EXPECT_GT(generator->stats().completed(), 100u);
  EXPECT_EQ(generator->stats().errors(), 0u);
  // Every branch actually carried traffic.
  for (size_t i = 2; i < app.tier_count(); ++i) {
    EXPECT_GT(app.tier(i).completed(), 0u) << app.tier(i).name();
  }
}

// A 10-node chain graph — deeper than the old 8-deep inline chain arrays.
TEST(GraphTopologyTest, TenNodeChainRunsEndToEnd) {
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes.push_back({"front", "web"});
  for (int i = 1; i < 9; ++i) {
    spec.nodes.push_back({"svc" + std::to_string(i), "app"});
  }
  spec.nodes.push_back({"store", "db"});
  for (int i = 0; i < 9; ++i) {
    spec.edges.push_back({spec.nodes[static_cast<size_t>(i)].name,
                          spec.nodes[static_cast<size_t>(i + 1)].name, 1, false, false});
  }

  sim::Engine engine;
  ntier::NTierApp app(engine, core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}), 3);
  EXPECT_TRUE(app.graph()->is_chain());
  const workload::ServletCatalog catalog =
      workload::ServletCatalog::browse_only_mix(core::kDbVisitRatio);
  auto generator = workload::make_rubbos_clients(
      engine, app, workload::graph_request_factory(catalog, *app.graph()), 30, 3.0, 5);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));

  EXPECT_GT(generator->stats().completed(), 100u);
  EXPECT_EQ(generator->stats().errors(), 0u);
  EXPECT_GT(app.tier(9).completed(), 0u);
}

}  // namespace
}  // namespace dcm
