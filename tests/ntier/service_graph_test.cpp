#include "ntier/service_graph.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/topologies.h"

namespace dcm::ntier {
namespace {

ServiceNode make_node(const std::string& name, NodeRole role) {
  ServiceNode node;
  node.tier.name = name;
  node.role = role;
  return node;
}

// Shorthand for a plain 1-call edge in validation tests.
ServiceEdge call(int from, int to) {
  ServiceEdge edge;
  edge.from = from;
  edge.to = to;
  return edge;
}

TEST(ServiceGraphTest, Chain3LowersToDegenerateGraph) {
  const ServiceGraph graph = core::build_service_graph(
      {core::TopologySpec::Kind::kChain3, {}, {}}, {1, 2, 1}, {1000, 100, 80});
  ASSERT_EQ(graph.node_count(), 3u);
  ASSERT_EQ(graph.edge_count(), 2u);
  EXPECT_TRUE(graph.is_chain());
  EXPECT_EQ(graph.node(0).role, NodeRole::kWeb);
  EXPECT_EQ(graph.node(1).role, NodeRole::kApp);
  EXPECT_EQ(graph.node(2).role, NodeRole::kDb);
  EXPECT_EQ(graph.node(1).tier.initial_vms, 2);
  // Paper V = {1, 1, q} with q = kDbVisitRatio.
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[0], 1.0);
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[1], 1.0);
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[2], core::kDbVisitRatio);
  EXPECT_EQ(graph.managed_edge(), 1);
  EXPECT_TRUE(graph.edge(1).servlet_calls);
  EXPECT_EQ(graph.edge(1).pool_capacity, 80);
}

TEST(ServiceGraphTest, Chain4AddsTheHaproxyHop) {
  const ServiceGraph graph = core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80});
  ASSERT_EQ(graph.node_count(), 4u);
  ASSERT_EQ(graph.edge_count(), 3u);
  EXPECT_TRUE(graph.is_chain());
  EXPECT_EQ(graph.node(2).role, NodeRole::kLb);
  EXPECT_EQ(graph.node(3).role, NodeRole::kDb);
  // The lb hop forwards each of the app tier's q queries one-for-one.
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[2], core::kDbVisitRatio);
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[3], core::kDbVisitRatio);
  EXPECT_EQ(graph.managed_edge(), 1);
}

TEST(ServiceGraphTest, DiamondFanOutOrderAndRatios) {
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes = {{"apache", "web"}, {"tomcat", "app"}, {"memcache", "cache"}, {"mysql", "db"}};
  spec.edges = {{"apache", "tomcat", 1, false, false},
                {"tomcat", "memcache", 1, false, false},
                {"tomcat", "mysql", 0, true, true}};
  const ServiceGraph graph = core::build_service_graph(spec, {1, 3, 1}, {1000, 100, 80});
  EXPECT_FALSE(graph.is_chain());
  ASSERT_EQ(graph.out_edges(1).size(), 2u);
  // Declaration order = issue order = edge ids.
  EXPECT_EQ(graph.out_edges(1)[0], 1);
  EXPECT_EQ(graph.out_edges(1)[1], 2);
  EXPECT_EQ(graph.first_node_with_role(NodeRole::kCache), 2);
  EXPECT_EQ(graph.first_node_with_role(NodeRole::kDb), 3);
  EXPECT_EQ(graph.first_node_with_role(NodeRole::kLb), -1);
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[2], 1.0);
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[3], core::kDbVisitRatio);
  EXPECT_EQ(graph.managed_edge(), 2);
  EXPECT_EQ(graph.edge(1).pool_capacity, 0);
  EXPECT_EQ(graph.edge(2).pool_capacity, 80);
}

TEST(ServiceGraphTest, LbNodesKeepTheirDeclaredNames) {
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes = {{"apache", "web"}, {"gw", "lb"}, {"edge", "lb"}, {"mysql", "db"}};
  spec.edges = {{"apache", "gw", 1, false, false},
                {"apache", "edge", 1, false, false},
                {"gw", "mysql", 1, false, false},
                {"edge", "mysql", 1, false, false}};
  const ServiceGraph graph = core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80});
  EXPECT_EQ(graph.node(1).tier.name, "gw");
  EXPECT_EQ(graph.node(2).tier.name, "edge");
  EXPECT_EQ(graph.node(1).tier.max_vms, 1);  // still the never-scaled HAProxy template
  sim::Engine engine;
  NTierApp app(engine, graph, 1);
  EXPECT_NE(app.find_tier("gw"), nullptr);
  EXPECT_NE(app.find_tier("edge"), nullptr);
  EXPECT_EQ(app.find_tier("haproxy"), nullptr);
}

TEST(ServiceGraphTest, LongChainsBeyondTheLegacyTierCapAreAccepted) {
  // 10 nodes / 9 edges — more tiers than the legacy 8-deep chain arrays; the
  // per-request inline storage (request.h) must size past it.
  std::vector<ServiceNode> nodes;
  std::vector<ServiceEdge> edges;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(make_node("n" + std::to_string(i),
                              i == 0 ? NodeRole::kWeb : NodeRole::kApp));
    if (i > 0) edges.push_back(call(i - 1, i));
  }
  const ServiceGraph graph(nodes, edges);
  EXPECT_TRUE(graph.is_chain());
  EXPECT_DOUBLE_EQ(graph.visit_ratios()[9], 1.0);
}

TEST(ServiceGraphTest, RejectsSelfLoopAndOutOfRangeEdges) {
  const std::vector<ServiceNode> nodes = {make_node("a", NodeRole::kWeb),
                                          make_node("b", NodeRole::kApp)};
  EXPECT_THROW(ServiceGraph(nodes, {call(1, 1)}), std::runtime_error);
  EXPECT_THROW(ServiceGraph(nodes, {call(0, 7)}), std::runtime_error);
}

TEST(ServiceGraphTest, RejectsUnreachableNodeAndRootInEdge) {
  const std::vector<ServiceNode> nodes = {make_node("a", NodeRole::kWeb),
                                          make_node("b", NodeRole::kApp),
                                          make_node("c", NodeRole::kDb)};
  EXPECT_THROW(ServiceGraph(nodes, {call(0, 1)}), std::runtime_error);    // c unreachable
  EXPECT_THROW(ServiceGraph(nodes, {call(0, 1), call(1, 2), call(2, 0)}),  // root in-edge
               std::runtime_error);
}

TEST(ServiceGraphTest, RejectsCyclesByNodeId) {
  const std::vector<ServiceNode> nodes = {make_node("a", NodeRole::kWeb),
                                          make_node("b", NodeRole::kApp),
                                          make_node("c", NodeRole::kDb)};
  try {
    ServiceGraph(nodes, {call(0, 1), call(1, 2), call(2, 1)});
    FAIL() << "expected a cycle rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos) << e.what();
  }
}

TEST(ServiceGraphTest, RejectsExcessFanOut) {
  std::vector<ServiceNode> nodes = {make_node("root", NodeRole::kWeb)};
  std::vector<ServiceEdge> edges;
  for (size_t i = 1; i <= kMaxFanOut + 1; ++i) {
    nodes.push_back(make_node("leaf" + std::to_string(i), NodeRole::kCache));
    edges.push_back(call(0, static_cast<int>(i)));
  }
  EXPECT_THROW(ServiceGraph(nodes, edges), std::runtime_error);
}

TEST(ServiceGraphTest, RejectsManagedEdgeMisuse) {
  const std::vector<ServiceNode> nodes = {make_node("a", NodeRole::kWeb),
                                          make_node("b", NodeRole::kApp),
                                          make_node("c", NodeRole::kDb)};
  ServiceEdge unpooled = call(1, 2);
  unpooled.managed = true;  // managed implies pool_capacity > 0
  EXPECT_THROW(ServiceGraph(nodes, {call(0, 1), unpooled}), std::runtime_error);

  ServiceEdge first = call(0, 1);
  first.managed = true;
  first.pool_capacity = 10;
  ServiceEdge second = call(1, 2);
  second.managed = true;
  second.pool_capacity = 10;
  EXPECT_THROW(ServiceGraph(nodes, {first, second}), std::runtime_error);
}

TEST(ServiceGraphTest, BuildRejectsBadSpecs) {
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes = {{"a", "web"}, {"b", "quantum"}};
  spec.edges = {{"a", "b", 1, false, false}};
  EXPECT_THROW(core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}),
               std::runtime_error);  // unknown role

  spec.nodes = {{"a", "web"}, {"a", "app"}};
  EXPECT_THROW(core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}),
               std::runtime_error);  // duplicate name

  spec.nodes = {{"a", "web"}, {"b", "app"}};
  spec.edges = {{"a", "ghost", 1, false, false}};
  EXPECT_THROW(core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}),
               std::runtime_error);  // undeclared endpoint
}

TEST(ServiceGraphTest, RoleNamesRoundTrip) {
  for (const char* name : {"web", "app", "db", "lb", "cache"}) {
    NodeRole role;
    ASSERT_TRUE(parse_node_role(name, &role)) << name;
    EXPECT_STREQ(node_role_name(role), name);
  }
  NodeRole role;
  EXPECT_FALSE(parse_node_role("cdn", &role));
}

}  // namespace
}  // namespace dcm::ntier
