#include "core/topologies.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace dcm::core {

namespace {

[[noreturn]] void spec_error(const std::string& message) {
  throw std::runtime_error("topology: " + message);
}

/// Per-role tier template for graph nodes. Web/app/db are the calibrated
/// RUBBoS tiers (Apache, Tomcat, MySQL); lb is the HAProxy pass-through;
/// cache is a memcached-like in-memory store (scalable, single CPU phase).
ntier::TierConfig graph_node_tier(const std::string& name, ntier::NodeRole role,
                                  HardwareConfig hw, SoftAllocation soft,
                                  int max_vms_per_tier) {
  ntier::TierConfig tier;
  tier.name = name;
  switch (role) {
    case ntier::NodeRole::kWeb:
      tier.server.cpu = apache_cpu_model();
      tier.server.max_threads = soft.web_threads;
      tier.server.pre_fraction = 0.5;
      tier.server.demand_cv = 0.10;
      tier.initial_vms = hw.web;
      tier.max_vms = std::max(hw.web, max_vms_per_tier);
      break;
    case ntier::NodeRole::kApp:
      tier.server.cpu = tomcat_cpu_model();
      tier.server.max_threads = soft.app_threads;
      tier.server.pre_fraction = 0.5;
      tier.server.demand_cv = 0.25;
      tier.initial_vms = hw.app;
      tier.max_vms = std::max(hw.app, max_vms_per_tier);
      break;
    case ntier::NodeRole::kDb:
      tier.server.cpu = mysql_cpu_model();
      // max_connections-style cap far above any upstream pool: the app
      // tier's DB connection pool governs MySQL's concurrency, as in the
      // paper.
      tier.server.max_threads = 1000;
      tier.server.pre_fraction = 1.0;  // leaf: single CPU phase
      tier.server.demand_cv = 0.25;
      tier.initial_vms = hw.db;
      tier.max_vms = std::max(hw.db, max_vms_per_tier);
      break;
    case ntier::NodeRole::kLb:
      // Forwarding work only, effectively unbounded event loop, never
      // scaled (as in the paper's 4-tier layout).
      tier.server.cpu.params = {5.0e-5, 1.0e-7, 1.0e-10};  // ~50 µs per forward
      tier.server.cpu.thrash_threshold = 1e18;
      tier.server.cpu.thrash_factor = 0.0;
      tier.server.max_threads = 10000;
      tier.server.pre_fraction = 0.5;
      tier.server.demand_cv = 0.05;
      tier.initial_vms = 1;
      tier.max_vms = 1;
      break;
    case ntier::NodeRole::kCache:
      tier.server.cpu = cache_cpu_model();
      tier.server.max_threads = 500;
      tier.server.pre_fraction = 1.0;  // leaf: single CPU phase
      tier.server.demand_cv = 0.10;
      tier.initial_vms = 1;
      tier.max_vms = max_vms_per_tier;
      break;
  }
  tier.min_vms = 1;
  return tier;
}

/// The canonical chains as fixed node/edge lists: chain3 is the paper's
/// web → app → db deployment, chain4 splices the HAProxy hop (a
/// near-zero-demand pass-through that is never scaled) in front of the db.
/// Edges are declared in depth order (edge id = issuing tier's depth); the
/// app tier's query edge carries the managed DB connection pool. The
/// chain's balancer policy carries over.
TopologySpec canonical_chain(const TopologySpec& chain) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kGraph;
  spec.lb_policy = chain.lb_policy;
  if (chain.kind == TopologySpec::Kind::kChain3) {
    spec.nodes = {{"apache", "web"}, {"tomcat", "app"}, {"mysql", "db"}};
    spec.edges = {{"apache", "tomcat", 1, false, false}, {"tomcat", "mysql", 0, true, true}};
  } else {
    spec.nodes = {{"apache", "web"}, {"tomcat", "app"}, {"haproxy", "lb"}, {"mysql", "db"}};
    spec.edges = {{"apache", "tomcat", 1, false, false},
                  {"tomcat", "haproxy", 0, true, true},
                  {"haproxy", "mysql", 1, false, false}};
  }
  return spec;
}

}  // namespace

ntier::CpuModelConfig apache_cpu_model() {
  ntier::CpuModelConfig cpu;
  cpu.params = {1.0e-3, 2.0e-5, 1.0e-8};  // light proxy work, near-linear scaling
  cpu.thrash_threshold = 1e18;
  cpu.thrash_factor = 0.0;
  return cpu;
}

ntier::CpuModelConfig tomcat_cpu_model() {
  ntier::CpuModelConfig cpu;
  // Table I Tomcat column: S0=2.84e-2, α=9.87e-3, β=4.54e-5 ⇒ N_b ≈ 20.
  cpu.params = {2.84e-2, 9.87e-3, 4.54e-5};
  cpu.thrash_threshold = 300.0;  // JVM-side collapse far beyond normal pools
  cpu.thrash_factor = 1.0e-4;
  return cpu;
}

ntier::CpuModelConfig mysql_cpu_model() {
  ntier::CpuModelConfig cpu;
  // Table I MySQL column (per query): S0=7.19e-3, α=5.04e-3, β=1.65e-6
  // ⇒ N_b ≈ 36. Thrash threshold 64: "reasonable between 20 and 80",
  // collapse well before 160 (Fig. 2a / Sec. V-B narrative).
  cpu.params = {7.19e-3, 5.04e-3, 1.65e-6};
  cpu.thrash_threshold = 64.0;
  cpu.thrash_factor = 1.0e-4;
  return cpu;
}

ntier::CpuModelConfig cache_cpu_model() {
  ntier::CpuModelConfig cpu;
  // Memcached-like GET: ~2 ms mean including the network hop, tiny
  // per-thread overhead, no thrash regime in any reachable range.
  cpu.params = {2.0e-3, 2.0e-5, 1.0e-9};
  cpu.thrash_threshold = 1e18;
  cpu.thrash_factor = 0.0;
  return cpu;
}

ntier::ServiceGraph build_service_graph(const TopologySpec& spec, HardwareConfig hw,
                                        SoftAllocation soft, int max_vms_per_tier) {
  if (spec.kind != TopologySpec::Kind::kGraph) {
    return build_service_graph(canonical_chain(spec), hw, soft, max_vms_per_tier);
  }
  if (spec.nodes.empty()) spec_error("graph topology declares no nodes");
  std::unordered_map<std::string, int> ids;
  std::vector<ntier::ServiceNode> nodes;
  nodes.reserve(spec.nodes.size());
  for (const auto& n : spec.nodes) {
    if (n.name.empty()) spec_error("graph node with empty name");
    ntier::NodeRole role;
    if (!ntier::parse_node_role(n.role, &role)) {
      spec_error("node '" + n.name + "' has unknown role '" + n.role +
                 "' (want web|app|db|lb|cache)");
    }
    if (!ids.emplace(n.name, static_cast<int>(nodes.size())).second) {
      spec_error("duplicate node name '" + n.name + "'");
    }
    nodes.push_back({graph_node_tier(n.name, role, hw, soft, max_vms_per_tier), role});
    nodes.back().tier.lb_policy = spec.lb_policy;
  }
  std::vector<ntier::ServiceEdge> edges;
  edges.reserve(spec.edges.size());
  for (const auto& e : spec.edges) {
    const auto from = ids.find(e.from);
    const auto to = ids.find(e.to);
    if (from == ids.end()) spec_error("edge references undeclared node '" + e.from + "'");
    if (to == ids.end()) spec_error("edge references undeclared node '" + e.to + "'");
    if (!e.servlet_calls && e.calls < 0) {
      spec_error("edge " + e.from + "->" + e.to + " has negative calls");
    }
    ntier::ServiceEdge edge;
    edge.from = from->second;
    edge.to = to->second;
    edge.fixed_calls = e.servlet_calls ? 0 : e.calls;
    edge.servlet_calls = e.servlet_calls;
    edge.mean_calls = e.servlet_calls ? kDbVisitRatio : static_cast<double>(e.calls);
    edge.pool_capacity = e.managed ? soft.db_connections : 0;
    edge.managed = e.managed;
    edges.push_back(edge);
  }
  return ntier::ServiceGraph(std::move(nodes), std::move(edges));
}

model::ConcurrencyModel tomcat_reference_model(int servers) {
  model::ConcurrencyModel m;
  m.params = tomcat_cpu_model().params;
  m.gamma = 1.0;
  m.servers = servers;
  m.visit_ratio = 1.0;
  return m;
}

model::ConcurrencyModel mysql_reference_model(int servers) {
  model::ConcurrencyModel m;
  m.params = mysql_cpu_model().params;
  m.gamma = 1.0;
  m.servers = servers;
  m.visit_ratio = kDbVisitRatio;
  return m;
}

}  // namespace dcm::core
