// Declarative service-graph topology.
//
// The paper's n-tier system is a linear chain (web → app → db), but the
// deployment shapes we want to study are DAGs: an app tier that fans out to
// a cache and a database and joins both replies, a load-balancer hop spliced
// between tiers, parallel leaf services. A ServiceGraph makes the topology
// explicit: nodes are tiers (a scalable VM group), edges are typed
// synchronous calls carrying a calls-per-visit multiplier, an optional
// caller-side connection pool, and at most one DCM-managed pool (the "db
// connections" soft resource the controller actuates).
//
// Invariants (validated at construction, std::runtime_error on violation):
//   - node 0 is the unique root (no in-edges); every other node is reachable
//     via at least one in-edge;
//   - the edge set is acyclic (visit ratios diverge on cycles) — checked by
//     model::propagate_visit_ratios, which also yields the path-multiplied
//     per-node visit ratios V_m;
//   - per-node fan-out ≤ kMaxFanOut, node/edge counts within the inline
//     request-array bounds (request.h);
//   - at most one managed edge, and a managed edge must carry a pool.
//
// Join semantics are synchronous and fail-fast: a node with several out-edges
// issues each edge's calls sequentially per edge, edges concurrently, and
// resumes its post-processing CPU phase only after every edge settles; any
// sub-request failure fails the whole visit once outstanding branches drain.
// A chain is the degenerate case in which every node has at most one
// out-edge; the canonical chains (core::build_service_graph's chain3/chain4)
// declare their edges in depth order, so edge id equals the issuing tier's
// depth. Connection pools exist only on edges.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ntier/request.h"
#include "ntier/tier.h"

namespace dcm::ntier {

/// Role a node plays in the deployment. Drives workload demand-scale
/// assignment (web/app/db map to the servlet catalog's per-tier scales) and
/// the controller's choice of managed tiers.
enum class NodeRole { kWeb, kApp, kDb, kLb, kCache };

const char* node_role_name(NodeRole role);
/// Parses "web" | "app" | "db" | "lb" | "cache". Returns false on anything
/// else.
bool parse_node_role(const std::string& text, NodeRole* out);

struct ServiceNode {
  TierConfig tier;
  NodeRole role = NodeRole::kApp;
};

/// One typed synchronous call edge. Every visit of `from` issues its calls
/// to `to` sequentially (matching the chain's one-at-a-time sub-request
/// discipline).
struct ServiceEdge {
  int from = 0;
  int to = 0;
  /// Calls per visit when servlet_calls is false.
  int fixed_calls = 1;
  /// True: calls per visit come from the sampled servlet's db_queries (the
  /// paper's per-request query count q).
  bool servlet_calls = false;
  /// Mean calls per visit for static visit-ratio propagation. Only consulted
  /// when servlet_calls is true (fixed edges use fixed_calls); builders set
  /// it to the catalog's mean query count.
  double mean_calls = 1.0;
  /// >0: the caller holds one slot from a per-server pool of this capacity
  /// across each sub-request (connection-pool semantics). 0 = no pool.
  int pool_capacity = 0;
  /// DCM-managed pool: the controller resizes it via the tier's
  /// set_downstream_connections path. Implies pool_capacity > 0.
  bool managed = false;
};

class ServiceGraph {
 public:
  /// Validates the invariants above; throws std::runtime_error with a
  /// descriptive message on violation (including cycles, reported by node
  /// id via model::propagate_visit_ratios).
  ServiceGraph(std::vector<ServiceNode> nodes, std::vector<ServiceEdge> edges);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }
  const ServiceNode& node(size_t i) const { return nodes_[i]; }
  const ServiceEdge& edge(size_t i) const { return edges_[i]; }
  const std::vector<ServiceNode>& nodes() const { return nodes_; }
  const std::vector<ServiceEdge>& edges() const { return edges_; }

  /// Edge ids leaving `node`, in declaration order (= the order branches are
  /// issued).
  const std::vector<int>& out_edges(size_t node) const { return out_edges_[node]; }

  /// Path-multiplied static visit ratios, V_0 = 1 at the root.
  const std::vector<double>& visit_ratios() const { return visit_ratios_; }

  /// True when the graph is a linear chain declared in depth order
  /// (edge i connects node i → node i+1).
  bool is_chain() const;

  /// Lowest-id node with the given role, or -1.
  int first_node_with_role(NodeRole role) const;
  /// Id of the unique managed edge, or -1 when none is declared.
  int managed_edge() const { return managed_edge_; }

 private:
  std::vector<ServiceNode> nodes_;
  std::vector<ServiceEdge> edges_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<double> visit_ratios_;
  int managed_edge_ = -1;
};

}  // namespace dcm::ntier
