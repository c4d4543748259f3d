// Canonical deployments — the single source of truth for the calibrated
// simulator parameters used by benches, tests and examples.
//
// The per-tier CPU models take (S0, α, β) directly from the paper's Table I
// (they are the paper's own fitted ground truth), extended with a thrash
// term for MySQL so the Fig. 2(a) collapse past ~2× the optimal concurrency
// is as sharp as the measured system's (see DESIGN.md §3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/concurrency_model.h"
#include "ntier/app.h"
#include "ntier/service_graph.h"

namespace dcm::core {

/// Visit ratio of the DB tier (queries per HTTP request, paper Sec. III-A).
inline constexpr double kDbVisitRatio = 2.0;

ntier::CpuModelConfig apache_cpu_model();
ntier::CpuModelConfig tomcat_cpu_model();
ntier::CpuModelConfig mysql_cpu_model();
/// Memcached-like in-memory cache node: sub-millisecond GETs with
/// near-linear thread scaling (used by `cache`-role graph nodes).
ntier::CpuModelConfig cache_cpu_model();

/// The paper's three-digit hardware notation #W/#A/#D.
struct HardwareConfig {
  int web = 1;
  int app = 1;
  int db = 1;

  bool operator==(const HardwareConfig&) const = default;
};

/// The paper's soft-resource notation #W_T/#A_T/#A_C: Apache threads,
/// Tomcat threads, and the per-Tomcat DB connection pool.
struct SoftAllocation {
  int web_threads = 1000;
  int app_threads = 100;
  int db_connections = 80;

  bool operator==(const SoftAllocation&) const = default;
};

/// Declarative deployment shape. The two canonical chains are built-in
/// (kChain3 = web/app/db, kChain4 = web/app/db-lb/db with the HAProxy hop)
/// as fixed node/edge lists; kGraph declares an arbitrary DAG from named
/// nodes with roles and typed edges. Every kind lowers through the same
/// code to one ServiceGraph — a chain is just the degenerate DAG.
struct TopologySpec {
  enum class Kind { kChain3, kChain4, kGraph };

  struct Node {
    std::string name;  // tier name, unique within the spec
    std::string role;  // "web" | "app" | "db" | "lb" | "cache"
    bool operator==(const Node&) const = default;
  };
  struct Edge {
    std::string from;
    std::string to;
    int calls = 1;              // fixed calls per visit (servlet_calls off)
    bool servlet_calls = false;  // calls = the sampled servlet's query count
    bool managed = false;        // DCM-actuated connection pool on this edge
    bool operator==(const Edge&) const = default;
  };

  Kind kind = Kind::kChain3;
  std::vector<Node> nodes;  // kGraph only; node 0 = client-facing root
  std::vector<Edge> edges;  // kGraph only; declaration order = edge ids

  bool operator==(const TopologySpec&) const = default;
};

/// Materializes a TopologySpec into a validated ServiceGraph with the
/// calibrated per-role tier templates (hardware counts give the web/app/db
/// initial VMs, soft allocations the web/app thread pools; the managed
/// edge's pool gets soft.db_connections). Throws std::runtime_error on an invalid spec
/// (unknown role, duplicate/undeclared node names, cycles, ...).
ntier::ServiceGraph build_service_graph(const TopologySpec& spec, HardwareConfig hw,
                                        SoftAllocation soft, int max_vms_per_tier = 8);

/// The paper's alternative 4-tier deployment (web/app/db-lb/db with a
/// near-zero-demand HAProxy pass-through that is never scaled), expressed as
/// a degenerate chain graph: edges web→app (1 call), app→lb (the servlet's
/// queries, throttled by the managed DB connection pool), lb→db (1 call).
ntier::ServiceGraph rubbos_4tier_graph(HardwareConfig hw, SoftAllocation soft,
                                       int max_vms_per_tier = 8);

/// Reference concurrency models built from the ground-truth parameters —
/// what offline training recovers; used to seed DCM in tests/benches that
/// skip the training phase. N_b ≈ 20 (Tomcat), ≈ 36 (MySQL), as in Table I.
model::ConcurrencyModel tomcat_reference_model(int servers = 1);
model::ConcurrencyModel mysql_reference_model(int servers = 1);

}  // namespace dcm::core
