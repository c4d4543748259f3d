// NTierApp — the deployed application: one Tier per ServiceGraph node, node
// 0 client-facing, each node's out-edges wired to their target tiers. Every
// deployment shape — the paper's web → app → db chain included — is a
// ServiceGraph (see core::build_service_graph).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "ntier/request.h"
#include "ntier/service_graph.h"
#include "ntier/tier.h"
#include "sim/engine.h"

namespace dcm::ntier {

class NTierApp {
 public:
  /// Builds one Tier per graph node (node id = tier depth). Every node forks
  /// the app's Rng exactly once, in node-id order, before any wiring.
  NTierApp(sim::Engine& engine, ServiceGraph graph, uint64_t seed);

  NTierApp(const NTierApp&) = delete;
  NTierApp& operator=(const NTierApp&) = delete;

  /// Injects one HTTP request at the front tier.
  void submit(const RequestPtr& request, DoneFn done);

  size_t tier_count() const { return tiers_.size(); }
  Tier& tier(size_t index);
  const Tier& tier(size_t index) const;
  /// Finds a tier by name; nullptr if absent.
  Tier* find_tier(const std::string& name);

  sim::Engine& engine() { return *engine_; }
  Rng& rng() { return rng_; }
  uint64_t next_request_id() { return next_request_id_++; }

  /// The deployment's service graph (never null).
  const ServiceGraph* graph() const { return graph_.get(); }

 private:
  sim::Engine* engine_;
  Rng rng_;
  std::vector<std::unique_ptr<Tier>> tiers_;
  std::unique_ptr<ServiceGraph> graph_;
  uint64_t next_request_id_ = 1;
};

}  // namespace dcm::ntier
