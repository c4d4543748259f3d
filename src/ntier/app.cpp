#include "ntier/app.h"

#include "common/check.h"

namespace dcm::ntier {

NTierApp::NTierApp(sim::Engine& engine, ServiceGraph graph, uint64_t seed)
    : engine_(&engine), rng_(seed) {
  graph_ = std::make_unique<ServiceGraph>(std::move(graph));
  tiers_.reserve(graph_->node_count());
  for (size_t node = 0; node < graph_->node_count(); ++node) {
    tiers_.push_back(std::make_unique<Tier>(engine, graph_->node(node).tier,
                                            static_cast<int>(node), rng_));
  }
  for (size_t node = 0; node < graph_->node_count(); ++node) {
    const std::vector<int>& out = graph_->out_edges(node);
    if (out.empty()) continue;  // leaf
    std::vector<OutEdge> edges;
    edges.reserve(out.size());
    for (int edge_id : out) {
      const ServiceEdge& e = graph_->edge(static_cast<size_t>(edge_id));
      edges.push_back(OutEdge{tiers_[static_cast<size_t>(e.to)].get(), edge_id,
                              e.pool_capacity, e.managed});
    }
    tiers_[node]->set_out_edges(std::move(edges));
  }
}

void NTierApp::submit(const RequestPtr& request, DoneFn done) {
  tiers_.front()->dispatch(request, std::move(done));
}

Tier& NTierApp::tier(size_t index) {
  DCM_CHECK(index < tiers_.size());
  return *tiers_[index];
}

const Tier& NTierApp::tier(size_t index) const {
  DCM_CHECK(index < tiers_.size());
  return *tiers_[index];
}

Tier* NTierApp::find_tier(const std::string& name) {
  for (auto& t : tiers_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

}  // namespace dcm::ntier
