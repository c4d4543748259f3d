#include "workload/servlet.h"

#include <gtest/gtest.h>

#include <map>

#include "core/topologies.h"
#include "workload/closed_loop.h"

namespace dcm::workload {
namespace {

TEST(ServletCatalogTest, HasTwentyFourInteractions) {
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  EXPECT_EQ(catalog.size(), 24u);
}

TEST(ServletCatalogTest, BrowseOnlyMixWeightsOnlyReadServlets) {
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  int weighted = 0;
  for (size_t i = 0; i < catalog.size(); ++i) {
    const Servlet& s = catalog.servlet(i);
    if (s.weight > 0.0) {
      ++weighted;
      // All browse-only interactions are reads.
      EXPECT_EQ(s.name.find("Store"), std::string::npos) << s.name;
      EXPECT_EQ(s.name.find("Post"), std::string::npos) << s.name;
    }
  }
  EXPECT_EQ(weighted, 9);
}

TEST(ServletCatalogTest, NormalizedMeanScalesAreUnity) {
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  EXPECT_NEAR(catalog.mean_scale(0), 1.0, 1e-9);
  EXPECT_NEAR(catalog.mean_scale(1), 1.0, 1e-9);
}

TEST(ServletCatalogTest, MeanDbQueriesNearVisitRatio) {
  const ServletCatalog catalog = ServletCatalog::browse_only_mix(2.0);
  EXPECT_NEAR(catalog.mean_db_queries(), 2.0, 0.15);
}

TEST(ServletCatalogTest, SamplingFollowsWeights) {
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  Rng rng(99);
  std::map<size_t, int> hits;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[catalog.sample(rng)];
  // Zero-weight servlets never drawn.
  for (size_t i = 0; i < catalog.size(); ++i) {
    // Weights are exact configured constants, not computed values.
    if (catalog.servlet(i).weight == 0.0) {  // dcm-lint: allow(no-float-eq)
      EXPECT_EQ(hits.count(i), 0u) << i;
    }
  }
  // ViewStory (weight .25) drawn about 25% of the time.
  size_t view_story = 0;
  for (size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.servlet(i).name == "ViewStory") view_story = i;
  }
  EXPECT_NEAR(static_cast<double>(hits[view_story]) / n, 0.25, 0.01);
}

TEST(ServletCatalogTest, GraphFactoryBuildsThreeTierPlan) {
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  const ntier::ServiceGraph chain =
      core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80});
  Rng rng(3);
  const auto req = graph_request_factory(catalog, chain)(nullptr, 42, rng, sim::from_seconds(1.0));
  const Servlet& s = catalog.servlet(static_cast<size_t>(req->servlet));
  EXPECT_EQ(req->id, 42u);
  ASSERT_EQ(req->demand_scale.size(), 3u);
  EXPECT_DOUBLE_EQ(req->demand_scale[0], s.web_scale);
  EXPECT_DOUBLE_EQ(req->demand_scale[1], s.app_scale);
  EXPECT_DOUBLE_EQ(req->demand_scale[2], s.db_scale);
  ASSERT_EQ(req->downstream_calls.size(), 2u);
  EXPECT_EQ(req->downstream_calls[0], 1);  // web → app
  EXPECT_EQ(req->downstream_calls[1], s.db_queries);
}

TEST(ServletCatalogTest, CustomCatalogValidation) {
  // A one-servlet catalog works.
  ServletCatalog single({{"Only", 1.0, 1.0, 1.0, 1.0, 2}});
  Rng rng(1);
  EXPECT_EQ(single.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(single.mean_db_queries(), 2.0);
}

}  // namespace
}  // namespace dcm::workload
