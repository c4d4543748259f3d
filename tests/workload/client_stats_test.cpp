#include "workload/client_stats.h"

#include <gtest/gtest.h>

#include "core/topologies.h"
#include "workload/closed_loop.h"

namespace dcm::workload {
namespace {

TEST(ClientStatsTest, RecordsCompletionsAndErrors) {
  ClientStats stats;
  stats.record_completion(sim::from_seconds(1.0), 0.5);
  stats.record_completion(sim::from_seconds(1.5), 1.5);
  stats.record_error(sim::from_seconds(2.0));
  EXPECT_EQ(stats.completed(), 2u);
  EXPECT_EQ(stats.errors(), 1u);
  EXPECT_DOUBLE_EQ(stats.response_time_stats().mean(), 1.0);
  EXPECT_DOUBLE_EQ(stats.response_time_stats().max(), 1.5);
}

TEST(ClientStatsTest, MeanThroughputOverWindow) {
  ClientStats stats;
  for (int i = 0; i < 100; ++i) {
    stats.record_completion(sim::from_seconds(10.0 + i * 0.1), 0.05);
  }
  // 100 completions within [10, 20): 10/s over that window.
  EXPECT_NEAR(stats.mean_throughput(sim::from_seconds(10.0), sim::from_seconds(20.0)), 10.0,
              1e-9);
  // Nothing before t=10.
  EXPECT_DOUBLE_EQ(stats.mean_throughput(0, sim::from_seconds(10.0)), 0.0);
}

TEST(ClientStatsTest, PerServletBreakdown) {
  ClientStats stats;
  stats.record_completion(sim::from_seconds(1.0), 0.1, /*servlet=*/3);
  stats.record_completion(sim::from_seconds(1.1), 0.3, /*servlet=*/3);
  stats.record_completion(sim::from_seconds(1.2), 0.9, /*servlet=*/7);
  stats.record_completion(sim::from_seconds(1.3), 0.5);  // untyped
  const auto& per_servlet = stats.per_servlet_response_times();
  ASSERT_EQ(per_servlet.size(), 2u);
  EXPECT_EQ(per_servlet.at(3).count(), 2u);
  EXPECT_DOUBLE_EQ(per_servlet.at(3).mean(), 0.2);
  EXPECT_DOUBLE_EQ(per_servlet.at(7).mean(), 0.9);
}

TEST(ClientStatsTest, GeneratorsAttributePerServletTimes) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_rubbos_clients(engine, app, catalog, 80);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));

  const auto& per_servlet = generator->stats().per_servlet_response_times();
  // All nine browse servlets exercised.
  EXPECT_EQ(per_servlet.size(), 9u);
  uint64_t total = 0;
  for (const auto& [servlet, welford] : per_servlet) {
    EXPECT_GT(catalog.servlet(static_cast<size_t>(servlet)).weight, 0.0);
    total += welford.count();
  }
  EXPECT_EQ(total, generator->stats().completed());

  // The heavier search servlets must have higher mean response times than
  // the cheap category listing (their demand scales are ~3x).
  int search_in_comments = -1, browse_categories = -1;
  for (size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.servlet(i).name == "SearchInComments") search_in_comments = static_cast<int>(i);
    if (catalog.servlet(i).name == "BrowseCategories") browse_categories = static_cast<int>(i);
  }
  ASSERT_GE(search_in_comments, 0);
  ASSERT_GE(browse_categories, 0);
  EXPECT_GT(per_servlet.at(search_in_comments).mean(),
            per_servlet.at(browse_categories).mean());
}

TEST(ClientStatsTest, HistogramPercentilesOrdered) {
  ClientStats stats;
  for (int i = 1; i <= 1000; ++i) {
    stats.record_completion(sim::from_seconds(i * 0.01), 0.001 * i);
  }
  const auto& histogram = stats.response_time_histogram();
  EXPECT_LT(histogram.p50(), histogram.p95());
  EXPECT_LT(histogram.p95(), histogram.p99());
  EXPECT_NEAR(histogram.p50(), 0.5, 0.05);
}

}  // namespace
}  // namespace dcm::workload
