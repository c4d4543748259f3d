#include "workload/trace.h"

#include <gtest/gtest.h>

#include "core/topologies.h"
#include "workload/trace_player.h"

namespace dcm::workload {
namespace {

TEST(TraceTest, UsersAtStepBoundaries) {
  Trace trace({10, 20, 30});
  EXPECT_EQ(trace.users_at(0), 10);
  EXPECT_EQ(trace.users_at(sim::from_seconds(0.999)), 10);
  EXPECT_EQ(trace.users_at(sim::from_seconds(1.0)), 20);
  EXPECT_EQ(trace.users_at(sim::from_seconds(2.5)), 30);
}

TEST(TraceTest, ClampsBeyondEnd) {
  Trace trace({10, 20});
  EXPECT_EQ(trace.users_at(sim::from_seconds(100.0)), 20);
}

TEST(TraceTest, EmptyTraceIsZero) {
  Trace trace;
  EXPECT_EQ(trace.users_at(0), 0);
  EXPECT_EQ(trace.step_count(), 0u);
}

TEST(TraceTest, Statistics) {
  Trace trace({10, 20, 30});
  EXPECT_EQ(trace.max_users(), 30);
  EXPECT_DOUBLE_EQ(trace.mean_users(), 20.0);
  EXPECT_EQ(trace.duration(), sim::from_seconds(3.0));
}

TEST(TraceTest, ScaledRounds) {
  Trace trace({10, 15});
  const Trace scaled = trace.scaled(1.5);
  EXPECT_EQ(scaled.values(), (std::vector<int>{15, 23}));
}

TEST(TraceTest, CsvRoundTrip) {
  const std::string path = testing::TempDir() + "/dcm_trace_test.csv";
  Trace original({5, 10, 7});
  original.save_csv(path);
  const Trace loaded = Trace::load_csv(path);
  EXPECT_EQ(loaded.values(), original.values());
}

TEST(TraceTest, LargeVariationShape) {
  const Trace trace = Trace::large_variation();
  EXPECT_NEAR(static_cast<double>(trace.step_count()), 700.0, 2.0);
  // Three bursts the paper narrates.
  EXPECT_GT(trace.users_at(sim::from_seconds(75.0)), 220);
  EXPECT_GT(trace.users_at(sim::from_seconds(240.0)), 260);
  EXPECT_GT(trace.users_at(sim::from_seconds(545.0)), 220);
  // Deep trough before the third burst.
  EXPECT_LT(trace.users_at(sim::from_seconds(480.0)), 110);
  // Calm start.
  EXPECT_LT(trace.users_at(sim::from_seconds(10.0)), 150);
}

TEST(TraceTest, LargeVariationDeterministicPerSeed) {
  EXPECT_EQ(Trace::large_variation(7).values(), Trace::large_variation(7).values());
  EXPECT_NE(Trace::large_variation(7).values(), Trace::large_variation(8).values());
}

TEST(TraceTest, Synthesizers) {
  const Trace flat = Trace::flat(50, 10);
  EXPECT_EQ(flat.step_count(), 10u);
  EXPECT_EQ(flat.max_users(), 50);

  const Trace square = Trace::square(10, 90, 20, 40);
  EXPECT_EQ(square.users_at(sim::from_seconds(5.0)), 10);
  EXPECT_EQ(square.users_at(sim::from_seconds(15.0)), 90);

  const Trace sine = Trace::sine(0, 100, 60, 60);
  EXPECT_NEAR(sine.users_at(sim::from_seconds(15.0)), 100, 3);
  EXPECT_NEAR(sine.users_at(sim::from_seconds(45.0)), 0, 3);
}

TEST(TracePlayerTest, DrivesGeneratorAlongTrace) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  const ServletCatalog catalog = ServletCatalog::browse_only_mix();
  auto generator = make_rubbos_clients(engine, app, catalog, 1);
  const Trace trace({10, 10, 10, 40, 40, 40, 5, 5, 5});
  TracePlayer player(engine, *generator, trace);
  player.start();
  engine.run_until(sim::from_seconds(1.5));
  EXPECT_EQ(generator->user_count(), 10);
  engine.run_until(sim::from_seconds(4.5));
  EXPECT_EQ(generator->user_count(), 40);
  engine.run_until(sim::from_seconds(7.5));
  EXPECT_EQ(generator->user_count(), 5);
  EXPECT_FALSE(player.finished(engine.now()));
  engine.run_until(sim::from_seconds(10.0));
  EXPECT_TRUE(player.finished(engine.now()));
  player.stop();
  engine.run_until(sim::from_seconds(20.0));
  EXPECT_EQ(generator->live_users(), 0);
}

}  // namespace
}  // namespace dcm::workload
