// Chaos: VM failures under live load — the system degrades gracefully and
// the controller replaces lost capacity.
#include <gtest/gtest.h>

#include "bus/broker.h"
#include "control/ec2_autoscale.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"
#include "workload/closed_loop.h"

namespace dcm {
namespace {

TEST(ChaosTest, TierAbsorbsSingleVmFailure) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  // Zero-think closed loop keeps both Tomcats busy at every instant, so the
  // crash is guaranteed to hit in-flight requests.
  auto generator = workload::make_jmeter(engine, app, catalog, 40);
  generator->start();
  engine.run_until(sim::from_seconds(30.0));

  app.tier(1).fail_one();
  engine.run_until(sim::from_seconds(90.0));

  // Some in-flight requests failed at the instant of the crash…
  EXPECT_GT(generator->stats().errors(), 0u);
  EXPECT_LT(generator->stats().errors(), 41u);
  // …but the closed loop keeps clearing work on the survivor afterwards.
  const double x_after = generator->stats().mean_throughput(sim::from_seconds(45.0),
                                                            sim::from_seconds(90.0));
  EXPECT_GT(x_after, 40.0);
}

TEST(ChaosTest, ControllerReplacesFailedCapacity) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);
  control::Ec2AutoScaleController controller(engine, app, broker);
  controller.start();

  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  // Load sized so ONE tomcat saturates but two are comfortable.
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 350);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));
  ASSERT_EQ(app.tier(1).active_vm_count(), 2);

  app.tier(1).fail_one();
  EXPECT_EQ(app.tier(1).active_vm_count(), 1);
  // The survivor saturates; within a few control periods the controller
  // boots a replacement.
  engine.run_until(sim::from_seconds(200.0));
  EXPECT_GE(app.tier(1).active_vm_count(), 2);
  EXPECT_EQ(app.tier(1).failed_vm_count(), 1);
}

TEST(ChaosTest, RepeatedFailuresDoNotWedgeTheSystem) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 3, 2}, {1000, 100, 40}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 150);
  generator->start();

  // Fail one tomcat at 30 s and one mysql at 60 s.
  engine.schedule_at(sim::from_seconds(30.0), [&] { app.tier(1).fail_one(); });
  engine.schedule_at(sim::from_seconds(60.0), [&] { app.tier(2).fail_one(); });
  engine.run_until(sim::from_seconds(150.0));

  EXPECT_EQ(app.tier(1).failed_vm_count(), 1);
  EXPECT_EQ(app.tier(2).failed_vm_count(), 1);
  // The system still clears work with the survivors.
  const double x = generator->stats().mean_throughput(sim::from_seconds(90.0),
                                                      sim::from_seconds(150.0));
  EXPECT_NEAR(x, 150.0 / 3.0, 6.0);
  // And no requests are stuck: stop the load and drain.
  generator->stop();
  engine.run_until(sim::from_seconds(200.0));
  for (size_t i = 0; i < app.tier_count(); ++i) {
    EXPECT_EQ(app.tier(i).total_in_flight(), 0) << app.tier(i).name();
  }
}

}  // namespace
}  // namespace dcm
