// Monitoring behaviour around VM failures: dead VMs go silent, the
// controller's view shrinks to the survivors.
#include <gtest/gtest.h>

#include "bus/consumer.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"

namespace dcm::ntier {
namespace {

TEST(MonitorFailureTest, FailedVmStopsPublishing) {
  sim::Engine engine;
  NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  bus::Broker broker;
  MonitorFleet fleet(engine, app, broker);

  engine.run_until(sim::from_seconds(5.5));
  app.tier(1).fail_vm("tomcat-vm0");
  engine.run_until(sim::from_seconds(12.5));

  bus::Consumer consumer(broker, "test", kMetricsTopic);
  int vm0_before = 0, vm0_after = 0, vm1_after = 0;
  for (const auto& record : consumer.poll(10000)) {
    const auto sample = decode(record.value());
    ASSERT_TRUE(sample.has_value());
    if (sample->depth != 1) continue;  // tomcat
    if (sample->vm == 0) {
      (sim::to_seconds(sample->time) <= 5.5 ? vm0_before : vm0_after)++;
    }
    if (sample->vm == 1 && sim::to_seconds(sample->time) > 5.5) {
      ++vm1_after;
    }
  }
  EXPECT_EQ(vm0_before, 5);
  EXPECT_EQ(vm0_after, 0);   // silence after the crash
  EXPECT_EQ(vm1_after, 7);   // the survivor keeps reporting
}

TEST(MonitorFailureTest, DrainingVmStillReportsUntilStopped) {
  sim::Engine engine;
  NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  bus::Broker broker;
  MonitorFleet fleet(engine, app, broker);

  engine.run_until(sim::from_seconds(3.5));
  // Idle drain stops immediately → reports cease right away.
  app.tier(1).scale_in();
  engine.run_until(sim::from_seconds(8.5));

  bus::Consumer consumer(broker, "test", kMetricsTopic);
  int stopped_vm_reports_after = 0;
  for (const auto& record : consumer.poll(10000)) {
    const auto sample = decode(record.value());
    ASSERT_TRUE(sample.has_value());
    if (sample->depth == 1 && sample->vm == 1 && sim::to_seconds(sample->time) > 3.5) {
      ++stopped_vm_reports_after;
    }
  }
  EXPECT_EQ(stopped_vm_reports_after, 0);
}

TEST(MonitorFailureTest, DeadVmAgentCancelsItsTimer) {
  sim::Engine engine;
  NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 3, 1}, {1000, 100, 80}), 1);
  bus::Broker broker;
  MonitorFleet fleet(engine, app, broker);

  // No load: the only pending events are the periodic timers (one per
  // agent, plus the fleet's retention sweep and whatever the app arms).
  engine.run_until(sim::from_seconds(5.5));
  const size_t live = engine.pending_events();
  app.tier(1).fail_vm("tomcat-vm0");
  // The failed VM's agent drops its timer on its first tick after the crash.
  engine.run_until(sim::from_seconds(6.5));
  EXPECT_EQ(engine.pending_events(), live - 1);
  engine.run_until(sim::from_seconds(30.5));
  EXPECT_EQ(engine.pending_events(), live - 1);

  // A VM that drains and stops goes the same way.
  ASSERT_TRUE(app.tier(1).scale_in());
  engine.run_until(sim::from_seconds(31.5));
  EXPECT_EQ(engine.pending_events(), live - 2);
  EXPECT_EQ(fleet.agent_count(), 5u);  // the agents themselves stay attached
}

}  // namespace
}  // namespace dcm::ntier
