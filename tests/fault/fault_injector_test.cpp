// FaultInjector: deterministic targeting and per-family injection effects
// against a live 3-tier deployment.
#include <gtest/gtest.h>

#include "bus/broker.h"
#include "core/topologies.h"
#include "fault/fault_injector.h"
#include "ntier/monitor_agent.h"

namespace dcm::fault {
namespace {

FaultEvent crash_at(double t) {
  FaultEvent event;
  event.kind = FaultKind::kVmCrash;
  event.at = sim::from_seconds(t);
  return event;
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1) {
    broker_.create_topic(ntier::kMetricsTopic);
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
};

TEST_F(FaultInjectorTest, CrashHitsOldestActiveVmAndStaysInBalancer) {
  FaultPlan plan;
  plan.events.push_back(crash_at(10.0));
  FaultInjector injector(engine_, app_, broker_, nullptr, plan);
  engine_.run_until(sim::from_seconds(20.0));

  // Rotation starts at the first scalable tier (depth 1); the oldest ACTIVE
  // VM there is tomcat-vm0. The crash is silent: the dead server stays a
  // balancer member until health checks eject it.
  ntier::Tier& app_tier = app_.tier(1);
  EXPECT_EQ(app_tier.vms()[0]->state(), ntier::VmState::kFailed);
  EXPECT_TRUE(app_tier.balancer().contains(&app_tier.vms()[0]->server()));
  EXPECT_FALSE(app_tier.vms()[0]->server().online());

  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, "vm_crash");
  EXPECT_EQ(injector.log()[0].target, "tomcat-vm0");
  EXPECT_EQ(injector.injected_count(), 1);
}

TEST_F(FaultInjectorTest, TargetRotationAlternatesScalableTiers) {
  FaultPlan plan;
  plan.events.push_back(crash_at(10.0));
  plan.events.push_back(crash_at(20.0));
  plan.events.push_back(crash_at(30.0));
  FaultInjector injector(engine_, app_, broker_, nullptr, plan);
  engine_.run_until(sim::from_seconds(40.0));

  ASSERT_EQ(injector.log().size(), 3u);
  EXPECT_EQ(injector.log()[0].target, "tomcat-vm0");
  EXPECT_EQ(injector.log()[1].target, "mysql-vm0");
  EXPECT_EQ(injector.log()[2].target, "tomcat-vm1");
}

TEST_F(FaultInjectorTest, SlowdownScalesCpuCapacityThenRecovers) {
  FaultEvent event;
  event.kind = FaultKind::kVmSlowdown;
  event.at = sim::from_seconds(5.0);
  event.duration = sim::from_seconds(10.0);
  event.severity = 0.25;
  FaultPlan plan;
  plan.events.push_back(event);
  FaultInjector injector(engine_, app_, broker_, nullptr, plan);

  const ntier::Server& victim = app_.tier(1).vms()[0]->server();
  engine_.run_until(sim::from_seconds(7.0));
  EXPECT_EQ(victim.cpu().capacity_factor(), 0.25);
  engine_.run_until(sim::from_seconds(20.0));
  EXPECT_EQ(victim.cpu().capacity_factor(), 1.0);

  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0].kind, "vm_slowdown");
  EXPECT_EQ(injector.log()[1].kind, "vm_recover");
  EXPECT_EQ(injector.log()[1].target, injector.log()[0].target);
}

TEST_F(FaultInjectorTest, TelemetryLossOpensTopicDropWindow) {
  FaultEvent event;
  event.kind = FaultKind::kTelemetryLoss;
  event.at = sim::from_seconds(5.0);
  event.duration = sim::from_seconds(10.0);
  FaultPlan plan;
  plan.events.push_back(event);
  FaultInjector injector(engine_, app_, broker_, nullptr, plan);
  engine_.run_until(sim::from_seconds(6.0));

  bus::Topic* topic = broker_.find_topic(ntier::kMetricsTopic);
  ASSERT_NE(topic, nullptr);
  EXPECT_TRUE(topic->drops_at(sim::from_seconds(10.0)));
  EXPECT_FALSE(topic->drops_at(sim::from_seconds(15.0)));
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, "telemetry_loss");
  EXPECT_EQ(injector.log()[0].target, ntier::kMetricsTopic);
}

TEST_F(FaultInjectorTest, AgentSilenceWithoutFleetIsLoggedAsSkipped) {
  FaultEvent event;
  event.kind = FaultKind::kAgentSilence;
  event.at = sim::from_seconds(5.0);
  event.duration = sim::from_seconds(10.0);
  FaultPlan plan;
  plan.events.push_back(event);
  FaultInjector injector(engine_, app_, broker_, nullptr, plan);
  engine_.run_until(sim::from_seconds(6.0));

  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, "skipped");
  EXPECT_EQ(injector.injected_count(), 0);
}

TEST_F(FaultInjectorTest, AgentSilenceMutesTheVictimsMonitor) {
  ntier::MonitorFleet fleet(engine_, app_, broker_);
  FaultEvent event;
  event.kind = FaultKind::kAgentSilence;
  event.at = sim::from_seconds(5.0);
  event.duration = sim::from_seconds(10.0);
  FaultPlan plan;
  plan.events.push_back(event);
  FaultInjector injector(engine_, app_, broker_, &fleet, plan);
  engine_.run_until(sim::from_seconds(6.0));

  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, "agent_silence");
  EXPECT_EQ(injector.log()[0].target, "tomcat-vm0");
  EXPECT_EQ(injector.injected_count(), 1);
}

TEST_F(FaultInjectorTest, InjectionLogIsReproducible) {
  FaultSpec spec;
  spec.crash_mttf_seconds = 40.0;
  spec.slowdown_mttf_seconds = 60.0;
  const FaultPlan plan = FaultPlan::synthesize(spec, 21, 120.0);
  ASSERT_FALSE(plan.events.empty());

  auto run_once = [&plan] {
    sim::Engine engine;
    ntier::NTierApp app(
        engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
    bus::Broker broker;
    broker.create_topic(ntier::kMetricsTopic);
    FaultInjector injector(engine, app, broker, nullptr, plan);
    engine.run_until(sim::from_seconds(120.0));
    return injector.log();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].at, second[i].at);
    EXPECT_EQ(first[i].kind, second[i].kind);
    EXPECT_EQ(first[i].target, second[i].target);
    EXPECT_EQ(first[i].detail, second[i].detail);
  }
}

}  // namespace
}  // namespace dcm::fault
