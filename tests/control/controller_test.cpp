// Controller behaviour against a hand-driven monitoring stream: threshold
// triggers, hysteresis, sample filtering, and DCM's allocation arithmetic.
#include <gtest/gtest.h>

#include "bus/producer.h"
#include "control/dcm_controller.h"
#include "control/ec2_autoscale.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

// Publishes synthetic samples for VM `vm` ("<tier>-vm<vm>") of a tier.
void publish(bus::Producer& producer, sim::SimTime t, const std::string& tier, int depth, int vm,
             double util, ntier::VmState state = ntier::VmState::kActive,
             double concurrency = 10.0, double throughput = 50.0) {
  ntier::MetricSample s;
  s.time = t;
  s.depth = depth;
  s.vm = vm;
  s.vm_state = state;
  s.cpu_util = util;
  s.concurrency = concurrency;
  s.throughput = throughput;
  producer.send(ntier::kMetricsTopic, tier + "-vm" + std::to_string(vm), ntier::encode(s), t);
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  // Emits `util` for every tier's server once per second over one control
  // period ending at `end_s`.
  void emit_period(double end_s, double tomcat_util, double mysql_util) {
    for (double t = end_s - 14.0; t <= end_s; t += 1.0) {
      const sim::SimTime ts = sim::from_seconds(t);
      publish(*producer_, ts, "apache", 0, 0, 0.10);
      publish(*producer_, ts, "tomcat", 1, 0, tomcat_util);
      publish(*producer_, ts, "mysql", 2, 0, mysql_util);
    }
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

TEST_F(ControllerTest, ScaleOutOnHighUtil) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  emit_period(15.0, /*tomcat=*/0.95, /*mysql=*/0.50);
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
  EXPECT_EQ(app_.tier(2).provisioned_vm_count(), 1);  // mid-band: no action
  EXPECT_EQ(controller.log().filtered("scale_out").size(), 1u);
}

TEST_F(ControllerTest, NoActionInComfortBand) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  for (int period = 1; period <= 4; ++period) {
    emit_period(15.0 * period, 0.60, 0.60);
  }
  engine_.run_until(sim::from_seconds(61.0));
  EXPECT_TRUE(controller.log().actions().empty());
}

TEST_F(ControllerTest, ScaleInNeedsThreeConsecutiveLowPeriods) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  // Grow the tier first so scale-in is possible.
  app_.tier(1).scale_out();
  engine_.run_until(sim::from_seconds(16.0));
  ASSERT_EQ(app_.tier(1).active_vm_count(), 2);

  // Two low periods, one medium (streak reset), then three low.
  emit_period(30.0, 0.10, 0.60);
  emit_period(45.0, 0.10, 0.60);
  emit_period(60.0, 0.60, 0.60);
  engine_.run_until(sim::from_seconds(61.0));
  EXPECT_EQ(controller.log().filtered("scale_in").size(), 0u);

  emit_period(75.0, 0.10, 0.60);
  emit_period(90.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(91.0));
  EXPECT_EQ(controller.log().filtered("scale_in").size(), 0u);
  emit_period(105.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(106.0));
  EXPECT_EQ(controller.log().filtered("scale_in").size(), 1u);
}

TEST_F(ControllerTest, MembershipChurnResetsTheScaleInStreak) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  app_.tier(1).scale_out();
  engine_.run_until(sim::from_seconds(16.0));
  ASSERT_EQ(app_.tier(1).active_vm_count(), 2);

  // Two low periods build the streak... (emit each before its tick — the
  // consumer drains everything available at tick time)
  emit_period(30.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(31.0));
  emit_period(45.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(46.0));
  ASSERT_EQ(controller.log().filtered("scale_in").size(), 0u);

  // ...then the membership changes mid-streak (an operator launch; a crash
  // or resilience relaunch looks identical to the controller). The evidence
  // was gathered against the old fleet, so the streak must restart.
  ASSERT_TRUE(app_.tier(1).scale_out());
  emit_period(60.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(61.0));
  EXPECT_EQ(controller.log().filtered("scale_in").size(), 0u)
      << "third low period after churn must not complete the old streak";

  // Two more low periods complete a fresh streak against the stable fleet.
  emit_period(75.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(76.0));
  emit_period(90.0, 0.10, 0.60);
  engine_.run_until(sim::from_seconds(91.0));
  EXPECT_EQ(controller.log().filtered("scale_in").size(), 1u);
}

TEST_F(ControllerTest, BootingVmSuppressesFurtherScaleOut) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  emit_period(15.0, 0.95, 0.50);
  engine_.run_until(sim::from_seconds(16.0));
  ASSERT_EQ(app_.tier(1).provisioned_vm_count(), 2);
  // Next period still hot, but a VM is booting (boot takes 15 s; the next
  // tick at 30 s sees it just activated — emit the period ending before).
  emit_period(29.9, 0.95, 0.50);
  engine_.run_until(sim::from_seconds(29.95));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(ControllerTest, FrontTierIsNotScaled) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  for (int period = 1; period <= 3; ++period) {
    for (double t = 15.0 * period - 14.0; t <= 15.0 * period; t += 1.0) {
      publish(*producer_, sim::from_seconds(t), "apache", 0, 0, 0.99);
    }
  }
  engine_.run_until(sim::from_seconds(46.0));
  EXPECT_EQ(app_.tier(0).provisioned_vm_count(), 1);
  EXPECT_TRUE(controller.log().actions().empty());
}

TEST_F(ControllerTest, NonActiveSamplesIgnored) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  for (double t = 1.0; t <= 15.0; t += 1.0) {
    publish(*producer_, sim::from_seconds(t), "tomcat", 1, 9, 0.99, ntier::VmState::kBooting);
  }
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_TRUE(controller.log().actions().empty());
}

TEST_F(ControllerTest, MalformedSamplesAreDropped) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  producer_->send(ntier::kMetricsTopic, "junk", "garbage-payload", sim::from_seconds(1.0));
  emit_period(15.0, 0.95, 0.50);
  engine_.run_until(sim::from_seconds(16.0));
  // Still acts on the valid samples.
  EXPECT_EQ(controller.log().filtered("scale_out").size(), 1u);
}

TEST_F(ControllerTest, UtilSeriesRecordsObservations) {
  Ec2AutoScaleController controller(engine_, app_, broker_);
  controller.start();
  emit_period(15.0, 0.42, 0.77);
  engine_.run_until(sim::from_seconds(16.0));
  const auto& series = controller.util_series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_NEAR(series[1].overall().mean(), 0.42, 1e-6);
  EXPECT_NEAR(series[2].overall().mean(), 0.77, 1e-6);
}

class DcmControllerTest : public ControllerTest {
 protected:
  DcmConfig dcm_config() {
    DcmConfig config;
    config.app_tier_model = core::tomcat_reference_model();
    config.db_tier_model = core::mysql_reference_model();
    return config;
  }
};

TEST_F(DcmControllerTest, DeploysOptimaAtStartup) {
  DcmController controller(engine_, app_, broker_, dcm_config());
  EXPECT_EQ(app_.tier(1).current_thread_pool_size(), controller.app_tier_nb());
  EXPECT_EQ(app_.tier(1).current_downstream_connections(), controller.db_tier_nb());
  EXPECT_NEAR(controller.app_tier_nb(), 20, 1);
  EXPECT_NEAR(controller.db_tier_nb(), 36, 1);
}

TEST_F(DcmControllerTest, HeadroomScalesThreadPool) {
  DcmConfig config = dcm_config();
  config.stp_headroom = 2.0;
  DcmController controller(engine_, app_, broker_, config);
  EXPECT_NEAR(controller.app_tier_nb(), 40, 2);
  EXPECT_EQ(app_.tier(1).current_thread_pool_size(), controller.app_tier_nb());
}

TEST_F(DcmControllerTest, ConnectionsSplitAcrossAppServers) {
  DcmController controller(engine_, app_, broker_, dcm_config());
  controller.start();
  // Scale the app tier to 2; once active, per-server conns halve.
  app_.tier(1).scale_out();
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).current_downstream_connections(),
            (controller.db_tier_nb() + 1) / 2);
}

TEST_F(DcmControllerTest, ConnectionsGrowWithDbServers) {
  DcmController controller(engine_, app_, broker_, dcm_config());
  controller.start();
  app_.tier(2).scale_out();
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).current_downstream_connections(), 2 * controller.db_tier_nb());
}

TEST_F(DcmControllerTest, HardwareRuleStillApplies) {
  DcmController controller(engine_, app_, broker_, dcm_config());
  controller.start();
  emit_period(15.0, 0.95, 0.50);
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

}  // namespace
}  // namespace dcm::control
