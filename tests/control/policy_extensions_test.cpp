// SLA-driven and predictive scale-out policy extensions.
#include <gtest/gtest.h>

#include "bus/producer.h"
#include "control/ec2_autoscale.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

class PolicyExtensionsTest : public ::testing::Test {
 protected:
  PolicyExtensionsTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  void emit_period(double end_s, double tomcat_util, double tomcat_rt = 0.05) {
    for (double t = end_s - 14.0; t <= end_s; t += 1.0) {
      ntier::MetricSample s;
      s.time = sim::from_seconds(t);
      s.depth = 1;
      s.vm_state = ntier::VmState::kActive;
      s.cpu_util = tomcat_util;
      s.throughput = 50.0;
      s.avg_response_time = tomcat_rt;
      producer_->send(ntier::kMetricsTopic, "tomcat-vm0", ntier::encode(s), s.time);
    }
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

TEST_F(PolicyExtensionsTest, SlaViolationTriggersScaleOutAtLowUtil) {
  ScalingPolicy policy;
  policy.scale_out_response_time = 0.5;  // 500 ms SLA
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, /*util=*/0.50, /*rt=*/1.2);  // util fine, RT violated
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(PolicyExtensionsTest, SlaDisabledByDefault) {
  Ec2AutoScaleController controller(engine_, app_, broker_, {});
  controller.start();
  emit_period(15.0, 0.50, 5.0);  // terrible RT but SLA trigger off
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, SlaWithinBoundDoesNotTrigger) {
  ScalingPolicy policy;
  policy.scale_out_response_time = 0.5;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, 0.50, 0.2);
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, PredictiveScalesOnRisingTrendBeforeThreshold) {
  ScalingPolicy policy;
  policy.predictive = true;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  // 0.45 → 0.70: projection 0.95 > 0.80 even though 0.70 is below it.
  // (Emit each period before its tick — the consumer drains everything
  // available at tick time.)
  emit_period(15.0, 0.45);
  engine_.run_until(sim::from_seconds(16.0));
  emit_period(30.0, 0.70);
  engine_.run_until(sim::from_seconds(31.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(PolicyExtensionsTest, ReactiveWouldNotHaveScaledYet) {
  Ec2AutoScaleController controller(engine_, app_, broker_, {});
  controller.start();
  emit_period(15.0, 0.45);
  engine_.run_until(sim::from_seconds(16.0));
  emit_period(30.0, 0.70);
  engine_.run_until(sim::from_seconds(31.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, PredictiveIgnoresFallingTrend) {
  ScalingPolicy policy;
  policy.predictive = true;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, 0.75);
  engine_.run_until(sim::from_seconds(16.0));
  emit_period(30.0, 0.60);  // falling: projection 0.45
  engine_.run_until(sim::from_seconds(31.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, PredictiveFirstPeriodHasNoTrend) {
  ScalingPolicy policy;
  policy.predictive = true;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, 0.75);  // no previous observation → reactive only
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, PredictiveDiscardsPriorAcrossTelemetryGap) {
  ScalingPolicy policy;
  policy.predictive = true;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, 0.45);
  engine_.run_until(sim::from_seconds(16.0));
  // One silent period: no samples reach the controller at the 30 s tick.
  engine_.run_until(sim::from_seconds(31.0));
  emit_period(45.0, 0.70);
  engine_.run_until(sim::from_seconds(46.0));
  // Extrapolating 0.45 → 0.70 as if adjacent would project 0.95 and scale
  // out; the gap must instead reset the prior, making 0.70 a first
  // observation (reactive only).
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
  // The trend resumes from the post-gap baseline: 0.70 → 0.78 projects 0.86.
  emit_period(60.0, 0.78);
  engine_.run_until(sim::from_seconds(61.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(PolicyExtensionsTest, PredictiveStillUsesReactiveSignal) {
  ScalingPolicy policy;
  policy.predictive = true;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, 0.95);  // plain threshold breach, first period
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

}  // namespace
}  // namespace dcm::control
