// HysteresisGate unit behaviour plus the end-to-end flap-kill property:
// an oscillating utilisation trace through Ec2AutoScale must churn VMs with
// the gate off and hold still with the gate on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bus/producer.h"
#include "control/ec2_autoscale.h"
#include "control/hysteresis.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

TEST(HysteresisGateTest, AboveDirectionSwitchesOnDecisiveCrossings) {
  HysteresisGate gate(0.05, TriggerDirection::kAbove);
  EXPECT_FALSE(gate.update(0.80, 0.80));  // inside the band: stays off
  EXPECT_FALSE(gate.update(0.84, 0.80));  // still inside threshold+width
  EXPECT_TRUE(gate.update(0.86, 0.80));   // decisive breach
  EXPECT_TRUE(gate.update(0.78, 0.80));   // inside the band: holds on
  EXPECT_TRUE(gate.update(0.76, 0.80));
  EXPECT_FALSE(gate.update(0.74, 0.80));  // decisive retreat
  EXPECT_FALSE(gate.update(0.84, 0.80));  // band again: holds off
}

TEST(HysteresisGateTest, BelowDirectionMirrors) {
  HysteresisGate gate(0.05, TriggerDirection::kBelow);
  EXPECT_FALSE(gate.update(0.40, 0.40));
  EXPECT_FALSE(gate.update(0.36, 0.40));  // inside threshold-width
  EXPECT_TRUE(gate.update(0.34, 0.40));   // decisive drop
  EXPECT_TRUE(gate.update(0.44, 0.40));   // band: holds on
  EXPECT_FALSE(gate.update(0.46, 0.40));  // decisive recovery
}

TEST(HysteresisGateTest, ZeroWidthDegeneratesToStrictComparison) {
  HysteresisGate above(0.0, TriggerDirection::kAbove);
  EXPECT_FALSE(above.update(0.80, 0.80));  // strict >: equality is off
  EXPECT_TRUE(above.update(0.8000001, 0.80));
  EXPECT_FALSE(above.update(0.7999999, 0.80));  // no memory at width 0

  HysteresisGate below(0.0, TriggerDirection::kBelow);
  EXPECT_FALSE(below.update(0.40, 0.40));  // strict <
  EXPECT_TRUE(below.update(0.3999999, 0.40));
  EXPECT_FALSE(below.update(0.4000001, 0.40));

  // A negative width behaves like zero, not like an inverted band.
  HysteresisGate negative(-0.1, TriggerDirection::kAbove);
  EXPECT_TRUE(negative.update(0.81, 0.80));
  EXPECT_FALSE(negative.update(0.79, 0.80));
}

TEST(HysteresisGateTest, NonFiniteSignalForcesOff) {
  HysteresisGate gate(0.05, TriggerDirection::kAbove);
  EXPECT_TRUE(gate.update(0.90, 0.80));
  EXPECT_FALSE(gate.update(std::numeric_limits<double>::quiet_NaN(), 0.80));
  EXPECT_FALSE(gate.state());
  EXPECT_TRUE(gate.update(0.90, 0.80));
  EXPECT_FALSE(gate.update(std::numeric_limits<double>::infinity(), 0.80));
}

TEST(HysteresisGateTest, ResetForgetsState) {
  HysteresisGate gate(0.05, TriggerDirection::kAbove);
  EXPECT_TRUE(gate.update(0.90, 0.80));
  gate.reset();
  EXPECT_FALSE(gate.state());
  EXPECT_FALSE(gate.update(0.78, 0.80));  // band after reset: stays off
}

// --- end-to-end flap kill through Ec2AutoScale ---

void publish(bus::Producer& producer, sim::SimTime t, const std::string& tier, int depth, int vm,
             double util) {
  ntier::MetricSample s;
  s.time = t;
  s.depth = depth;
  s.vm = vm;
  s.vm_state = ntier::VmState::kActive;
  s.cpu_util = util;
  s.concurrency = 10.0;
  s.throughput = 50.0;
  producer.send(ntier::kMetricsTopic, tier + "-vm" + std::to_string(vm), ntier::encode(s), t);
}

class FlapTest : public ::testing::Test {
 protected:
  FlapTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  // Shallow oscillation around both thresholds: one period just above the
  // scale-out trigger, three just below the scale-in trigger, repeated.
  // Without hysteresis this is the classic ping-pong; with a 0.1 band no
  // excursion is decisive.
  int run_oscillation(double hysteresis) {
    ScalingPolicy policy;
    policy.hysteresis = hysteresis;
    Ec2AutoScaleController controller(engine_, app_, broker_, policy);
    controller.start();
    const double pattern[] = {0.82, 0.38, 0.38, 0.38};
    for (int period = 1; period <= 16; ++period) {
      const double end_s = 15.0 * period;
      const double util = pattern[(period - 1) % 4];
      // Emit each period before its tick — the consumer drains everything
      // available at tick time.
      for (double t = end_s - 14.0; t <= end_s; t += 1.0) {
        publish(*producer_, sim::from_seconds(t), "tomcat", 1, 0, util);
      }
      engine_.run_until(sim::from_seconds(end_s + 1.0));
    }
    return static_cast<int>(controller.log().filtered("scale_out").size() +
                            controller.log().filtered("scale_in").size());
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

TEST_F(FlapTest, GateOffPingPongsGateOnHoldsStill) {
  const int actions_without_gate = run_oscillation(0.0);
  EXPECT_GE(actions_without_gate, 4) << "oscillation should churn VMs with the gate off";
}

TEST_F(FlapTest, GateOnSuppressesAllFlapping) {
  const int actions_with_gate = run_oscillation(0.1);
  EXPECT_EQ(actions_with_gate, 0) << "no excursion is decisive inside a 0.1 band";
}

}  // namespace
}  // namespace dcm::control
