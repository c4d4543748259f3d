// Behaviour of the zoo beyond the classic threshold pair: the predictive
// Holt smoother, the queueing-theoretic inversion, the PI loop with
// anti-windup, and the registry that names them all.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bus/producer.h"
#include "control/controller_registry.h"
#include "control/pi_controller.h"
#include "control/predictive_controller.h"
#include "control/queueing_controller.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

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

class ZooTest : public ::testing::Test {
 protected:
  explicit ZooTest(int max_vms_per_tier = 8)
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80},
                                       max_vms_per_tier),
             1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  // One control period of per-second samples ending at `end_s`, then the
  // simulation advances past the tick at `end_s`. Emit-then-advance matters:
  // the consumer drains everything available at tick time, so pre-publishing
  // several periods would collapse them into one observation. A negative
  // utilisation skips that tier for the period (a telemetry gap).
  void step(double end_s, double tomcat_util, double mysql_util = 0.5) {
    for (double t = end_s - 14.0; t <= end_s; t += 1.0) {
      const sim::SimTime now = sim::from_seconds(t);
      publish(*producer_, now, "apache", 0, 0, 0.3);
      if (tomcat_util >= 0.0) publish(*producer_, now, "tomcat", 1, 0, tomcat_util);
      if (mysql_util >= 0.0) publish(*producer_, now, "mysql", 2, 0, mysql_util);
    }
    engine_.run_until(sim::from_seconds(end_s + 1.0));
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

// --- registry ---

TEST(ControllerRegistryTest, NamesAreSortedAndComplete) {
  const std::vector<std::string>& names = controller_names();
  const std::vector<std::string> expected = {"dcm", "ec2", "pi", "predictive", "queueing"};
  EXPECT_EQ(names, expected);
  for (const auto& name : names) EXPECT_TRUE(has_controller(name));
  EXPECT_FALSE(has_controller("pid"));
  EXPECT_FALSE(has_controller(""));
}

class RegistryConstructTest : public ZooTest {};

TEST_F(RegistryConstructTest, EveryRegisteredNameConstructs) {
  ControllerMenu menu;
  menu.dcm.app_tier_model = core::tomcat_reference_model();
  menu.dcm.db_tier_model = core::mysql_reference_model();
  for (const auto& name : controller_names()) {
    auto controller = make_controller(name, engine_, app_, broker_, menu);
    ASSERT_NE(controller, nullptr) << name;
  }
}

TEST_F(RegistryConstructTest, UnknownNameThrows) {
  ControllerMenu menu;
  EXPECT_THROW(make_controller("pid", engine_, app_, broker_, menu), std::invalid_argument);
}

TEST_F(RegistryConstructTest, MenuPolicyIsStampedIntoTheChosenFamily) {
  ControllerMenu menu;
  menu.policy.scale_in_consecutive = 7;
  auto controller = make_controller("queueing", engine_, app_, broker_, menu);
  EXPECT_EQ(controller->policy().scale_in_consecutive, 7);
}

// --- predictive ---

class PredictiveTest : public ZooTest {
 protected:
  PredictiveConfig ramp_config() const {
    PredictiveConfig config;
    config.level_alpha = 0.5;
    config.trend_beta = 0.3;
    config.horizon_periods = 3;
    return config;
  }
};

TEST_F(PredictiveTest, RampScalesOutBeforeRawUtilizationCrosses) {
  PredictiveController controller(engine_, app_, broker_, ramp_config());
  controller.start();
  // Rising ramp that never reaches the 0.8 trigger: the forecast must.
  step(15.0, 0.40);
  step(30.0, 0.60);
  step(45.0, 0.78);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2)
      << "forecast " << controller.forecast(1) << " should have pre-empted the breach";
  EXPECT_GT(controller.forecast(1), 0.8);
  EXPECT_EQ(controller.log().filtered("scale_out").size(), 1u);
}

TEST_F(PredictiveTest, FirstPeriodIsReactiveNotBlind) {
  PredictiveController controller(engine_, app_, broker_, ramp_config());
  controller.start();
  // No history at all: a live breach in the very first period still acts,
  // because the seeded forecast equals the observation.
  step(15.0, 0.95);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(PredictiveTest, FirstPeriodDoesNotExtrapolateAPhantomTrend) {
  PredictiveController controller(engine_, app_, broker_, ramp_config());
  controller.start();
  // A calm first observation must seed (level = u, trend = 0): no forecast
  // excursion, no action.
  step(15.0, 0.60);
  EXPECT_NEAR(controller.forecast(1), 0.60, 1e-9);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PredictiveTest, TelemetryGapDiscardsTheTrend) {
  PredictiveController controller(engine_, app_, broker_, ramp_config());
  controller.start();
  step(15.0, 0.40);
  step(30.0, 0.60);  // trend is now rising
  step(45.0, -1.0);  // tomcat goes silent for one period
  step(60.0, 0.78);  // reappears below the trigger
  // Extrapolating the pre-gap trend across the silence would have forecast a
  // breach; the re-seed treats 0.78 as a fresh start instead.
  EXPECT_NEAR(controller.forecast(1), 0.78, 1e-9);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

// --- queueing ---

class QueueingTest : public ZooTest {};

TEST_F(QueueingTest, UtilizationLawInversionScalesOut) {
  QueueingController controller(engine_, app_, broker_, QueueingConfig{});
  controller.start();
  // One server at 0.9 busy-servers of demand against rho* = 0.6:
  // k* = ceil(0.9 / 0.6) = 2.
  step(15.0, 0.90);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
  EXPECT_NEAR(controller.demand_estimate(1), 0.90, 1e-9);
}

TEST_F(QueueingTest, AtTargetHoldsStill) {
  QueueingController controller(engine_, app_, broker_, QueueingConfig{});
  controller.start();
  // Demand 0.5 against rho* = 0.6 inverts to k* = 1 = current fleet.
  step(15.0, 0.50);
  step(30.0, 0.50);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
  EXPECT_TRUE(controller.log().actions().empty());
}

TEST_F(QueueingTest, SurplusMustPersistForTheScaleInStreak) {
  ASSERT_TRUE(app_.tier(1).scale_out());
  QueueingController controller(engine_, app_, broker_, QueueingConfig{});
  controller.start();
  engine_.run_until(sim::from_seconds(16.0));
  ASSERT_EQ(app_.tier(1).active_vm_count(), 2);
  // Two servers nearly idle: demand 0.3 inverts to k* = 1, a one-VM surplus.
  step(30.0, 0.15);
  step(45.0, 0.15);
  EXPECT_EQ(app_.tier(1).active_vm_count(), 2) << "two low periods must not yet drain";
  step(60.0, 0.15);
  EXPECT_EQ(app_.tier(1).active_vm_count(), 1) << "third consecutive period drains";
}

// --- PI ---

class PiTest : public ZooTest {};

TEST_F(PiTest, ProportionalTermActsOnALargeErrorImmediately) {
  PiController controller(engine_, app_, broker_, PiConfig{});
  controller.start();
  // e = 0.35 -> delta = 2*0.35 + 0.5*0.35 = 0.875 > deadband 0.5.
  step(15.0, 0.95);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
  // Back-calculation reset: the fleet changed, the evidence restarts.
  EXPECT_DOUBLE_EQ(controller.integral(1), 0.0);
}

TEST_F(PiTest, IntegralTermRemovesSteadyStateOffset) {
  PiController controller(engine_, app_, broker_, PiConfig{});
  controller.start();
  // e = 0.12: the proportional term alone (0.24) never clears the deadband,
  // but the integral winds up 0.12 per period; at period 5 the PI signal
  // 0.24 + 0.5*0.60 = 0.54 finally does.
  for (int period = 1; period <= 4; ++period) step(15.0 * period, 0.72);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1) << "period 4: delta 0.48 still inside";
  step(15.0 * 5, 0.72);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(PiTest, PurePTolerantOfTheSameOffsetForever) {
  PiConfig config;
  config.ki = 0.0;
  PiController controller(engine_, app_, broker_, config);
  controller.start();
  for (int period = 1; period <= 10; ++period) step(15.0 * period, 0.72);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PiTest, DeadbandHoldsSmallErrors) {
  PiController controller(engine_, app_, broker_, PiConfig{});
  controller.start();
  // e = 0.05 -> delta well inside the deadband; integral accumulates quietly.
  step(15.0, 0.65);
  step(30.0, 0.65);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
  EXPECT_NEAR(controller.integral(1), 0.10, 1e-9);
}

class PiSaturationTest : public ZooTest {
 protected:
  PiSaturationTest() : ZooTest(/*max_vms_per_tier=*/1) {}
};

TEST_F(PiSaturationTest, ConditionalIntegrationFreezesAgainstASaturatedActuator) {
  PiController controller(engine_, app_, broker_, PiConfig{});
  controller.start();
  // The tier is already at max_vms = 1, so every scale-out request is
  // refused. Without conditional integration the error 0.35/period would
  // wind the integral to the clamp; frozen, it stays at zero.
  for (int period = 1; period <= 4; ++period) step(15.0 * period, 0.95);
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
  EXPECT_DOUBLE_EQ(controller.integral(1), 0.0);
  EXPECT_TRUE(controller.log().actions().empty());
}

}  // namespace
}  // namespace dcm::control
