// DCM graceful degradation: the stale-telemetry watchdog freezes soft
// actuation (hardware-only fallback) and resumes on fresh samples; the R²
// gate rejects degraded online fits.
#include <gtest/gtest.h>

#include "bus/producer.h"
#include "control/dcm_controller.h"
#include "core/topologies.h"
#include "model/concurrency_model.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

int count_actions(const ControlLog& log, const std::string& action) {
  return static_cast<int>(log.filtered(action).size());
}

class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  void publish_sample(sim::SimTime t, const std::string& tier, int depth, double concurrency,
                      double throughput) {
    ntier::MetricSample s;
    s.time = t;
    s.depth = depth;
    s.vm_state = ntier::VmState::kActive;
    s.concurrency = concurrency;
    s.throughput = throughput;
    s.cpu_util = 0.5;
    producer_->send(ntier::kMetricsTopic, tier + "-vm0", ntier::encode(s), t);
  }

  DcmConfig base_config() {
    DcmConfig config;
    config.app_tier_model = core::tomcat_reference_model();
    config.db_tier_model = core::mysql_reference_model();
    return config;
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

TEST_F(WatchdogTest, ConsecutiveSilentPeriodsFreezeSoftActuation) {
  DcmConfig config = base_config();
  config.watchdog_periods = 2;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();
  EXPECT_FALSE(controller.actuation_frozen());

  // No telemetry at all: periods at 15 s and 30 s are both empty.
  engine_.run_until(sim::from_seconds(31.0));
  EXPECT_TRUE(controller.actuation_frozen());
  EXPECT_GE(controller.silent_periods(), 2);
  EXPECT_EQ(count_actions(controller.log(), "watchdog_freeze"), 1);
  EXPECT_EQ(count_actions(controller.log(), "watchdog_resume"), 0);
}

TEST_F(WatchdogTest, FreshTelemetryResumesActuation) {
  DcmConfig config = base_config();
  config.watchdog_periods = 2;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();
  engine_.run_until(sim::from_seconds(31.0));
  ASSERT_TRUE(controller.actuation_frozen());

  publish_sample(sim::from_seconds(40.0), "tomcat", 1, 10.0, 120.0);
  engine_.run_until(sim::from_seconds(46.0));  // decide at 45 s sees the sample
  EXPECT_FALSE(controller.actuation_frozen());
  EXPECT_EQ(controller.silent_periods(), 0);
  EXPECT_EQ(count_actions(controller.log(), "watchdog_resume"), 1);
}

TEST_F(WatchdogTest, FreezeAndResumeToggleRepeatedly) {
  DcmConfig config = base_config();
  config.watchdog_periods = 2;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();

  engine_.run_until(sim::from_seconds(31.0));
  ASSERT_TRUE(controller.actuation_frozen());
  publish_sample(sim::from_seconds(40.0), "tomcat", 1, 10.0, 120.0);
  engine_.run_until(sim::from_seconds(46.0));
  ASSERT_FALSE(controller.actuation_frozen());
  // Telemetry goes dark again: two more silent periods re-freeze.
  engine_.run_until(sim::from_seconds(76.0));
  EXPECT_TRUE(controller.actuation_frozen());
  EXPECT_EQ(count_actions(controller.log(), "watchdog_freeze"), 2);
}

TEST_F(WatchdogTest, WatchdogDisabledNeverFreezes) {
  DcmConfig config = base_config();  // watchdog_periods = 0
  DcmController controller(engine_, app_, broker_, config);
  controller.start();
  engine_.run_until(sim::from_seconds(100.0));
  EXPECT_FALSE(controller.actuation_frozen());
  EXPECT_EQ(count_actions(controller.log(), "watchdog_freeze"), 0);
}

TEST_F(WatchdogTest, LowRSquaredFitIsRejectedAndFreezes) {
  DcmConfig config = base_config();
  config.online_estimation = true;
  config.min_fit_r2 = 0.95;
  config.estimator.min_bins = 6;
  config.estimator.min_spread = 3.0;
  config.estimator.min_samples_per_bin = 1;
  // Let the estimator hand every converged fit to the controller: the
  // controller-level R² gate (not the estimator's own floor) is under test.
  config.estimator.min_r_squared = 0.0;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();
  ASSERT_EQ(controller.db_tier_nb(), 36);  // seeded optimum deployed

  // Noisy telemetry that no Eq. 5 curve fits well: throughput oscillates
  // hard with concurrency, so the refit's R² is poor and must be rejected.
  int step = 0;
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    const double n = 1.0 + 2.0 * step;
    const double x = (step % 2 == 0) ? 5.0 : 120.0;
    publish_sample(sim::from_seconds(t), "mysql", 2, n, x);
    ++step;
  }
  engine_.run_until(sim::from_seconds(31.0));

  // The degraded fit froze soft actuation and the seeded model survived.
  EXPECT_TRUE(controller.actuation_frozen());
  EXPECT_EQ(controller.db_tier_nb(), 36);
  EXPECT_EQ(count_actions(controller.log(), "watchdog_freeze"), 1);
}

}  // namespace
}  // namespace dcm::control
