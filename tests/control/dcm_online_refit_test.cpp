// DCM online model refitting: feeding the controller monitoring samples
// drawn from a known throughput curve must steer the deployed allocation
// toward that curve's optimum.
#include <gtest/gtest.h>

#include "bus/producer.h"
#include "control/dcm_controller.h"
#include "core/topologies.h"
#include "model/concurrency_model.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

class DcmOnlineRefitTest : public ::testing::Test {
 protected:
  DcmOnlineRefitTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  void publish_curve_sample(sim::SimTime t, const std::string& tier, int depth,
                            double concurrency, double throughput) {
    ntier::MetricSample s;
    s.time = t;
    s.depth = depth;
    s.vm_state = ntier::VmState::kActive;
    s.concurrency = concurrency;
    s.throughput = throughput;
    s.cpu_util = 0.5;
    producer_->send(ntier::kMetricsTopic, tier + "-vm0", ntier::encode(s), t);
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

TEST_F(DcmOnlineRefitTest, DbAllocationConvergesToObservedCurve) {
  // The "real" MySQL behaves with a much smaller knee than the seeded
  // model claims: N_b_true = 12 vs seeded 36.
  const model::ServiceTimeParams truth{7.19e-3, 1.0e-3, (7.19e-3 - 1.0e-3) / 144.0};

  DcmConfig config;
  config.app_tier_model = core::tomcat_reference_model();
  config.db_tier_model = core::mysql_reference_model();  // wrong on purpose
  config.online_estimation = true;
  config.estimator.min_bins = 6;
  config.estimator.min_spread = 3.0;
  config.estimator.min_samples_per_bin = 1;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();

  ASSERT_EQ(controller.db_tier_nb(), 36);  // seeded value deployed first

  // Stream two control periods of monitoring data sweeping the true curve.
  int step = 0;
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    const double n = 1.0 + 2.0 * step;
    publish_curve_sample(sim::from_seconds(t), "mysql", 2, n,
                         model::server_throughput(truth, n) / core::kDbVisitRatio);
    ++step;
  }
  engine_.run_until(sim::from_seconds(31.0));

  EXPECT_NEAR(controller.db_tier_nb(), 12, 4);
  // And the actuated pool follows the refit model.
  EXPECT_EQ(app_.tier(1).current_downstream_connections(), controller.db_tier_nb());
}

TEST_F(DcmOnlineRefitTest, RefitDisabledKeepsSeededModels) {
  DcmConfig config;
  config.app_tier_model = core::tomcat_reference_model();
  config.db_tier_model = core::mysql_reference_model();
  config.online_estimation = false;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();

  const model::ServiceTimeParams truth{7.19e-3, 1.0e-3, 4.3e-5};
  int step = 0;
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    const double n = 1.0 + 2.0 * step++;
    publish_curve_sample(sim::from_seconds(t), "mysql", 2, n,
                         model::server_throughput(truth, n));
  }
  engine_.run_until(sim::from_seconds(31.0));
  EXPECT_EQ(controller.db_tier_nb(), 36);
}

TEST_F(DcmOnlineRefitTest, GarbageSamplesDoNotCorruptModels) {
  DcmConfig config;
  config.app_tier_model = core::tomcat_reference_model();
  config.db_tier_model = core::mysql_reference_model();
  config.online_estimation = true;
  config.estimator.min_r_squared = 0.90;
  DcmController controller(engine_, app_, broker_, config);
  controller.start();

  // Wide-spread noise: the estimator's R² gate must reject the fit.
  Rng rng(5);
  for (double t = 1.0; t <= 45.0; t += 1.0) {
    publish_curve_sample(sim::from_seconds(t), "mysql", 2, rng.uniform(1.0, 80.0),
                         rng.uniform(5.0, 400.0));
  }
  engine_.run_until(sim::from_seconds(46.0));
  EXPECT_EQ(controller.db_tier_nb(), 36);  // unchanged
}

}  // namespace
}  // namespace dcm::control
