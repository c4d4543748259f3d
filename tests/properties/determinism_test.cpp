// Determinism: the whole stack — engine, PS servers, pools, bus,
// controllers, workload generators — must replay bit-identically for the
// same seed, and diverge for different seeds.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace dcm::core {
namespace {

struct RunDigest {
  uint64_t completed;
  uint64_t errors;
  double mean_throughput;
  double mean_rt;
  double p95_rt;
  size_t action_count;
  std::vector<double> tomcat_vms;

  bool operator==(const RunDigest& other) const {
    return completed == other.completed && errors == other.errors &&
           mean_throughput == other.mean_throughput && mean_rt == other.mean_rt &&
           p95_rt == other.p95_rt && action_count == other.action_count &&
           tomcat_vms == other.tomcat_vms;
  }
};

RunDigest run_digest(uint64_t seed, ControllerSpec::Kind controller_kind) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 200, 80};
  config.workload = WorkloadSpec::trace_driven(workload::Trace::large_variation(seed), 3.0);
  switch (controller_kind) {
    case ControllerSpec::Kind::kNone:
      config.controller = ControllerSpec::none();
      break;
    case ControllerSpec::Kind::kEc2AutoScale:
      config.controller = ControllerSpec::ec2();
      break;
    case ControllerSpec::Kind::kDcm: {
      control::DcmConfig dcm;
      dcm.app_tier_model = tomcat_reference_model();
      dcm.db_tier_model = mysql_reference_model();
      config.controller = ControllerSpec::dcm_controller(dcm);
      break;
    }
    case ControllerSpec::Kind::kPredictive:
      config.controller = ControllerSpec::predictive_controller({});
      break;
    case ControllerSpec::Kind::kQueueing:
      config.controller = ControllerSpec::queueing_controller({});
      break;
    case ControllerSpec::Kind::kPi:
      config.controller = ControllerSpec::pi_controller({});
      break;
  }
  config.duration_seconds = 200.0;
  config.warmup_seconds = 20.0;
  config.seed = seed;

  const auto result = run_experiment(config);
  RunDigest digest;
  digest.completed = result.completed;
  digest.errors = result.errors;
  digest.mean_throughput = result.mean_throughput;
  digest.mean_rt = result.mean_response_time;
  digest.p95_rt = result.p95_response_time;
  digest.action_count = result.actions.size();
  for (const auto& [t, v] : result.tiers[1].provisioned_vms.mean_series()) {
    digest.tomcat_vms.push_back(v);
  }
  return digest;
}

class DeterminismTest : public ::testing::TestWithParam<ControllerSpec::Kind> {};

TEST_P(DeterminismTest, SameSeedReplaysBitIdentically) {
  const RunDigest first = run_digest(42, GetParam());
  const RunDigest second = run_digest(42, GetParam());
  EXPECT_TRUE(first == second);
}

TEST_P(DeterminismTest, DifferentSeedsDiverge) {
  const RunDigest a = run_digest(42, GetParam());
  const RunDigest b = run_digest(43, GetParam());
  EXPECT_FALSE(a == b);
}

INSTANTIATE_TEST_SUITE_P(Controllers, DeterminismTest,
                         ::testing::Values(ControllerSpec::Kind::kNone,
                                           ControllerSpec::Kind::kEc2AutoScale,
                                           ControllerSpec::Kind::kDcm,
                                           ControllerSpec::Kind::kPredictive,
                                           ControllerSpec::Kind::kQueueing,
                                           ControllerSpec::Kind::kPi),
                         [](const ::testing::TestParamInfo<ControllerSpec::Kind>& param_info) {
                           switch (param_info.param) {
                             case ControllerSpec::Kind::kNone:
                               return std::string("uncontrolled");
                             case ControllerSpec::Kind::kEc2AutoScale:
                               return std::string("ec2");
                             case ControllerSpec::Kind::kDcm:
                               return std::string("dcm");
                             case ControllerSpec::Kind::kPredictive:
                               return std::string("predictive");
                             case ControllerSpec::Kind::kQueueing:
                               return std::string("queueing");
                             case ControllerSpec::Kind::kPi:
                               return std::string("pi");
                           }
                           return std::string("unknown");
                         });

}  // namespace
}  // namespace dcm::core
