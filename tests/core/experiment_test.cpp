// ExperimentRunner consistency: the summary numbers must agree with the raw
// series and the simulation's own bookkeeping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "scenario/sweep.h"

namespace dcm::core {
namespace {

ExperimentResult small_run(ControllerSpec controller = ControllerSpec::none(),
                           int users = 150) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.workload = WorkloadSpec::rubbos(users);
  config.controller = std::move(controller);
  config.duration_seconds = 90.0;
  config.warmup_seconds = 20.0;
  return run_experiment(config);
}

TEST(ExperimentRunnerTest, CompletedMatchesThroughputSeries) {
  const auto result = small_run();
  double total = 0.0;
  for (const auto& bucket : result.client.throughput_series().buckets()) {
    total += bucket.stat.sum();
  }
  EXPECT_NEAR(total, static_cast<double>(result.completed), 1e-9);
}

TEST(ExperimentRunnerTest, TimelinesCoverTheWholeRun) {
  const auto result = small_run();
  ASSERT_EQ(result.tiers.size(), 3u);
  for (const auto& tier : result.tiers) {
    // 90 one-second buckets (the last sampler tick stamps second 89).
    EXPECT_NEAR(static_cast<double>(tier.provisioned_vms.buckets().size()), 90.0, 1.0);
    EXPECT_EQ(tier.cpu_util.buckets().size(), tier.provisioned_vms.buckets().size());
  }
}

TEST(ExperimentRunnerTest, VmSecondsMatchStaticTopology) {
  const auto result = small_run();
  // No controller: 1 VM per tier for ~90 s each.
  for (size_t i = 0; i < result.tiers.size(); ++i) {
    EXPECT_NEAR(result.vm_seconds[i], 89.0, 2.0) << i;
  }
  // total counts the scalable tiers (tomcat + mysql).
  EXPECT_NEAR(result.total_vm_seconds, result.vm_seconds[1] + result.vm_seconds[2], 1e-9);
  EXPECT_NEAR(result.requests_per_vm_second,
              static_cast<double>(result.completed) / result.total_vm_seconds, 1e-9);
}

TEST(ExperimentRunnerTest, SlaFractionBoundsAndMeaning) {
  const auto light = small_run(ControllerSpec::none(), 60);
  EXPECT_DOUBLE_EQ(light.sla_violation_fraction, 0.0);  // ~60 ms responses

  const auto heavy = small_run(ControllerSpec::none(), 700);
  EXPECT_GT(heavy.sla_violation_fraction, 0.5);  // deeply saturated
  EXPECT_LE(heavy.sla_violation_fraction, 1.0);
}

TEST(ExperimentRunnerTest, UtilTimelineSaturatesUnderOverload) {
  const auto result = small_run(ControllerSpec::none(), 500);
  metrics::Welford tomcat_util;
  for (const auto& bucket : result.tiers[1].cpu_util.buckets()) {
    if (bucket.start < sim::from_seconds(30.0)) continue;
    tomcat_util.merge(bucket.stat);
  }
  EXPECT_GT(tomcat_util.mean(), 0.95);
}

TEST(ExperimentRunnerTest, SweepMeasuresMatchingConcurrency) {
  // Two JMeter points through the sweep runner, each with the app pool
  // matched to the offered users and on its own seed (Table I's discipline).
  scenario::Scenario base;
  base.soft.db_connections = 400;
  base.workload.kind = scenario::WorkloadDecl::Kind::kJmeter;
  base.duration_seconds = 60.0;
  base.warmup_seconds = 20.0;
  std::vector<scenario::PlannedRun> planned;
  for (const int users : {4, 16}) {
    const std::string n = std::to_string(users);
    scenario::PlannedRun run{planned.size(), {}, {{"workload.users", n}, {"soft.app_threads", n}}};
    run.scenario = base.with_overrides(run.overrides);
    run.scenario.seed = derive_seed(base.seed, static_cast<uint64_t>(users));
    planned.push_back(std::move(run));
  }
  const auto runs = scenario::SweepRunner(std::move(planned), /*jobs=*/2).run();
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& run : runs) {
    const ExperimentResult& result = run.result;
    ASSERT_EQ(result.tiers.size(), 3u);
    metrics::Welford tomcat;
    for (const auto& bucket : result.tiers[1].concurrency.buckets()) {
      if (bucket.start >= sim::from_seconds(base.warmup_seconds)) tomcat.merge(bucket.stat);
    }
    // With matched pools and zero think, tomcat concurrency tracks offered.
    const double offered = run.scenario.workload.users;
    EXPECT_NEAR(tomcat.mean(), offered, 0.25 * offered + 0.5);
    EXPECT_GT(result.mean_throughput, 0.0);
  }
  EXPECT_GT(runs[1].result.mean_throughput, runs[0].result.mean_throughput);
}

TEST(ExperimentRunnerTest, ActionCountFiltersByTier) {
  const auto result = small_run(ControllerSpec::ec2(), 500);
  const int total = result.action_count("scale_out");
  const int tomcat = result.action_count("scale_out", "tomcat");
  const int mysql = result.action_count("scale_out", "mysql");
  EXPECT_EQ(total, tomcat + mysql);
  EXPECT_GE(tomcat, 1);
}

}  // namespace
}  // namespace dcm::core
