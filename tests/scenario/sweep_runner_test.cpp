// SweepRunner determinism contract: merged results are bit-identical
// regardless of worker-thread count (and therefore completion order), and a
// failing run surfaces as an exception after the pool drains instead of a
// partial result set.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/result_writer.h"
#include "scenario/sweep.h"

namespace dcm::scenario {
namespace {

SweepPlan small_plan() {
  SweepPlan plan;
  plan.base = Scenario::parse(
      "[workload]\nkind=rubbos\nusers=40\n"
      "[controller]\nkind=ec2\n"
      "[run]\nduration=25\nwarmup=5\nseed=13\n");
  plan.axes.push_back(parse_axis("workload.users=40,70,100"));
  plan.axes.push_back(parse_axis("controller.kind=none,ec2"));
  return plan;
}

TEST(SweepRunnerTest, ResultsArriveInRunIndexOrder) {
  const auto runs = SweepRunner(small_plan(), /*jobs=*/2).run();
  ASSERT_EQ(runs.size(), 6u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    EXPECT_GT(runs[i].result.completed, 0u);
  }
}

TEST(SweepRunnerTest, DigestIsInvariantAcrossThreadCounts) {
  const uint64_t serial = sweep_digest(SweepRunner(small_plan(), /*jobs=*/1).run());
  const uint64_t parallel4 = sweep_digest(SweepRunner(small_plan(), /*jobs=*/4).run());
  const uint64_t parallel7 = sweep_digest(SweepRunner(small_plan(), /*jobs=*/7).run());
  EXPECT_EQ(serial, parallel4)
      << "sweep digest diverged between --jobs 1 and --jobs 4 — a run is "
         "reading shared mutable state, or the merge depends on completion order";
  EXPECT_EQ(serial, parallel7);
}

TEST(SweepRunnerTest, PairedSeedPolicyGivesEveryRunTheSameRootSeed) {
  SweepPlan plan = small_plan();
  plan.seed_policy = SeedPolicy::kFixed;
  const auto runs = SweepRunner(std::move(plan), /*jobs=*/2).run();
  for (const auto& run : runs) {
    EXPECT_EQ(run.scenario.seed, 13u);
  }
  // Same workload+seed under none vs ec2: the closed-loop client stream is
  // identical, so completed counts only diverge once the controller acts.
  ASSERT_EQ(runs.size(), 6u);
}

TEST(SweepRunnerTest, FailingRunRethrowsAfterDrain) {
  SweepPlan plan;
  plan.base = Scenario::parse(
      "[workload]\nkind=trace\ntrace=large-variation\npeak_users=100\n"
      "[run]\nduration=10\nwarmup=2\n");
  // The second point names a nonexistent trace CSV. Plan expansion only
  // stores the string; resolution happens inside the worker when the
  // experiment is built, so the failure must surface from run().
  plan.axes.push_back(parse_axis("workload.trace=large-variation,/no/such/file.csv"));
  SweepRunner runner(std::move(plan), /*jobs=*/2);
  ASSERT_EQ(runner.planned().size(), 2u);  // expansion itself is fine
  EXPECT_THROW(runner.run(), std::runtime_error);
}

// Each run reduced on its worker to (index, result digest), as the
// tournament reduces runs to cells.
std::vector<uint64_t> reduced_digests(int jobs) {
  SweepRunner runner(small_plan(), jobs);
  std::vector<uint64_t> digests(runner.planned().size());
  runner.run_each([&digests](SweepRun&& run) { digests[run.index] = result_digest(run.result); });
  return digests;
}

TEST(SweepRunnerTest, RunEachReducesIdenticallyAcrossThreadCounts) {
  const std::vector<uint64_t> serial = reduced_digests(1);
  EXPECT_EQ(serial, reduced_digests(4));
  // The collecting run() is the same path: same runs, same digests.
  const auto runs = SweepRunner(small_plan(), /*jobs=*/1).run();
  ASSERT_EQ(runs.size(), serial.size());
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(result_digest(runs[i].result), serial[i]);
}

TEST(SweepRunnerTest, RunEachRethrowsTheLowestIndexFailureAfterDrain) {
  // Runs 1 and 3 name missing trace CSVs; run 2's reduce throws too. Every
  // run still executes, and the failure that surfaces is run 1's.
  SweepPlan plan;
  plan.base = Scenario::parse(
      "[workload]\nkind=trace\ntrace=large-variation\npeak_users=100\n"
      "[run]\nduration=10\nwarmup=2\n");
  plan.axes.push_back(parse_axis(
      "workload.trace=large-variation,/no/such/first.csv,large-variation,/no/such/second.csv"));
  for (const int jobs : {1, 4}) {
    SweepRunner runner(plan, jobs);
    std::atomic<int> reduced{0};
    try {
      runner.run_each([&reduced](SweepRun&& run) {
        ++reduced;
        if (run.index == 2) throw std::logic_error("reduce failed");
      });
      ADD_FAILURE() << "run_each returned normally at --jobs " << jobs;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("first.csv"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(reduced.load(), 2) << "--jobs " << jobs;  // runs 0 and 2
  }
}

TEST(SweepRunnerTest, ExplicitRunListMustBeInIndexOrder) {
  std::vector<PlannedRun> planned = expand_grid(small_plan());
  std::swap(planned[0], planned[1]);
  EXPECT_THROW(SweepRunner(std::move(planned), 1), std::runtime_error);
}

TEST(SweepRunnerTest, JobsZeroUsesHardwareConcurrency) {
  SweepRunner runner(small_plan(), /*jobs=*/0);
  EXPECT_GE(runner.jobs(), 1);
}

}  // namespace
}  // namespace dcm::scenario
