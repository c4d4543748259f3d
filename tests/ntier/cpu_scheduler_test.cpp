// The CPU scheduler is the simulator's physics; these tests pin down the
// processor-sharing semantics and the Eq. 5–7 throughput behaviour.
#include "ntier/cpu_scheduler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

#include "core/topologies.h"
#include "sim/engine.h"

namespace dcm::ntier {
namespace {

CpuModelConfig ideal_cpu(double s0) {
  CpuModelConfig cpu;
  cpu.params = {s0, 0.0, 0.0};
  return cpu;
}

// α = S0 makes S*(N) = N·S0, i.e. cap(N) = 1 for every N: a classic
// single-processor PS server with no multithreading speedup.
CpuModelConfig serial_cpu(double s0) {
  CpuModelConfig cpu;
  cpu.params = {s0, s0, 0.0};
  return cpu;
}

TEST(CpuModelConfigTest, InflationMatchesEq5) {
  CpuModelConfig cpu;
  cpu.params = {0.010, 0.002, 0.0001};
  // S*(N) = S0 + α(N−1) + βN(N−1)
  EXPECT_DOUBLE_EQ(cpu.inflated_service_time(1.0), 0.010);
  EXPECT_DOUBLE_EQ(cpu.inflated_service_time(5.0), 0.010 + 0.002 * 4 + 0.0001 * 20);
}

TEST(CpuModelConfigTest, ThrashTermKicksInAboveThreshold) {
  CpuModelConfig cpu;
  cpu.params = {0.010, 0.0, 0.0};
  cpu.thrash_threshold = 10.0;
  cpu.thrash_factor = 0.001;
  EXPECT_DOUBLE_EQ(cpu.inflated_service_time(10.0), 0.010);
  EXPECT_DOUBLE_EQ(cpu.inflated_service_time(15.0), 0.010 + 0.001 * 25.0);
}

TEST(CpuModelConfigTest, ThroughputPeaksAtTheoreticalNb) {
  const CpuModelConfig cpu = core::mysql_cpu_model();
  const double nb = std::sqrt((cpu.params.s0 - cpu.params.alpha) / cpu.params.beta);
  EXPECT_NEAR(nb, 36.0, 1.0);  // Table I: N_b = 36 for MySQL
  // The curve rises to the knee and falls beyond it.
  EXPECT_GT(cpu.throughput_at(nb), cpu.throughput_at(5.0));
  EXPECT_GT(cpu.throughput_at(nb), cpu.throughput_at(160.0));
  EXPECT_GT(cpu.throughput_at(80.0), cpu.throughput_at(160.0));
}

TEST(CpuSchedulerTest, SingleJobRunsAtRealTimeSpeed) {
  sim::Engine engine;
  CpuScheduler cpu(engine, ideal_cpu(0.010));
  cpu.set_thread_count(1);
  bool done = false;
  cpu.submit(0.010, [&] { done = true; });
  engine.run_until(sim::from_seconds(0.0099));
  EXPECT_FALSE(done);
  engine.run_until(sim::from_seconds(0.0101));
  EXPECT_TRUE(done);
}

TEST(CpuSchedulerTest, ZeroWorkCompletesImmediately) {
  sim::Engine engine;
  CpuScheduler cpu(engine, ideal_cpu(0.010));
  cpu.set_thread_count(1);
  bool done = false;
  cpu.submit(0.0, [&] { done = true; });
  engine.run_until(1);  // one tick is enough — the event fires at now
  EXPECT_TRUE(done);
}

TEST(CpuSchedulerTest, TwoIdealJobsRunInParallel) {
  // With α=β=0 the paper's model scales perfectly: cap(2)=2, so two 10 ms
  // jobs finish together at ~10 ms (pipelined-CPU semantics of Eq. 6).
  sim::Engine engine;
  CpuScheduler cpu(engine, ideal_cpu(0.010));
  cpu.set_thread_count(2);
  int done = 0;
  cpu.submit(0.010, [&] { ++done; });
  cpu.submit(0.010, [&] { ++done; });
  engine.run_until(sim::from_seconds(0.009));
  EXPECT_EQ(done, 0);
  engine.run_until(sim::from_seconds(0.011));
  EXPECT_EQ(done, 2);
}

TEST(CpuSchedulerTest, TwoSerialJobsShareCapacityFairly) {
  // With α=S0, cap(N)=1; two jobs of 10 ms each finish together at 20 ms.
  sim::Engine engine;
  CpuScheduler cpu(engine, serial_cpu(0.010));
  cpu.set_thread_count(2);
  int done = 0;
  cpu.submit(0.010, [&] { ++done; });
  cpu.submit(0.010, [&] { ++done; });
  engine.run_until(sim::from_seconds(0.019));
  EXPECT_EQ(done, 0);
  engine.run_until(sim::from_seconds(0.021));
  EXPECT_EQ(done, 2);
}

TEST(CpuSchedulerTest, ShorterJobFinishesFirstUnderPs) {
  sim::Engine engine;
  CpuScheduler cpu(engine, serial_cpu(0.010));
  cpu.set_thread_count(2);
  std::vector<int> order;
  cpu.submit(0.020, [&] { order.push_back(1); });
  cpu.submit(0.005, [&] { order.push_back(2); });
  engine.run_until(sim::from_seconds(1.0));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(CpuSchedulerTest, LeafThroughputMatchesEq7AtModerateConcurrency) {
  // Keep N jobs alive continuously for T seconds; completed/T ≈ N/S*(N).
  const CpuModelConfig cpu_config = core::mysql_cpu_model();
  for (const int n : {1, 10, 36, 80}) {
    sim::Engine engine;
    CpuScheduler cpu(engine, cpu_config);
    cpu.set_thread_count(n);
    uint64_t completed = 0;
    // Self-replenishing jobs maintain constant concurrency n.
    std::function<void()> spawn = [&] {
      cpu.submit(cpu_config.params.s0, [&] {
        ++completed;
        spawn();
      });
    };
    for (int i = 0; i < n; ++i) spawn();
    const double horizon = 50.0;
    engine.run_until(sim::from_seconds(horizon));
    const double measured = static_cast<double>(completed) / horizon;
    const double predicted = cpu_config.throughput_at(n);
    EXPECT_NEAR(measured, predicted, predicted * 0.02)
        << "concurrency " << n;
  }
}

TEST(CpuSchedulerTest, OverloadCollapseBeyondThrashThreshold) {
  const CpuModelConfig cpu_config = core::mysql_cpu_model();
  // Throughput at 160 concurrent (two default pools) collapses well below
  // the knee value — the Fig. 2(a)/Fig. 5 failure mode.
  const double at_knee = cpu_config.throughput_at(36.0);
  const double at_160 = cpu_config.throughput_at(160.0);
  EXPECT_LT(at_160, 0.6 * at_knee);
  // And the paper's "reasonable between 20 and 80" band holds.
  EXPECT_GT(cpu_config.throughput_at(20.0), 0.75 * at_knee);
  EXPECT_GT(cpu_config.throughput_at(80.0), 0.75 * at_knee);
}

TEST(CpuSchedulerTest, UtilIntegralTracksBusyTime) {
  sim::Engine engine;
  CpuScheduler cpu(engine, ideal_cpu(0.010));
  cpu.set_thread_count(1);
  cpu.submit(0.010, [] {});
  engine.run_until(sim::from_seconds(1.0));
  // Busy 10 ms out of 1 s.
  EXPECT_NEAR(cpu.util_integral(), 0.010, 1e-6);
}

TEST(CpuSchedulerTest, UtilIsFullWhenCpuBound) {
  const CpuModelConfig cpu_config = core::mysql_cpu_model();
  sim::Engine engine;
  CpuScheduler cpu(engine, cpu_config);
  const int n = 40;
  cpu.set_thread_count(n);
  std::function<void()> spawn = [&] {
    cpu.submit(cpu_config.params.s0, [&] { spawn(); });
  };
  for (int i = 0; i < n; ++i) spawn();
  engine.run_until(sim::from_seconds(10.0));
  EXPECT_NEAR(cpu.util_integral() / 10.0, 1.0, 0.01);
}

TEST(CpuSchedulerTest, WorkDoneAccountsCompletedWork) {
  sim::Engine engine;
  CpuScheduler cpu(engine, ideal_cpu(0.010));
  cpu.set_thread_count(1);
  for (int i = 0; i < 5; ++i) cpu.submit(0.010, [] {});
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_NEAR(cpu.work_done(), 0.050, 1e-6);
  EXPECT_EQ(cpu.jobs_completed(), 5u);
}

TEST(CpuSchedulerTest, ThreadCountChangeReshapesServiceRate) {
  // A lone job with a large thread count suffers inflation: effective
  // per-job rate is clamped at 1 only when capacity allows; with heavy
  // crosstalk, cap(100) < 1 so the job runs slower than real time.
  CpuModelConfig heavy;
  heavy.params = {0.010, 0.005, 1e-4};
  sim::Engine engine;
  CpuScheduler cpu(engine, heavy);
  cpu.set_thread_count(100);  // e.g. 99 blocked threads + this one
  bool done = false;
  cpu.submit(0.010, [&] { done = true; });
  engine.run_until(sim::from_seconds(0.012));
  EXPECT_FALSE(done) << "inflated service should be slower than 1x";
  engine.run_to_completion();
  EXPECT_TRUE(done);
}

TEST(CpuSchedulerTest, ChurnLeavesNoTombstones) {
  // Every rate change moves the one completion event in place, so the
  // scheduler never has more than one event pending — at any step of a
  // submit / thread-count churn — and none after abort_all().
  sim::Engine engine;
  CpuModelConfig cpu;
  cpu.params = {0.004, 0.0004, 0.00002};
  CpuScheduler scheduler(engine, cpu);
  dcm::Rng rng(424242);
  int completed = 0;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4 && scheduler.active_jobs() < 30) {
      scheduler.submit(0.001 + 0.01 * rng.next_double(), [&completed] { ++completed; });
    } else if (roll < 0.8) {
      scheduler.set_thread_count(static_cast<int>(rng.uniform_int(0, 40)));
    } else {
      engine.run_for(static_cast<sim::SimTime>(rng.uniform_int(0, 2'000'000)));
    }
    ASSERT_LE(engine.pending_events(), 1u) << "step " << step;
    ASSERT_EQ(engine.pending_events(), scheduler.active_jobs() > 0 ? 1u : 0u) << "step " << step;
  }
  EXPECT_GT(completed, 1000);
  ASSERT_GT(scheduler.active_jobs(), 0);  // abort_all() below has work to drop
  scheduler.abort_all();
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(CpuSchedulerTest, MillionEventRunReanchorsFpDrift) {
  // Regression for the advance() FP-drift fix: work_done_ and virtual_clock_
  // grow by repeated rate·dt increments, which pick up both FP rounding at
  // large clock magnitudes and the deterministic nanosecond-ceil slack per
  // completion (~0.5 ns/job of phantom work while the completion event
  // waits for its whole-ns fire tick). A million sequential 1/3-second jobs
  // (1/3 is not representable in binary) cross kReanchorVirtualClock
  // thousands of times; each idle re-anchor snaps work_done() back to the
  // exact completed-work sum. Without it the ceil bias alone accumulates
  // ~5e-4 s of drift — an order of magnitude past this tolerance.
  sim::Engine engine;
  CpuScheduler cpu(engine, ideal_cpu(0.010));
  cpu.set_thread_count(1);
  constexpr int kJobs = 1'000'000;
  constexpr double kWork = 1.0 / 3.0;
  int completed = 0;
  std::function<void()> next = [&] {
    ++completed;
    if (completed < kJobs) cpu.submit(kWork, [&] { next(); });
  };
  cpu.submit(kWork, [&] { next(); });
  engine.run_to_completion();
  EXPECT_EQ(completed, kJobs);
  EXPECT_EQ(cpu.jobs_completed(), static_cast<uint64_t>(kJobs));
  EXPECT_NEAR(cpu.work_done(), kJobs * kWork, 1e-4);
}

TEST(CpuSchedulerTest, ParameterizedThroughputCurveIsUnimodal) {
  const CpuModelConfig cpu_config = core::tomcat_cpu_model();
  // Discrete scan: strictly rising to the knee region then falling.
  const int knee = 20;  // Table I: N_b ≈ 20 for Tomcat
  double best = 0.0;
  int best_n = 0;
  for (int n = 1; n <= 200; ++n) {
    const double x = cpu_config.throughput_at(n);
    if (x > best) {
      best = x;
      best_n = n;
    }
  }
  EXPECT_NEAR(best_n, knee, 2);
}

}  // namespace
}  // namespace dcm::ntier
