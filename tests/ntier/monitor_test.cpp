// Monitoring pipeline: agents sample per second and publish to the bus; the
// fleet covers later-launched VMs.
#include "ntier/monitor_agent.h"

#include <gtest/gtest.h>

#include "bus/consumer.h"
#include "core/topologies.h"
#include "workload/closed_loop.h"

namespace dcm::ntier {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1),
        fleet_(engine_, app_, broker_),
        catalog_(workload::ServletCatalog::browse_only_mix()) {}

  sim::Engine engine_;
  bus::Broker broker_;
  ntier::NTierApp app_;
  MonitorFleet fleet_;
  workload::ServletCatalog catalog_;
};

TEST_F(MonitorTest, OneAgentPerInitialVm) {
  EXPECT_EQ(fleet_.agent_count(), 3u);  // one per tier's single VM
}

TEST_F(MonitorTest, SamplesArriveEverySecond) {
  engine_.run_until(sim::from_seconds(5.5));
  bus::Consumer consumer(broker_, "test", kMetricsTopic);
  const auto records = consumer.poll(1000);
  // 3 agents × 5 ticks.
  EXPECT_EQ(records.size(), 15u);
}

TEST_F(MonitorTest, SamplesParseAndCarryTierIdentity) {
  engine_.run_until(sim::from_seconds(2.5));
  bus::Consumer consumer(broker_, "test", kMetricsTopic);
  int apache = 0, tomcat = 0, mysql = 0;
  for (const auto& record : consumer.poll(1000)) {
    const auto sample = decode(record.value());
    ASSERT_TRUE(sample.has_value());
    const std::string& tier = app_.tier(static_cast<size_t>(sample->depth)).name();
    if (tier == "apache") ++apache;
    if (tier == "tomcat") ++tomcat;
    if (tier == "mysql") ++mysql;
    EXPECT_EQ(sample->vm, 0);
    EXPECT_EQ(sample->vm_state, VmState::kActive);
  }
  EXPECT_EQ(apache, 2);
  EXPECT_EQ(tomcat, 2);
  EXPECT_EQ(mysql, 2);
}

TEST_F(MonitorTest, ThroughputAndConcurrencyReflectLoad) {
  auto generator = workload::make_jmeter(engine_, app_, catalog_, 20);
  generator->start();
  engine_.run_until(sim::from_seconds(10.5));
  bus::Consumer consumer(broker_, "test", kMetricsTopic);
  double tomcat_throughput = 0.0;
  double tomcat_concurrency = 0.0;
  int tomcat_samples = 0;
  for (const auto& record : consumer.poll(10000)) {
    const auto sample = decode(record.value());
    ASSERT_TRUE(sample.has_value());
    if (sample->depth != 1 || sim::to_seconds(sample->time) < 3.0) continue;  // tomcat
    tomcat_throughput += sample->throughput;
    tomcat_concurrency += sample->concurrency;
    ++tomcat_samples;
  }
  ASSERT_GT(tomcat_samples, 0);
  EXPECT_GT(tomcat_throughput / tomcat_samples, 10.0);
  // 20 closed-loop users: most hold a Tomcat worker most of the time.
  EXPECT_GT(tomcat_concurrency / tomcat_samples, 10.0);
  EXPECT_LE(tomcat_concurrency / tomcat_samples, 20.5);
}

TEST_F(MonitorTest, FleetAttachesToScaledOutVms) {
  app_.tier(1).scale_out();
  engine_.run_until(sim::from_seconds(20.0));
  EXPECT_EQ(fleet_.agent_count(), 4u);
  bus::Consumer consumer(broker_, "test", kMetricsTopic);
  bool saw_new_vm = false;
  for (const auto& record : consumer.poll(10000)) {
    const auto sample = decode(record.value());
    ASSERT_TRUE(sample.has_value());
    if (sample->depth == 1 && sample->vm == 1) saw_new_vm = true;  // tomcat-vm1
  }
  EXPECT_TRUE(saw_new_vm);
}

TEST_F(MonitorTest, RetentionBoundsBusGrowth) {
  engine_.run_until(sim::from_seconds(600.0));
  // 3 agents × 600 s = 1800 records produced, but retention is 120 s.
  EXPECT_LT(broker_.total_records(), 3 * 140u);
}

TEST_F(MonitorTest, IdleServersReportZeroUtil) {
  engine_.run_until(sim::from_seconds(3.5));
  bus::Consumer consumer(broker_, "test", kMetricsTopic);
  for (const auto& record : consumer.poll(1000)) {
    const auto sample = decode(record.value());
    ASSERT_TRUE(sample.has_value());
    EXPECT_DOUBLE_EQ(sample->cpu_util, 0.0);
    EXPECT_DOUBLE_EQ(sample->throughput, 0.0);
  }
}

}  // namespace
}  // namespace dcm::ntier
