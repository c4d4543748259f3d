#include "control/actuators.h"

#include <gtest/gtest.h>

#include "core/topologies.h"

namespace dcm::control {
namespace {

class ActuatorsTest : public ::testing::Test {
 protected:
  ActuatorsTest()
      : app_(engine_,
             core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1),
        vm_agent_(engine_, app_, log_),
        app_agent_(engine_, app_, log_) {}

  sim::Engine engine_;
  ntier::NTierApp app_;
  ControlLog log_;
  VmAgent vm_agent_;
  AppAgent app_agent_;
};

TEST_F(ActuatorsTest, ScaleOutLaunchesAndLogs) {
  EXPECT_TRUE(vm_agent_.scale_out(1));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
  ASSERT_EQ(log_.actions().size(), 1u);
  EXPECT_EQ(log_.actions()[0].action, "scale_out");
  EXPECT_EQ(log_.actions()[0].tier, "tomcat");
}

TEST_F(ActuatorsTest, ScaleOutFailsAtMax) {
  while (vm_agent_.scale_out(1)) {
  }
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), app_.tier(1).config().max_vms);
  const size_t actions = log_.actions().size();
  EXPECT_FALSE(vm_agent_.scale_out(1));
  EXPECT_EQ(log_.actions().size(), actions);  // failed action not logged
}

TEST_F(ActuatorsTest, ScaleInFailsAtMin) {
  EXPECT_FALSE(vm_agent_.scale_in(1));
  EXPECT_TRUE(log_.actions().empty());
}

TEST_F(ActuatorsTest, ScaleInAfterScaleOut) {
  vm_agent_.scale_out(2);
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_TRUE(vm_agent_.scale_in(2));
  engine_.run_until(sim::from_seconds(17.0));
  EXPECT_EQ(app_.tier(2).active_vm_count(), 1);
}

TEST_F(ActuatorsTest, SetThreadPoolAppliesToAllServers) {
  vm_agent_.scale_out(1);
  engine_.run_until(sim::from_seconds(16.0));
  app_agent_.set_thread_pool_size(1, 20);
  for (const auto& vm : app_.tier(1).vms()) {
    if (vm->state() == ntier::VmState::kActive) {
      EXPECT_EQ(vm->server().thread_pool_size(), 20);
    }
  }
}

TEST_F(ActuatorsTest, SetThreadPoolIsIdempotentInLog) {
  app_agent_.set_thread_pool_size(1, 20);
  app_agent_.set_thread_pool_size(1, 20);  // unchanged → not logged
  EXPECT_EQ(log_.filtered("set_stp").size(), 1u);
}

TEST_F(ActuatorsTest, SetConnectionsAdjustsPools) {
  app_agent_.set_downstream_connections(1, 18);
  EXPECT_EQ(app_.tier(1).current_downstream_connections(), 18);
  EXPECT_EQ(log_.filtered("set_conns").size(), 1u);
  EXPECT_EQ(log_.filtered("set_conns")[0].detail, "conns=18");
}

TEST_F(ActuatorsTest, FilteredSelectsByKind) {
  vm_agent_.scale_out(1);
  app_agent_.set_thread_pool_size(1, 25);
  app_agent_.set_downstream_connections(1, 30);
  EXPECT_EQ(log_.filtered("scale_out").size(), 1u);
  EXPECT_EQ(log_.filtered("set_stp").size(), 1u);
  EXPECT_EQ(log_.filtered("scale_in").size(), 0u);
  EXPECT_EQ(log_.actions().size(), 3u);
}

}  // namespace
}  // namespace dcm::control
