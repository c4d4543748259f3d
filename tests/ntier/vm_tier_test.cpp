#include <gtest/gtest.h>

#include "ntier/tier.h"
#include "ntier/vm.h"
#include "sim/engine.h"

namespace dcm::ntier {
namespace {

TierConfig tier_config(int initial = 1, int max_vms = 4) {
  TierConfig config;
  config.name = "app";
  config.server.name = "app";
  config.server.cpu.params = {0.010, 0.0, 0.0};
  config.server.max_threads = 8;
  config.initial_vms = initial;
  config.min_vms = 1;
  config.max_vms = max_vms;
  config.vm_boot_time = sim::from_seconds(15.0);
  return config;
}

RequestPtr request() {
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0};
  req->downstream_calls = {0};
  return req;
}

TEST(VmTest, BootDelayGatesActivation) {
  sim::Engine engine;
  bool active = false;
  Vm vm(engine, "vm0", 0, std::make_unique<Server>(engine, tier_config().server, 0, Rng(1)),
        sim::from_seconds(15.0), [&](Vm&) { active = true; });
  EXPECT_EQ(vm.state(), VmState::kBooting);
  engine.run_until(sim::from_seconds(14.9));
  EXPECT_FALSE(active);
  engine.run_until(sim::from_seconds(15.1));
  EXPECT_TRUE(active);
  EXPECT_EQ(vm.state(), VmState::kActive);
}

TEST(VmTest, ZeroBootActivatesSynchronously) {
  sim::Engine engine;
  bool active = false;
  Vm vm(engine, "vm0", 0, std::make_unique<Server>(engine, tier_config().server, 0, Rng(1)), 0,
        [&](Vm&) { active = true; });
  EXPECT_TRUE(active);
  EXPECT_EQ(vm.state(), VmState::kActive);
}

TEST(VmTest, DrainWaitsForInFlight) {
  sim::Engine engine;
  Vm vm(engine, "vm0", 0, std::make_unique<Server>(engine, tier_config().server, 0, Rng(1)), 0,
        nullptr);
  vm.server().process(request(), [](bool) {});
  bool stopped = false;
  vm.begin_drain([&](Vm&, bool) { stopped = true; });
  EXPECT_EQ(vm.state(), VmState::kDraining);
  EXPECT_FALSE(stopped);
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_TRUE(stopped);
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST(VmTest, DrainIdleStopsImmediately) {
  sim::Engine engine;
  Vm vm(engine, "vm0", 0, std::make_unique<Server>(engine, tier_config().server, 0, Rng(1)), 0,
        nullptr);
  bool stopped = false;
  vm.begin_drain([&](Vm&, bool) { stopped = true; });
  EXPECT_TRUE(stopped);
}

TEST(TierTest, InitialVmsAreActiveImmediately) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(2), 0, rng);
  EXPECT_EQ(tier.active_vm_count(), 2);
  EXPECT_EQ(tier.provisioned_vm_count(), 2);
}

TEST(TierTest, DispatchBalancesAcrossServers) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(2), 0, rng);
  for (int i = 0; i < 10; ++i) tier.dispatch(request(), [](bool) {});
  EXPECT_EQ(tier.vms()[0]->server().in_flight(), 5);
  EXPECT_EQ(tier.vms()[1]->server().in_flight(), 5);
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_EQ(tier.completed(), 10u);
}

TEST(TierTest, ScaleOutJoinsAfterBoot) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(1), 0, rng);
  EXPECT_TRUE(tier.scale_out());
  EXPECT_EQ(tier.booting_vm_count(), 1);
  EXPECT_EQ(tier.active_vm_count(), 1);
  engine.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(tier.active_vm_count(), 2);
  EXPECT_EQ(tier.booting_vm_count(), 0);
}

TEST(TierTest, ScaleOutRespectsMax) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(1, /*max=*/2), 0, rng);
  EXPECT_TRUE(tier.scale_out());
  EXPECT_FALSE(tier.scale_out());  // 1 active + 1 booting = max 2
}

TEST(TierTest, ScaleInRespectsMin) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(1), 0, rng);
  EXPECT_FALSE(tier.scale_in());
}

TEST(TierTest, ScaleInDrainsNewestVm) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(1), 0, rng);
  tier.scale_out();
  engine.run_until(sim::from_seconds(20.0));
  ASSERT_EQ(tier.active_vm_count(), 2);
  EXPECT_TRUE(tier.scale_in());
  engine.run_until(sim::from_seconds(21.0));
  EXPECT_EQ(tier.active_vm_count(), 1);
  // The original VM survives; the newest one stopped.
  EXPECT_EQ(tier.vms()[0]->state(), VmState::kActive);
  EXPECT_EQ(tier.vms()[1]->state(), VmState::kStopped);
}

TEST(TierTest, NewVmInheritsCurrentSoftAllocation) {
  sim::Engine engine;
  Rng rng(1);
  Tier db(engine, tier_config(1), 1, rng);
  Tier tier(engine, tier_config(1), 0, rng);
  tier.set_out_edges({{&db, /*edge_id=*/0, /*pool_capacity=*/80, /*managed=*/true}});
  EXPECT_EQ(tier.current_downstream_connections(), 80);
  tier.set_thread_pool_size(20);
  tier.set_downstream_connections(18);
  tier.scale_out();
  engine.run_until(sim::from_seconds(16.0));
  for (const auto& vm : tier.vms()) {
    if (vm->state() != VmState::kActive) continue;
    EXPECT_EQ(vm->server().thread_pool_size(), 20);
    EXPECT_EQ(vm->server().downstream_connection_limit(), 18);
  }
}

TEST(TierTest, ActivationCallbacksFireForLateVms) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(1), 0, rng);
  int activations = 0;
  tier.add_vm_activated_callback([&](Vm&) { ++activations; });
  tier.add_vm_activated_callback([&](Vm&) { ++activations; });  // second observer
  tier.scale_out();
  engine.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(activations, 2);
}

TEST(TierTest, DrainingVmFinishesItsWork) {
  sim::Engine engine;
  Rng rng(1);
  Tier tier(engine, tier_config(1), 0, rng);
  tier.scale_out();
  engine.run_until(sim::from_seconds(20.0));
  // Load both servers, then scale in; all requests must still complete.
  int completed = 0;
  for (int i = 0; i < 16; ++i) tier.dispatch(request(), [&](bool ok) { completed += ok ? 1 : 0; });
  tier.scale_in();
  engine.run_until(sim::from_seconds(30.0));
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(tier.active_vm_count(), 1);
}

TEST(TierTest, DispatchWithNoActiveServersFails) {
  // Construct a tier whose only VM is draining.
  sim::Engine engine;
  Rng rng(1);
  TierConfig config = tier_config(2);
  config.min_vms = 1;
  Tier tier(engine, config, 0, rng);
  // Drain both manually through scale_in (min 1 prevents the second).
  EXPECT_TRUE(tier.scale_in());
  EXPECT_FALSE(tier.scale_in());
  // Still one active server → dispatch succeeds.
  bool ok = false;
  tier.dispatch(request(), [&](bool r) { ok = r; });
  engine.run_until(sim::from_seconds(1.0));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace dcm::ntier
