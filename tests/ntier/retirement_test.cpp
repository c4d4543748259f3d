// A VM's final state retires its server: the server stays offline, and once
// no call orphaned by a crash is pending it releases its bulk storage. The
// release must change nothing a run reports: every counter and integral
// equals a run whose dead server keeps its storage, and late responses,
// deadlines and backoffs that reach a released server are no-ops.
#include <gtest/gtest.h>

#include <memory>

#include "ntier/tier.h"
#include "sim/engine.h"

namespace dcm::ntier {
namespace {

ServerConfig db_leaf() {
  ServerConfig config;
  config.name = "db";
  config.cpu.params = {0.5, 0.0, 0.0};  // slower than the app's 0.3 s deadline
  config.max_threads = 8;
  config.pre_fraction = 1.0;
  return config;
}

ServerConfig app_server() {
  ServerConfig config;
  config.name = "app";
  config.cpu.params = {0.02, 0.0, 0.0};
  config.max_threads = 4;
  return config;
}

// An app server calling a two-VM db tier through a two-connection pool.
// db-vm0 is silently dead, so a call routed there fails fast and backs off
// for 0.5 s; db-vm1 answers after the 0.3 s deadline, so its calls time out
// and their responses arrive late. Ten visits at t = 0 leave, at t = 0.2 s,
// four in service and six queued, two calls awaiting a connection, one call
// in backoff and one with an armed deadline.
struct Rig {
  sim::Engine engine;
  Rng rng{21};
  Tier db{engine, [] {
            TierConfig config;
            config.name = "db";
            config.server = db_leaf();
            config.initial_vms = 2;
            config.max_vms = 2;
            return config;
          }(),
          1, rng};
  int ok = 0;
  int failed = 0;

  Rig() { db.inject_crash("db-vm0"); }

  std::unique_ptr<Server> make_app() {
    auto server = std::make_unique<Server>(engine, app_server(), 0, Rng(22));
    server->set_out_edges({{&db, /*edge_id=*/0, /*pool_capacity=*/2, /*managed=*/true}});
    SubRequestRetryPolicy retry;
    retry.timeout_seconds = 0.3;
    retry.max_retries = 3;
    retry.backoff_base_seconds = 0.5;
    server->set_subrequest_retry(retry);
    return server;
  }

  void load(Server& server) {
    for (int i = 0; i < 10; ++i) {
      auto req = std::make_shared<RequestContext>();
      req->demand_scale = {1.0, 1.0};
      req->downstream_calls = {1};
      server.process(req, [this](bool r) { (r ? ok : failed)++; });
    }
  }
};

// Everything a run reads from a server after it ends, and what its clients saw.
struct Readout {
  uint64_t completed, rejected, timeouts, retries;
  double response_time_sum, concurrency_integral, cpu_util_integral;
  uint64_t worker_acquires, worker_waits, conn_acquires, conn_waits;
  double worker_wait_mean, conn_wait_mean;
  uint64_t db_completed, db_rejected;
  int ok, failed;

  bool operator==(const Readout&) const = default;
};

Readout read(const Server& server, const Rig& rig) {
  return {server.completed(),
          server.rejected(),
          server.subrequest_timeouts(),
          server.subrequest_retries(),
          server.response_time_sum(),
          server.concurrency_integral(),
          server.cpu_util_integral(),
          server.worker_pool().total_acquired(),
          server.worker_pool().wait_stats().count(),
          server.connection_pool()->total_acquired(),
          server.connection_pool()->wait_stats().count(),
          server.worker_pool().wait_stats().mean(),
          server.connection_pool()->wait_stats().mean(),
          rig.db.completed(),
          rig.db.rejected(),
          rig.ok,
          rig.failed};
}

constexpr double kCrashAt = 0.2;
constexpr double kEnd = 60.0;

// The pre-retirement crash: offline and crashed, storage kept.
Readout crash_without_retiring() {
  Rig rig;
  auto server = rig.make_app();
  rig.load(*server);
  rig.engine.run_until(sim::from_seconds(kCrashAt));
  server->set_online(false);
  server->crash();
  rig.engine.run_until(sim::from_seconds(kEnd));
  EXPECT_FALSE(server->retired());
  EXPECT_GT(server->bulk_bytes_reserved(), 0u);
  return read(*server, rig);
}

TEST(ServerRetirementTest, CrashedVmReleasesStorageOnceItsOrphanedCallsSettle) {
  Rig rig;
  Vm vm(rig.engine, "app-vm0", 0, rig.make_app(), 0, [](Vm&) {});
  Server& server = vm.server();
  rig.load(server);
  rig.engine.run_until(sim::from_seconds(kCrashAt));
  ASSERT_EQ(server.in_flight(), 4);
  ASSERT_EQ(server.queue_length(), 6);
  ASSERT_EQ(server.downstream_connections_in_use(), 2);
  ASSERT_EQ(server.subrequest_retries(), 1u);  // one call sits in its backoff
  EXPECT_GT(server.bulk_bytes_reserved(), 0u);

  vm.fail();
  EXPECT_TRUE(server.retired());
  EXPECT_FALSE(server.online());
  EXPECT_EQ(rig.failed, 10);  // every queued and in-service visit failed
  const Readout at_crash = read(server, rig);

  // The deadline (t ≈ 0.34 s) and the backoff (t ≈ 0.54 s) of the two
  // orphaned calls are still pending, and each reads the visit slab.
  rig.engine.run_until(sim::from_seconds(0.4));
  EXPECT_GT(server.bulk_bytes_reserved(), 0u);
  rig.engine.run_until(sim::from_seconds(kEnd));
  EXPECT_EQ(server.bulk_bytes_reserved(), 0u);

  // The orphans' deadline, backoff and late response changed nothing.
  const Readout released = read(server, rig);
  EXPECT_EQ(released.timeouts, at_crash.timeouts);
  EXPECT_EQ(released.retries, at_crash.retries);
  EXPECT_EQ(released.completed, at_crash.completed);
  EXPECT_EQ(released.rejected, at_crash.rejected);
  EXPECT_EQ(released.ok + released.failed, 10);
  EXPECT_GT(released.db_completed, at_crash.db_completed);  // a response came late
  EXPECT_TRUE(released == crash_without_retiring());
}

// The same load with no drain and no retirement: the drain admits nothing
// new, so the server must end the run with identical numbers.
Readout serve_without_retiring() {
  Rig rig;
  auto server = rig.make_app();
  rig.load(*server);
  rig.engine.run_until(sim::from_seconds(kEnd));
  EXPECT_FALSE(server->retired());
  return read(*server, rig);
}

TEST(ServerRetirementTest, DrainedVmReleasesStorageWhenItStops) {
  Rig rig;
  Vm vm(rig.engine, "app-vm0", 0, rig.make_app(), 0, [](Vm&) {});
  Server& server = vm.server();
  rig.load(server);
  rig.engine.run_until(sim::from_seconds(kCrashAt));
  bool stopped = false;
  uint64_t db_completed_at_stop = 0;
  vm.begin_drain([&](Vm& v, bool failed) {
    stopped = !failed;
    db_completed_at_stop = rig.db.completed();
    // Still inside the last visit's continuation: nothing is released yet.
    EXPECT_TRUE(v.server().retired());
    EXPECT_GT(v.server().bulk_bytes_reserved(), 0u);
  });
  ASSERT_EQ(vm.state(), VmState::kDraining);
  rig.engine.run_until(sim::from_seconds(kEnd));
  ASSERT_TRUE(stopped);
  EXPECT_EQ(vm.state(), VmState::kStopped);
  EXPECT_FALSE(server.online());
  EXPECT_EQ(server.bulk_bytes_reserved(), 0u);

  const Readout released = read(server, rig);
  EXPECT_EQ(released.ok + released.failed, 10);
  EXPECT_GT(released.timeouts, 0u);
  // A timed-out attempt's response reached the stopped server late.
  EXPECT_GT(released.db_completed, db_completed_at_stop);
  EXPECT_TRUE(released == serve_without_retiring());
}

TEST(ServerRetirementTest, FailedBootingVmRetiresWithoutWaiting) {
  sim::Engine engine;
  Vm vm(engine, "app-vm0", 0, std::make_unique<Server>(engine, app_server(), 0, Rng(23)),
        sim::from_seconds(15.0), [](Vm&) {});
  vm.fail();
  EXPECT_TRUE(vm.server().retired());
  EXPECT_EQ(engine.pending_events(), 1u);  // the release; the boot is cancelled
  engine.run_until(0);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(vm.server().bulk_bytes_reserved(), 0u);
}

}  // namespace
}  // namespace dcm::ntier
