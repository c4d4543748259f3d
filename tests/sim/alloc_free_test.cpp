// Asserts the simulator hot path is allocation-free at steady state.
//
// This TU replaces the global operator new/delete with counting forwarders
// (binary-wide, which is why the assertions measure deltas around tight
// regions rather than absolute counts). Once the event heap and slab have
// grown to the working-set size, schedule/dispatch, cancellation, and
// periodic re-arming must not touch the heap at all.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/topologies.h"
#include "ntier/app.h"
#include "ntier/request.h"
#include "sim/engine.h"
#include "workload/closed_loop.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};

uint64_t allocations() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dcm::sim {
namespace {

TEST(AllocationFreeTest, SteadyStateScheduleDispatchDoesNotAllocate) {
  Engine engine;
  uint64_t fired = 0;
  uint64_t* fired_ptr = &fired;
  SimTime t = 0;
  // Warm-up: grow the heap vector and slot slab to working-set size.
  for (int i = 0; i < 512; ++i) {
    engine.schedule_at(++t, [fired_ptr] { ++*fired_ptr; });
    engine.run_until(t);
  }
  const uint64_t before = allocations();
  for (int i = 0; i < 20000; ++i) {
    engine.schedule_at(++t, [fired_ptr] { ++*fired_ptr; });
    engine.run_until(t);
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(fired, 20512u);
}

TEST(AllocationFreeTest, SteadyStateCancelCycleDoesNotAllocate) {
  Engine engine;
  uint64_t fired = 0;
  uint64_t* fired_ptr = &fired;
  SimTime t = 0;
  auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      // A deep-ish pending set with half the events cancelled before firing.
      std::array<EventHandle, 32> handles;
      for (size_t k = 0; k < handles.size(); ++k) {
        handles[k] = engine.schedule_at(t + static_cast<SimTime>(k) + 1,
                                        [fired_ptr] { ++*fired_ptr; });
      }
      for (size_t k = 0; k < handles.size(); k += 2) handles[k].cancel();
      t += static_cast<SimTime>(handles.size());
      engine.run_until(t);
    }
  };
  cycle(64);  // warm-up
  const uint64_t before = allocations();
  cycle(1000);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(fired, (64u + 1000u) * 16u);
}

TEST(AllocationFreeTest, PeriodicReArmDoesNotAllocate) {
  Engine engine;
  uint64_t ticks = 0;
  uint64_t* ticks_ptr = &ticks;
  auto handle = engine.schedule_periodic(10, [ticks_ptr] { ++*ticks_ptr; });
  engine.run_until(1000);  // warm-up
  const uint64_t before = allocations();
  engine.run_until(101000);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(ticks, 10100u);
  handle.cancel();
}

TEST(AllocationFreeTest, ExactCapacityCaptureIsAllocationFree) {
  Engine engine;
  std::array<char, EventFn::kInlineCapacity> payload{};
  engine.schedule_at(1, [payload] { (void)payload; });
  engine.run_until(1);  // warm the slab slot
  const uint64_t before = allocations();
  for (SimTime t = 2; t < 100; ++t) {
    engine.schedule_at(t, [payload] { (void)payload; });
    engine.run_until(t);
  }
  EXPECT_EQ(allocations(), before);
}

/// Issues sequential round trips: each completion issues the next request.
/// The loop captures a single pointer so its own DoneFn stays inside
/// std::function's SBO — the test must not allocate on its own behalf.
struct RoundTripLoop {
  Engine& engine;
  ntier::NTierApp& app;
  decltype(ntier::RequestContext::demand_scale) demand_scale;
  decltype(ntier::RequestContext::downstream_calls) downstream_calls;
  uint64_t completed = 0;
  uint64_t issued = 0;
  void issue() {
    ntier::RequestPtr request = ntier::make_request_context(&engine.arena());
    request->id = ++issued;
    request->created = engine.now();
    request->demand_scale = demand_scale;
    request->downstream_calls = downstream_calls;
    app.submit(request, [this](bool ok) {
      EXPECT_TRUE(ok);
      ++completed;
      if (issued < 1200) issue();
    });
  }
};

/// Warms the app with ~5 sim-seconds of round trips (concurrency is 1
/// throughout — more than enough to grow every slab to the working set),
/// then requires the rest of the 1200 trips to leave the allocator alone.
void expect_allocation_free_round_trips(RoundTripLoop& loop) {
  loop.issue();
  loop.engine.run_until(sim::from_seconds(5.0));
  ASSERT_GE(loop.completed, 100u) << "warm-up did not complete";
  const uint64_t before = allocations();
  loop.engine.run_to_completion();
  EXPECT_EQ(allocations(), before) << "steady-state request round trips allocated";
  EXPECT_EQ(loop.completed, 1200u);
}

TEST(AllocationFreeTest, ThreeTierRoundTripIsAllocationFreeAtSteadyState) {
  // End-to-end pin on the request-slab/arena refactor: once the event slab,
  // the per-server visit and call slabs, and the request arena have grown to
  // the working set, a full web → app → db round trip (request construction,
  // worker/connection admission, CPU spans on all three tiers, and the
  // response path back) must not touch the global allocator.
  Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  RoundTripLoop loop{engine, app, {1.0, 1.0, 1.0}, {1, 2}};  // 1 AJP call, 2 DB queries
  expect_allocation_free_round_trips(loop);
}

TEST(AllocationFreeTest, FanOutJoinRoundTripIsAllocationFreeAtSteadyState) {
  // The fanout-join shape: the app tier fans out to two caches and the
  // managed DB pool concurrently and joins all three branches. Branch calls
  // ride the same call slab and 16-byte continuations as a chain hop.
  core::TopologySpec spec;
  spec.kind = core::TopologySpec::Kind::kGraph;
  spec.nodes = {{"apache", "web"},
                {"tomcat", "app"},
                {"memcache", "cache"},
                {"redis", "cache"},
                {"mysql", "db"}};
  spec.edges = {{"apache", "tomcat", 1, false, false},
                {"tomcat", "memcache", 1, false, false},
                {"tomcat", "redis", 2, false, false},
                {"tomcat", "mysql", 0, true, true}};
  Engine engine;
  ntier::NTierApp app(engine, core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}), 1);
  RoundTripLoop loop{engine, app, {1.0, 1.0, 1.0, 1.0, 1.0}, {1, 1, 2, 2}};
  expect_allocation_free_round_trips(loop);
}

TEST(AllocationFreeTest, ResilientClosedLoopRoundTripIsAllocationFreeAtSteadyState) {
  // The chaos-resilience stack without faults: health-checked balancing on
  // the app and db tiers (the servers report every visit outcome to their
  // balancer), a deadline + retry on every sub-request, and a client whose
  // retry policy arms a deadline on each attempt that the response then
  // cancels. None of it may touch the allocator once warm.
  Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  ntier::SubRequestRetryPolicy sub_retry;
  sub_retry.timeout_seconds = 5.0;
  sub_retry.max_retries = 1;
  ntier::HealthCheckConfig health;
  health.period_seconds = 1.0;
  for (size_t i = 0; i < app.tier_count(); ++i) {
    if (i + 1 < app.tier_count()) app.tier(i).set_subrequest_retry(sub_retry);
    if (i > 0) app.tier(i).enable_health_checks(health);
  }
  // A fixed plan with no servlet: the per-servlet response-time map never
  // grows, so the only client-side containers are the per-second series.
  struct Plan {
    ntier::RequestPtr operator()(Arena* arena, uint64_t id, Rng&, SimTime now) const {
      ntier::RequestPtr request = ntier::make_request_context(arena);
      request->id = id;
      request->created = now;
      request->demand_scale = {1.0, 1.0, 1.0};
      request->downstream_calls = {1, 2};
      return request;
    }
  };
  workload::ClosedLoopConfig config;
  config.users = 1;
  workload::ClosedLoopGenerator generator(engine, app, Plan{}, std::move(config));
  workload::RetryPolicy retry;
  retry.timeout_seconds = 10.0;  // armed on every attempt, always cancelled
  retry.max_retries = 1;
  generator.set_retry_policy(retry);
  generator.start();

  // Warm up to t = 32.5 s: the per-second series then hold 33 buckets, so
  // their capacity has doubled to 64 and the measured window (to t = 60 s)
  // fits without regrowth.
  engine.run_until(from_seconds(32.5));
  const uint64_t completed_before = generator.stats().completed();
  ASSERT_GE(completed_before, 100u) << "warm-up did not complete";
  const uint64_t before = allocations();
  engine.run_until(from_seconds(60.0));
  EXPECT_EQ(allocations(), before) << "steady-state resilient round trips allocated";

  const workload::ClientStats& stats = generator.stats();
  EXPECT_GT(stats.completed(), completed_before);
  EXPECT_EQ(stats.errors(), 0u);
  EXPECT_EQ(stats.timeouts(), 0u);
  EXPECT_EQ(stats.retries(), 0u);
  EXPECT_EQ(app.tier(1).subrequest_timeouts(), 0u);
}

TEST(AllocationFreeTest, OversizedCapturesHeapBoxButStillWork) {
  Engine engine;
  std::array<char, EventFn::kInlineCapacity + 16> big{};
  big[0] = 9;
  int out = 0;
  const uint64_t before = allocations();
  engine.schedule_at(1, [big, &out] { out = big[0]; });
  EXPECT_GT(allocations(), before);  // boxed: capture exceeds SBO budget
  engine.run_until(1);
  EXPECT_EQ(out, 9);
}

}  // namespace
}  // namespace dcm::sim
