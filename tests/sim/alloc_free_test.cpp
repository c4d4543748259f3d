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
#include <thread>
#include <type_traits>
#include <vector>

#include "bus/broker.h"
#include "control/controller.h"
#include "core/topologies.h"
#include "ntier/app.h"
#include "ntier/metric_sample.h"
#include "ntier/monitor_agent.h"
#include "ntier/request.h"
#include "sim/engine.h"
#include "trace/store.h"
#include "trace/tracer.h"
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

// Every replacement delete frees through this one out-of-line call. Inlined
// into a caller that got the block from operator new, a bare std::free reads
// to GCC as a new/free mismatch (-Wmismatched-new-delete); the blocks are
// malloc'd by the replacement news above, so free is the matching call.
namespace {
[[gnu::noinline]] void free_block(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { free_block(p); }
void operator delete(void* p, std::align_val_t) noexcept { free_block(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { free_block(p); }

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

TEST(AllocationFreeTest, SteadyStateRetimeAndEagerCancelDoNotAllocate) {
  // The CPU-scheduler and deadline patterns: near-band timers retimed every
  // step, and a far-band timeout armed and erased before it fires, beside a
  // far band of long-lived timers.
  Engine engine;
  uint64_t fired = 0;
  uint64_t* fired_ptr = &fired;
  std::array<EventHandle, 8> near;
  for (size_t k = 0; k < near.size(); ++k) {
    near[k] = engine.schedule_after(1'000'000, [fired_ptr] { ++*fired_ptr; });
  }
  for (int i = 0; i < 256; ++i) {
    engine.schedule_after(from_seconds(1000.0) + i, [fired_ptr] { ++*fired_ptr; });
  }
  auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      EventHandle timeout = engine.schedule_after(from_seconds(1.0), [fired_ptr] { ++*fired_ptr; });
      for (size_t k = 0; k < near.size(); ++k) {
        const SimTime delay = 1'000'000 + static_cast<SimTime>((i * 7 + k * 13) % 50) * 1000;
        EXPECT_TRUE(engine.retime_after(near[k], delay));
      }
      engine.run_for(100'000);
      timeout.cancel();
    }
  };
  cycle(64);  // warm-up
  const uint64_t before = allocations();
  cycle(5000);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(engine.pending_events(), near.size() + 256);
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

TEST(AllocationFreeTest, RetiredServerRefusesVisitsWithoutAllocating) {
  // A silently crashed VM stays in its balancer until a health sweep ejects
  // it, so visits keep reaching its retired server after the storage is
  // released. Refusing them must grow nothing back.
  Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  ntier::Tier& db = app.tier(2);
  ASSERT_TRUE(db.inject_crash(db.vms()[0]->id()));
  engine.run_until(0);  // the release event
  ntier::Server& server = db.vms()[0]->server();
  ASSERT_EQ(server.bulk_bytes_reserved(), 0u);

  ntier::RequestPtr request = ntier::make_request_context(&engine.arena());
  request->demand_scale = {1.0, 1.0, 1.0};
  int refused = 0;
  const ntier::DoneFn done = [&refused](bool ok) { refused += ok ? 0 : 1; };
  const uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) server.process(request, done);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(refused, 1000);
  EXPECT_EQ(server.bulk_bytes_reserved(), 0u);
}

// A fixed three-tier plan with no servlet: the per-servlet response-time
// map never grows, so the only client-side containers are the per-second
// series.
struct FixedChainPlan {
  ntier::RequestPtr operator()(Arena* arena, uint64_t id, Rng&, SimTime now) const {
    ntier::RequestPtr request = ntier::make_request_context(arena);
    request->id = id;
    request->created = now;
    request->demand_scale = {1.0, 1.0, 1.0};
    request->downstream_calls = {1, 2};
    return request;
  }
};

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
  workload::ClosedLoopConfig config;
  config.users = 1;
  workload::ClosedLoopGenerator generator(engine, app, FixedChainPlan{}, std::move(config));
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

TEST(AllocationFreeTest, TracedClosedLoopRoundTripAllocatesOnlyStoreChunks) {
  // Every request traced: the context is opened in the tracer's store, the
  // hooks on all three tiers and the client append spans to a recycled
  // scratch buffer, and finalize() seals them into the span arena. Once
  // warm, the only allocations left are the store's own chunks — one per
  // context or span chunk opened, none per trace or per span.
  Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
  workload::ClosedLoopConfig config;
  config.users = 1;
  workload::ClosedLoopGenerator generator(engine, app, FixedChainPlan{}, std::move(config));
  trace::Tracer tracer(7, trace::TraceSpec{true, 1.0});
  generator.set_tracer(&tracer);
  generator.start();

  // Warm-up as in the resilient round trip: the per-second client series
  // have regrown for the last time before the window opens.
  engine.run_until(from_seconds(32.5));
  ASSERT_GE(generator.stats().completed(), 100u) << "warm-up did not complete";
  const trace::TraceStore& store = *tracer.store();
  const uint64_t sampled_before = tracer.sampled();
  const uint64_t chunks_before = store.context_chunks() + store.span_chunks();
  const uint64_t before = allocations();
  engine.run_until(from_seconds(60.0));
  const uint64_t allocated = allocations() - before;
  const uint64_t chunks_opened = store.context_chunks() + store.span_chunks() - chunks_before;
  EXPECT_EQ(allocated, chunks_opened) << "traced round trips allocated outside store chunks";

  EXPECT_GT(tracer.sampled(), sampled_before + 100);
  EXPECT_EQ(generator.stats().errors(), 0u);
  uint64_t spans = 0;
  for (const trace::TraceContext* context : tracer.traces()) spans += context->spans.size();
  EXPECT_GT(spans, 10 * tracer.sampled());
}

/// Builds, runs to t = 60 s and tears down a single-user closed loop whose
/// tracer samples every request or none; returns every allocation it made.
uint64_t closed_loop_allocations(bool traced) {
  const uint64_t before = allocations();
  {
    Engine engine;
    ntier::NTierApp app(
        engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 100, 80}), 1);
    // Requests hold their contexts in the tracer's store: it outlives them.
    trace::Tracer tracer(7, trace::TraceSpec{traced, 1.0});
    workload::ClosedLoopConfig config;
    config.users = 1;
    workload::ClosedLoopGenerator generator(engine, app, FixedChainPlan{}, std::move(config));
    generator.set_tracer(&tracer);
    generator.start();
    engine.run_until(from_seconds(60.0));
    EXPECT_EQ(tracer.sampled() > 100, traced);
  }
  return allocations() - before;
}

TEST(AllocationFreeTest, TracedRoundTripOnAWarmThreadAllocatesNoTraceStorage) {
  // The first traced loop's store dies into this thread's recycler; an
  // identical second one then draws every context chunk, span chunk and
  // scratch buffer from it, so it allocates exactly what a loop with a
  // disabled tracer (the same empty store, nothing sampled) does. A fresh
  // thread starts with an empty recycler, whatever ran before this test.
  std::thread([] {
    const uint64_t cold = closed_loop_allocations(true);
    const uint64_t untraced = closed_loop_allocations(false);
    const uint64_t warm = closed_loop_allocations(true);
    EXPECT_EQ(warm, untraced) << "a warm traced loop allocated trace storage";
    EXPECT_GT(cold, warm) << "the cold loop should have allocated its chunks";
  }).join();
}

static_assert(std::is_trivially_copyable_v<ntier::MetricSample>);

// A controller with no policy: the test drives its telemetry intake.
class TelemetryProbe : public control::ControllerBase {
 public:
  TelemetryProbe(Engine& engine, ntier::NTierApp& app, bus::Broker& broker)
      : ControllerBase(engine, app, broker, control::ScalingPolicy{}, "probe") {}
  using ControllerBase::observe;
  using ControllerBase::period_samples;

 protected:
  void decide(const std::vector<control::TierObservation>&) override {}
};

TEST(AllocationFreeTest, TelemetryPipelineIsAllocationFreeAtSteadyState) {
  // Agent ticks (collect, quantise, encode, send), the broker's retention
  // sweep, and the controller's poll, decode and aggregate: once the
  // partition logs and the consumer's buffers have reached their working
  // size, none of it touches the allocator.
  Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 1}, {1000, 100, 80}), 1);
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);
  TelemetryProbe probe(engine, app, broker);
  uint64_t samples = 0;
  uint64_t tomcat_samples = 0;
  uint64_t* samples_ptr = &samples;
  uint64_t* tomcat_ptr = &tomcat_samples;
  TelemetryProbe* probe_ptr = &probe;
  engine.schedule_periodic(from_seconds(15.0), [probe_ptr, samples_ptr, tomcat_ptr] {
    const auto& observations = probe_ptr->observe();
    *samples_ptr += probe_ptr->period_samples().size();
    *tomcat_ptr += static_cast<uint64_t>(observations[1].samples);
  });

  // Warm-up past the 120 s retention horizon: the sweep now trims as much
  // as the agents append.
  engine.run_until(from_seconds(300.5));
  const uint64_t samples_before = samples;
  const uint64_t tomcat_before = tomcat_samples;
  const uint64_t before = allocations();
  engine.run_until(from_seconds(900.5));
  EXPECT_EQ(allocations(), before) << "steady-state telemetry allocated";

  // 4 agents × 600 s, drained by 40 control periods.
  EXPECT_EQ(samples - samples_before, 2400u);
  EXPECT_EQ(tomcat_samples - tomcat_before, 1200u);
  EXPECT_LT(broker.total_records(), 4 * 140u);
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
