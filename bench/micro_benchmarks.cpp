// Microbenchmarks of the simulator's hot paths (google-benchmark).
//
// In addition to the console output, every run writes BENCH_micro.json
// (override the path with DCM_BENCH_JSON) so CI can archive the trajectory
// and PRs can be compared against the committed baseline.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "bench_json_reporter.h"
#include "bus/consumer.h"
#include "bus/producer.h"
#include "common/rng.h"
#include "fit/levenberg_marquardt.h"
#include "model/concurrency_model.h"
#include "ntier/cpu_scheduler.h"
#include "ntier/metric_sample.h"
#include "ntier/request.h"
#include "ntier/server.h"
#include "ntier/slot_pool.h"
#include "scenario/result_writer.h"
#include "scenario/sweep.h"
#include "sim/engine.h"
#include "trace/attribution.h"
#include "trace/tracer.h"

namespace {

void BM_EngineScheduleDispatch(benchmark::State& state) {
  dcm::sim::Engine engine;
  int64_t t = 0;
  for (auto _ : state) {
    engine.schedule_at(++t, [] {});
    engine.run_until(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_EnginePendingHeap(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    dcm::sim::Engine engine;
    for (int i = 0; i < depth; ++i) {
      engine.schedule_at(i, [] {});
    }
    engine.run_until(depth);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * depth);
}
BENCHMARK(BM_EnginePendingHeap)->Arg(1024)->Arg(16384);

void BM_EngineCancelHeavy(benchmark::State& state) {
  // Timeout-style workload: every event gets scheduled with a handle and
  // half are cancelled before they fire — the generation-counted slab must
  // absorb the churn without allocating.
  constexpr int kBatch = 64;
  dcm::sim::Engine engine;
  std::vector<dcm::sim::EventHandle> handles;
  handles.reserve(kBatch);
  int64_t t = 0;
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(engine.schedule_at(t + i + 1, [] {}));
    }
    for (int i = 0; i < kBatch; i += 2) handles[static_cast<size_t>(i)].cancel();
    t += kBatch;
    engine.run_until(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_EngineCancelHeavy);

/// Think-style timer population for the far band: each timer re-arms
/// itself 0.5–1.5 s ahead (a cheap LCG spreads the delays), like closed-loop
/// users parked in think time.
struct ThinkTimers {
  dcm::sim::Engine* engine;
  uint64_t lcg = 1;
  void arm() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const int64_t delay = 500'000'000 + static_cast<int64_t>((lcg >> 33) % 1'000'000'000);
    engine->schedule_after(delay, [this] { arm(); });
  }
};

void BM_EngineTimeoutChurn(benchmark::State& state) {
  // The server/client deadline pattern: each step arms a 1 s timeout into a
  // far band holding ~1000 think timers, lets 3 ms of traffic pass, then
  // cancels the timeout (the response beat it). Items are timeouts.
  dcm::sim::Engine engine;
  ThinkTimers timers{&engine};
  for (int i = 0; i < 1000; ++i) timers.arm();
  for (auto _ : state) {
    dcm::sim::EventHandle timeout = engine.schedule_after(1'000'000'000, [] {});
    engine.run_for(3'000'000);
    timeout.cancel();
    benchmark::DoNotOptimize(timeout);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineTimeoutChurn);

void BM_EngineRetime(benchmark::State& state) {
  // The CPU-scheduler pattern: K near-band completion timers, each moved to
  // a new instant every step (a rate change), re-armed only once it fired.
  // Items are retimes.
  const int k = static_cast<int>(state.range(0));
  dcm::sim::Engine engine;
  std::vector<dcm::sim::EventHandle> handles(static_cast<size_t>(k));
  uint64_t lcg = 1;
  for (auto _ : state) {
    for (auto& handle : handles) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const int64_t delay = 100'000 + static_cast<int64_t>((lcg >> 33) % 1'000'000);
      if (!engine.retime_after(handle, delay)) handle = engine.schedule_after(delay, [] {});
    }
    engine.run_for(50'000);
    benchmark::DoNotOptimize(handles.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_EngineRetime)->Arg(8)->Arg(64);

void BM_EnginePeriodicTimers(benchmark::State& state) {
  // Monitoring-agent-style load: many staggered periodic timers re-arming
  // forever. Items are timer ticks.
  const int timers = static_cast<int>(state.range(0));
  dcm::sim::Engine engine;
  uint64_t ticks = 0;
  uint64_t* ticks_ptr = &ticks;
  std::vector<dcm::sim::EventHandle> handles;
  handles.reserve(static_cast<size_t>(timers));
  for (int i = 0; i < timers; ++i) {
    handles.push_back(engine.schedule_periodic(1000 + i, [ticks_ptr] { ++*ticks_ptr; }));
  }
  int64_t horizon = 0;
  for (auto _ : state) {
    horizon += 100000;
    engine.run_until(horizon);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ticks));
}
BENCHMARK(BM_EnginePeriodicTimers)->Arg(16)->Arg(256);

void BM_SlotPoolAcquireRelease(benchmark::State& state) {
  dcm::sim::Engine engine;
  dcm::ntier::SlotPool pool(engine, "bench", 64);
  for (auto _ : state) {
    pool.acquire([] {});
    pool.release();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlotPoolAcquireRelease);

void BM_CpuSchedulerChurn(benchmark::State& state) {
  const int concurrency = static_cast<int>(state.range(0));
  dcm::ntier::CpuModelConfig cpu_config;
  cpu_config.params = {1e-3, 1e-4, 1e-6};
  dcm::sim::Engine engine;
  dcm::ntier::CpuScheduler cpu(engine, cpu_config);
  cpu.set_thread_count(concurrency);
  uint64_t completed = 0;
  std::function<void()> spawn = [&] {
    cpu.submit(1e-3, [&] {
      ++completed;
      spawn();
    });
  };
  for (int i = 0; i < concurrency; ++i) spawn();
  double horizon = 0.0;
  for (auto _ : state) {
    horizon += 0.01;
    engine.run_until(dcm::sim::from_seconds(horizon));
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
}
BENCHMARK(BM_CpuSchedulerChurn)->Arg(8)->Arg(64)->Arg(256);

/// Completion callback of the backlog benchmark: every finished visit
/// re-issues the same request, so the backlog never drains. Two pointers, so
/// it stays inside std::function's inline buffer.
struct Reissue {
  dcm::ntier::Server* server;
  const dcm::ntier::RequestPtr* request;
  void operator()(bool /*ok*/) const { server->process(*request, *this); }
};

/// A saturated one-thread leaf server with N visits queued on its worker
/// pool. An iteration is one service time: one visit completes, the head of
/// the queue is granted the worker, and the completion enqueues a new visit
/// at the tail. ns_per_op is the cost of that enqueue-and-grant cycle (with
/// its CPU job) at backlog depth N; bytes_per_queued_visit is what one queued
/// visit holds: its visit-slab slot plus its worker-pool waiter.
void BM_ServerBacklog(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  constexpr double kServiceSeconds = 1e-3;  // exact in ns: one visit per step
  dcm::sim::Engine engine;
  dcm::ntier::ServerConfig config;
  config.cpu.params = {kServiceSeconds, 0.0, 0.0};
  config.max_threads = 1;
  dcm::ntier::Server server(engine, config, 0, dcm::Rng(7));
  const dcm::ntier::RequestPtr request = dcm::ntier::make_request_context(&engine.arena());
  request->demand_scale.push_back(1.0);
  for (int i = 0; i <= backlog; ++i) server.process(request, Reissue{&server, &request});
  const dcm::sim::SimTime step = dcm::sim::from_seconds(kServiceSeconds);
  dcm::sim::SimTime horizon = 0;
  const uint64_t completed_before = server.completed();
  for (auto _ : state) {
    horizon += step;
    engine.run_until(horizon);
  }
  state.SetItemsProcessed(static_cast<int64_t>(server.completed() - completed_before));
  state.counters["bytes_per_queued_visit"] = static_cast<double>(
      dcm::ntier::Server::visit_slot_bytes() + dcm::ntier::SlotPool::waiter_bytes());
  if (server.queue_length() != backlog) state.SkipWithError("backlog drifted");
}
BENCHMARK(BM_ServerBacklog)->Arg(64)->Arg(4096);

/// Records one traced-workload-shaped trace: 25 spans over a three-tier
/// chain (balancer picks, pool/connection waits, CPU service and run-queue
/// waits, downstream containers on edges 0 and 1), durations drawn from a
/// cheap LCG so attribution shares vary trace to trace.
constexpr int kSpansPerTrace = 25;
template <typename Context>
void record_trace(Context& ctx, uint64_t& lcg) {
  using dcm::trace::SpanKind;
  dcm::sim::SimTime t = ctx.started;
  for (int s = 0; s < kSpansPerTrace; ++s) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const dcm::sim::SimTime width = static_cast<dcm::sim::SimTime>((lcg >> 40) % 4'000'000);
    const int tier = (s / 3) % 3;
    switch (s % 5) {
      case 0:
        ctx.add_span(SpanKind::kLbPick, tier, t, t, 2.0);
        break;
      case 1:
        ctx.add_span(SpanKind::kPoolWait, tier, t, t + width);
        break;
      case 2:
        ctx.add_span(SpanKind::kService, tier, t, t + width, 1e-3);
        break;
      case 3:
        ctx.add_edge_span(SpanKind::kConnWait, tier, tier % 2, t, t + width);
        break;
      default:
        ctx.add_edge_span(SpanKind::kDownstream, tier, tier % 2, t, t + width);
        break;
    }
    t += width / 2;
  }
}

void BM_TraceRecordFinalize(benchmark::State& state) {
  // The per-request tracing cost: sample, record 25 spans, finalize. One
  // iteration traces 256 requests into a fresh tracer, so the store's set-up
  // and teardown are part of the cost they amortize over, as in a run. Its
  // chunks and scratch buffers come from this thread's recycler, refilled
  // by the previous iteration's store, as on a thread that runs traced
  // experiments back to back; only the first iteration allocates them.
  // bytes_per_span is what the store's context and span chunks hold per
  // recorded span.
  constexpr int kTraces = 256;
  uint64_t lcg = 1;
  uint64_t reserved = 0;
  for (auto _ : state) {
    dcm::trace::Tracer tracer(7, dcm::trace::TraceSpec{true, 1.0});
    for (int i = 0; i < kTraces; ++i) {
      const dcm::sim::SimTime start = static_cast<dcm::sim::SimTime>(i) * 1'000'000;
      auto ctx = tracer.maybe_sample(static_cast<uint64_t>(i), 0, start);
      record_trace(*ctx, lcg);
      ctx->finalize(start + 50'000'000, true);
    }
    benchmark::DoNotOptimize(tracer.sampled());
    reserved = tracer.store()->bytes_reserved();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kTraces);
  state.counters["bytes_per_span"] =
      static_cast<double>(reserved) / (kTraces * kSpansPerTrace);
}
BENCHMARK(BM_TraceRecordFinalize);

void BM_LatencyAttributionFold(benchmark::State& state) {
  // build_report's fold over 4096 finalized 25-span traces: per-trace
  // (tier, cause) and (tier, edge) sums, then the row tables with their
  // nearest-rank p50/p95/p99 shares.
  constexpr int kTraces = 4096;
  dcm::trace::Tracer tracer(7, dcm::trace::TraceSpec{true, 1.0});
  uint64_t lcg = 1;
  for (int i = 0; i < kTraces; ++i) {
    const dcm::sim::SimTime start = static_cast<dcm::sim::SimTime>(i) * 1'000'000;
    auto ctx = tracer.maybe_sample(static_cast<uint64_t>(i), 0, start);
    record_trace(*ctx, lcg);
    ctx->finalize(start + 50'000'000, true);
  }
  for (auto _ : state) {
    dcm::trace::LatencyAttribution attribution;
    for (const auto& ctx : tracer.traces()) attribution.add(*ctx);
    benchmark::DoNotOptimize(attribution.rows());
    benchmark::DoNotOptimize(attribution.edge_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kTraces);
}
BENCHMARK(BM_LatencyAttributionFold);

void BM_BusProduceConsume(benchmark::State& state) {
  dcm::bus::Broker broker;
  broker.create_topic("t", {4, 0});
  dcm::bus::Producer producer(broker);
  dcm::bus::Consumer consumer(broker, "g", "t");
  int64_t t = 0;
  for (auto _ : state) {
    ++t;
    producer.send("t", "key-" + std::to_string(t % 16), "payload", t);
    benchmark::DoNotOptimize(consumer.poll(16));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BusProduceConsume);

// One monitor sample's telemetry round trip: quantise the four rates as
// MonitorAgent::collect() does, encode, decode.
void BM_MetricSampleEncodeDecode(benchmark::State& state) {
  dcm::ntier::MetricSample sample;
  sample.time = 123456789;
  sample.depth = 1;
  sample.vm = 1;
  sample.vm_state = dcm::ntier::VmState::kActive;
  sample.thread_pool_size = 20;
  sample.conn_pool_size = 18;
  sample.queue_length = 3;
  double rates[4] = {87.5, 0.042, 19.7, 0.93};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rates);
    sample.throughput = dcm::ntier::quantize_decimal(rates[0], 6);
    sample.avg_response_time = dcm::ntier::quantize_decimal(rates[1], 6);
    sample.concurrency = dcm::ntier::quantize_decimal(rates[2], 4);
    sample.cpu_util = dcm::ntier::quantize_decimal(rates[3], 4);
    benchmark::DoNotOptimize(dcm::ntier::decode(dcm::ntier::encode(sample)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricSampleEncodeDecode);

void BM_LevenbergMarquardtEq7(benchmark::State& state) {
  // Fit Eq. 7 to a synthetic sweep — the online estimator's refit cost.
  const dcm::model::ServiceTimeParams truth{7.19e-3, 5.04e-3, 1.65e-6};
  std::vector<double> x, y;
  for (int n = 1; n <= 120; n += 4) {
    x.push_back(n);
    y.push_back(dcm::model::server_throughput(truth, n));
  }
  const dcm::fit::ModelFn fn = [](const std::vector<double>& p, double n) {
    return n / (p[0] + p[1] * (n - 1.0) + p[2] * n * (n - 1.0));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dcm::fit::levenberg_marquardt(fn, x, y, {0.01, 0.001, 1e-5}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LevenbergMarquardtEq7);

void BM_SweepRunner(benchmark::State& state) {
  // A 16-run sweep (4 load levels x 2 controllers x 2 VM caps) executed
  // with the argument's worker-thread count. Every engine is independent,
  // so the runs embarrassingly parallelize; on an 8-core host the /8 row
  // lands near 8x the /1 items/s (this container is single-core, so the
  // trajectory there only shows pool overhead — see BENCH_micro.json).
  // The digest check keeps the benchmark honest: a thread count that
  // changed the merged bits would be measuring a different computation.
  const int jobs = static_cast<int>(state.range(0));
  dcm::scenario::SweepPlan plan;
  plan.base = dcm::scenario::Scenario::parse(
      "[workload]\nkind=rubbos\nusers=60\n"
      "[controller]\nkind=ec2\n"
      "[run]\nduration=30\nwarmup=5\nseed=9\n");
  plan.axes.push_back(dcm::scenario::parse_axis("workload.users=40,60,80,100"));
  plan.axes.push_back(dcm::scenario::parse_axis("controller.kind=none,ec2"));
  plan.axes.push_back(dcm::scenario::parse_axis("run.max_vms=4,8"));
  uint64_t digest = 0;
  for (auto _ : state) {
    const auto runs = dcm::scenario::SweepRunner(plan, jobs).run();
    const uint64_t d = dcm::scenario::sweep_digest(runs);
    if (digest == 0) digest = d;
    if (d != digest) state.SkipWithError("sweep digest varied across runs");
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
// UseRealTime: the work happens on pool threads, so main-thread CPU time
// would undercount; wall clock is the honest denominator for items/s. The
// default ns unit keeps BENCH_micro.json's ns_per_op field uniform.
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* out = std::getenv("DCM_BENCH_JSON");
  dcm::bench::JsonTrajectoryReporter reporter(out != nullptr ? out : "BENCH_micro.json");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
