// Trace memory outlives its store: a dying TraceStore hands its chunks and
// scratch buffers to its thread's recycler, and the next store on that
// thread draws from it. These tests pin that recycled memory changes no
// output byte and leaks no state, that the cache keeps within its derived
// bound, and that a store may die on a thread other than its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"
#include "sim/time.h"
#include "trace/attribution.h"
#include "trace/store.h"
#include "trace/trace.h"

namespace dcm::trace {
namespace {

using sim::from_seconds;

// The bytes a traced run produces: its trace digest, its dcm-result-v1
// JSON (which carries the trace section) and its per-span CSV.
struct TracedOutput {
  uint64_t digest = 0;
  std::string json;
  std::string spans_csv;
  uint64_t context_chunks = 0;
  uint64_t span_chunks = 0;
};

// One registry-default run, kept whole so its store is alive.
std::vector<scenario::SweepRun> run_trace_attribution() {
  std::vector<scenario::SweepRun> runs(1);
  runs[0].scenario = scenario::get_scenario("trace-attribution");
  runs[0].result = core::run_experiment(runs[0].scenario.experiment());
  return runs;
}

TracedOutput outputs_of(const std::vector<scenario::SweepRun>& runs) {
  const core::ExperimentResult& result = runs[0].result;
  TracedOutput out;
  EXPECT_NE(result.trace_report, nullptr);
  if (result.trace_report == nullptr) return out;
  out.digest = scenario::trace_digest(*result.trace_report);
  std::ostringstream json;
  scenario::write_result_json(json, "trace-attribution", runs);
  out.json = json.str();
  std::ostringstream csv;
  scenario::write_spans_csv(csv, result);
  out.spans_csv = csv.str();
  out.context_chunks = result.trace_report->store->context_chunks();
  out.span_chunks = result.trace_report->store->span_chunks();
  return out;
}

TEST(TraceRecyclerTest, BackToBackRunsOnOneThreadMatchAFreshThread) {
  TracedOutput fresh;
  TraceStore::ThreadCache fresh_cache{1, 1, 1};
  std::thread([&] {
    fresh_cache = TraceStore::thread_cache();
    fresh = outputs_of(run_trace_attribution());
  }).join();
  EXPECT_EQ(fresh_cache.context_chunks, 0u);
  EXPECT_EQ(fresh_cache.span_chunks, 0u);
  EXPECT_EQ(fresh_cache.scratch_buffers, 0u);

  // The first run's result, and with it its store, dies in this statement.
  const TracedOutput first = outputs_of(run_trace_attribution());
  const TraceStore::ThreadCache warm = TraceStore::thread_cache();
  ASSERT_GE(warm.context_chunks, first.context_chunks);
  ASSERT_GE(warm.span_chunks, first.span_chunks);
  ASSERT_GT(warm.scratch_buffers, 0u);

  // The second run draws every chunk it needs from the cache.
  const std::vector<scenario::SweepRun> second_runs = run_trace_attribution();
  const TraceStore::ThreadCache during = TraceStore::thread_cache();
  const TracedOutput second = outputs_of(second_runs);
  EXPECT_EQ(during.context_chunks, warm.context_chunks - second.context_chunks);
  EXPECT_EQ(during.span_chunks, warm.span_chunks - second.span_chunks);

  EXPECT_EQ(first.digest, fresh.digest);
  EXPECT_EQ(second.digest, fresh.digest);
  EXPECT_TRUE(first.json == fresh.json) << "trace JSON bytes differ on the first run";
  EXPECT_TRUE(second.json == fresh.json) << "trace JSON bytes differ on recycled memory";
  EXPECT_TRUE(first.spans_csv == fresh.spans_csv) << "spans CSV bytes differ on the first run";
  EXPECT_TRUE(second.spans_csv == fresh.spans_csv) << "spans CSV bytes differ on recycled memory";
}

TEST(TraceRecyclerTest, ReusedContextShowsNoStaleState) {
  std::thread([] {
    const TraceContext* settled_address = nullptr;
    const TraceContext* open_address = nullptr;
    {
      TraceStore store;
      TraceContext* settled = store.open(1, 4, from_seconds(1.0));
      settled->attempts = 3;
      settled->add_span(SpanKind::kService, 1, from_seconds(1.0), from_seconds(2.0));
      TraceContext* open = store.open(2, 5, from_seconds(1.5));  // never settled
      open->add_span(SpanKind::kPoolWait, 0, from_seconds(1.5), from_seconds(1.7));
      open->add_span(SpanKind::kCpuWait, 0, from_seconds(1.7), from_seconds(1.8));
      settled->finalize(from_seconds(2.0), true);
      settled_address = settled;
      open_address = open;
    }
    const TraceStore::ThreadCache cache = TraceStore::thread_cache();
    EXPECT_EQ(cache.context_chunks, 1u);
    EXPECT_EQ(cache.scratch_buffers, 2u);  // the settled trace's and the open one's

    TraceStore store;
    TraceContext* first = store.open(7, 0, from_seconds(9.0));
    TraceContext* second = store.open(8, 1, from_seconds(9.5));
    ASSERT_EQ(first, settled_address) << "the chunk was not recycled";
    ASSERT_EQ(second, open_address);
    for (const TraceContext* context : {first, second}) {
      EXPECT_TRUE(context->spans.empty());
      EXPECT_EQ(context->attempts, 1);
      EXPECT_FALSE(context->finalized);
      EXPECT_FALSE(context->ok);
      EXPECT_EQ(context->finished, 0);
    }
    EXPECT_EQ(first->request_id, 7u);
    EXPECT_EQ(first->servlet, 0);
    EXPECT_EQ(first->started, from_seconds(9.0));
    EXPECT_EQ(second->request_id, 8u);

    // Both recycled buffers start empty: one span in, one span out.
    second->add_span(SpanKind::kBackoff, kClientTier, from_seconds(9.5), from_seconds(9.6));
    ASSERT_EQ(second->spans.size(), 1u);
    EXPECT_EQ(second->spans.begin()->kind, SpanKind::kBackoff);
    second->finalize(from_seconds(10.0), false);
    ASSERT_EQ(second->spans.size(), 1u);
    EXPECT_EQ(second->spans.begin()->start, from_seconds(9.5));
    EXPECT_TRUE(first->spans.empty());
  }).join();
}

// Opens `traces` contexts, `concurrent` at a time, each with `spans` spans
// [s, s + 1), and settles them all.
void fill(TraceStore& store, size_t traces, size_t concurrent, size_t spans) {
  std::vector<TraceContext*> open;
  for (size_t t = 0; t < traces; ++t) {
    TraceContext* context = store.open(t, 0, 0);
    for (size_t s = 0; s < spans; ++s) {
      context->add_span(SpanKind::kService, 0, static_cast<sim::SimTime>(s),
                        static_cast<sim::SimTime>(s + 1));
    }
    open.push_back(context);
    if (open.size() == concurrent || t + 1 == traces) {
      for (TraceContext* c : open) c->finalize(from_seconds(1.0), true);
      open.clear();
    }
  }
}

// The bytes one trace of fill() encodes to, counted without a store (a
// store would stock this thread's recycler).
size_t fill_trace_bytes(size_t spans) {
  std::vector<uint8_t> buffer(spans * codec::kMaxSpanBytes + codec::kSlackBytes);
  uint8_t* end = buffer.data();
  for (size_t s = 0; s < spans; ++s) {
    const auto start = static_cast<sim::SimTime>(s);
    end = codec::encode(end, SpanKind::kService, 0, kNoEdge, s == 0 ? 0 : start - 1, start,
                        start + 1, 0.0);
  }
  return static_cast<size_t>(end - buffer.data());
}

TEST(TraceRecyclerTest, LargerStoreFallsBackToFreshChunksAndTheCacheKeepsItsBound) {
  std::thread([] {
    constexpr size_t kContexts = TraceStore::kContextsPerChunk;
    constexpr size_t kSpans = 16;
    const size_t traces_per_chunk = TraceStore::kSealedBytesPerChunk / fill_trace_bytes(kSpans);
    const auto span_chunks = [traces_per_chunk](size_t traces) {
      return (traces + traces_per_chunk - 1) / traces_per_chunk;
    };
    {
      TraceStore small;
      fill(small, kContexts + 1, 3, kSpans);
      EXPECT_EQ(small.context_chunks(), 2u);
    }
    TraceStore::ThreadCache cache = TraceStore::thread_cache();
    EXPECT_EQ(cache.context_chunks, 2u);
    EXPECT_EQ(cache.span_chunks, span_chunks(kContexts + 1));
    EXPECT_EQ(cache.scratch_buffers, 3u);

    {
      // Larger than the cache: it empties the cache, then allocates.
      TraceStore large;
      fill(large, 3 * kContexts + 1, 5, kSpans);
      EXPECT_EQ(large.context_chunks(), 4u);
      cache = TraceStore::thread_cache();
      EXPECT_EQ(cache.context_chunks, 0u);
      EXPECT_EQ(cache.span_chunks, 0u);
    }
    cache = TraceStore::thread_cache();
    EXPECT_EQ(cache.context_chunks, 4u);
    EXPECT_EQ(cache.span_chunks, span_chunks(3 * kContexts + 1));
    EXPECT_EQ(cache.scratch_buffers, 5u);
    const TraceStore::ThreadCache bound = cache;

    {
      // Smaller stores, two alive at once: the first drains the cache, the
      // second allocates, and both together return more than the largest
      // store ever used. The cache keeps only that much.
      TraceStore a;
      TraceStore b;
      fill(a, 3 * kContexts + 1, 5, kSpans);
      fill(b, kContexts, 2, kSpans);
      EXPECT_EQ(TraceStore::thread_cache().context_chunks, 0u);
    }
    cache = TraceStore::thread_cache();
    EXPECT_EQ(cache.context_chunks, bound.context_chunks);
    EXPECT_EQ(cache.span_chunks, bound.span_chunks);
    EXPECT_EQ(cache.scratch_buffers, bound.scratch_buffers);

    {
      TraceStore tiny;
      fill(tiny, 1, 1, 1);
      cache = TraceStore::thread_cache();
      EXPECT_EQ(cache.context_chunks, bound.context_chunks - 1);
      EXPECT_EQ(cache.span_chunks, bound.span_chunks - 1);
    }
    cache = TraceStore::thread_cache();
    EXPECT_EQ(cache.context_chunks, bound.context_chunks);
    EXPECT_EQ(cache.span_chunks, bound.span_chunks);
    EXPECT_EQ(cache.scratch_buffers, bound.scratch_buffers);
  }).join();
}

TEST(TraceRecyclerTest, StoreDestroyedOnAnotherThreadRecyclesThere) {
  std::unique_ptr<TraceStore> store;
  std::thread([&store] {
    store = std::make_unique<TraceStore>();
    fill(*store, 600, 4, 30);
    TraceContext* open = store->open(600, 0, 0);  // still open when the store dies
    open->add_span(SpanKind::kPoolWait, 0, 0, 5);
  }).join();
  const uint64_t context_chunks = store->context_chunks();
  const uint64_t span_chunks = store->span_chunks();
  ASSERT_EQ(context_chunks, 2u);

  std::thread([&store, context_chunks, span_chunks] {
    store.reset();
    const TraceStore::ThreadCache cache = TraceStore::thread_cache();
    EXPECT_EQ(cache.context_chunks, context_chunks);
    EXPECT_EQ(cache.span_chunks, span_chunks);
    EXPECT_EQ(cache.scratch_buffers, 1u);  // the open trace's; the rest stayed behind

    // A store on this thread runs on the handed-over memory.
    TraceStore next;
    fill(next, 3, 1, 2);
    uint64_t id = 0;
    for (const TraceContext* context : next.contexts()) {
      EXPECT_EQ(context->request_id, id++);
      ASSERT_EQ(context->spans.size(), 2u);
      EXPECT_EQ(std::next(context->spans.begin())->end, 2);
    }
    EXPECT_EQ(TraceStore::thread_cache().context_chunks, context_chunks - 1);
  }).join();
}

}  // namespace
}  // namespace dcm::trace
