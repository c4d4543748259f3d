// Unit tests for the tracing primitives: deterministic head sampling,
// TraceContext finalize semantics, the TraceStore's chunked storage, and
// the latency-attribution fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <compare>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/time.h"
#include "trace/attribution.h"
#include "trace/store.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace dcm::trace {
namespace {

using sim::from_seconds;

// A trace's spans decoded into a vector, for indexed checks.
std::vector<Span> decoded(const SpanList& spans) { return {spans.begin(), spans.end()}; }

TEST(TracerTest, DisabledNeverSamples) {
  Tracer tracer(42, TraceSpec{/*enabled=*/false, /*rate=*/1.0});
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_FALSE(tracer.should_sample(id));
    EXPECT_EQ(tracer.maybe_sample(id, 0, 0), nullptr);
  }
  EXPECT_EQ(tracer.sampled(), 0u);
}

TEST(TracerTest, RateOneSamplesEveryRequest) {
  Tracer tracer(42, TraceSpec{true, 1.0});
  for (uint64_t id = 0; id < 100; ++id) EXPECT_TRUE(tracer.should_sample(id));
}

TEST(TracerTest, RateZeroSamplesNothing) {
  Tracer tracer(42, TraceSpec{true, 0.0});
  for (uint64_t id = 0; id < 100; ++id) EXPECT_FALSE(tracer.should_sample(id));
}

TEST(TracerTest, SamplingIsAPureFunctionOfSeedAndId) {
  Tracer a(7, TraceSpec{true, 0.5});
  Tracer b(7, TraceSpec{true, 0.5});
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(a.should_sample(id), b.should_sample(id)) << "id " << id;
    // Repeated queries on the same tracer answer the same.
    EXPECT_EQ(a.should_sample(id), a.should_sample(id));
  }
}

TEST(TracerTest, SampleFractionTracksRate) {
  Tracer tracer(11, TraceSpec{true, 0.25});
  int hits = 0;
  const int n = 20000;
  for (uint64_t id = 0; id < static_cast<uint64_t>(n); ++id) {
    if (tracer.should_sample(id)) ++hits;
  }
  const double fraction = static_cast<double>(hits) / n;
  EXPECT_NEAR(fraction, 0.25, 0.02);
}

TEST(TracerTest, DifferentSeedsPickDifferentRequests) {
  Tracer a(1, TraceSpec{true, 0.5});
  Tracer b(2, TraceSpec{true, 0.5});
  int differing = 0;
  for (uint64_t id = 0; id < 1000; ++id) {
    if (a.should_sample(id) != b.should_sample(id)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(TracerTest, MaybeSampleRegistersAndKeepsContextsAlive) {
  Tracer tracer(42, TraceSpec{true, 1.0});
  TraceContext* ctx = tracer.maybe_sample(17, /*servlet=*/3, from_seconds(1.0));
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->request_id, 17u);
  EXPECT_EQ(ctx->servlet, 3);
  EXPECT_EQ(ctx->started, from_seconds(1.0));
  EXPECT_EQ(tracer.sampled(), 1u);
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(*tracer.traces().begin(), ctx);
}

TEST(TracerTest, AnnotationsRecordInOrder) {
  Tracer tracer(42, TraceSpec{true, 1.0});
  tracer.annotate(from_seconds(5.0), "set_stp", "app 20");
  tracer.annotate(from_seconds(9.0), "crash", "app-0");
  ASSERT_EQ(tracer.annotations().size(), 2u);
  EXPECT_EQ(tracer.annotations()[0].kind, "set_stp");
  EXPECT_EQ(tracer.annotations()[1].detail, "app-0");
}

TEST(TraceContextTest, FinalizeStopsSpanRecording) {
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  ctx.add_span(SpanKind::kPoolWait, 1, from_seconds(1.0), from_seconds(2.0));
  EXPECT_EQ(ctx.spans.size(), 1u);
  ctx.finalize(from_seconds(3.0), /*success=*/true);
  EXPECT_TRUE(ctx.finalized);
  EXPECT_TRUE(ctx.ok);
  EXPECT_EQ(ctx.finished, from_seconds(3.0));
  // Late responses from settled attempts still try to record — dropped.
  ctx.add_span(SpanKind::kService, 1, from_seconds(3.0), from_seconds(4.0));
  EXPECT_EQ(ctx.spans.size(), 1u);
}

TEST(TraceContextTest, FinalizeIsIdempotent) {
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  ctx.add_span(SpanKind::kService, 0, 0, from_seconds(1.0));
  ctx.finalize(from_seconds(2.0), true);
  ctx.finalize(from_seconds(9.0), false);  // must not overwrite
  EXPECT_EQ(ctx.finished, from_seconds(2.0));
  EXPECT_TRUE(ctx.ok);
  EXPECT_EQ(ctx.spans.size(), 1u);  // sealed once
}

TEST(TraceContextTest, ContextOutsideAStoreRecordsNothing) {
  TraceContext ctx;
  ctx.add_span(SpanKind::kService, 0, 0, from_seconds(1.0));
  EXPECT_TRUE(ctx.spans.empty());
  ctx.finalize(from_seconds(1.0), true);
  EXPECT_TRUE(ctx.finalized);
}

// The span's size is pinned in tests/ntier/record_layout_test.cpp.
TEST(TraceContextTest, SpanKeepsItsFields) {
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  ctx.add_edge_span(SpanKind::kDownstream, 7, 15, from_seconds(1.0), from_seconds(2.5), 0.25);
  ctx.add_span(SpanKind::kBackoff, kClientTier, from_seconds(3.0), from_seconds(4.0));
  ctx.finalize(from_seconds(4.0), true);
  ASSERT_EQ(ctx.spans.size(), 2u);
  const std::vector<Span> spans = decoded(ctx.spans);
  EXPECT_EQ(spans[0].kind, SpanKind::kDownstream);
  EXPECT_EQ(spans[0].tier, 7);
  EXPECT_EQ(spans[0].edge, 15);
  EXPECT_EQ(spans[0].start, from_seconds(1.0));
  EXPECT_EQ(spans[0].end, from_seconds(2.5));
  EXPECT_EQ(spans[0].value, 0.25);
  EXPECT_EQ(spans[1].tier, kClientTier);
  EXPECT_EQ(spans[1].edge, kNoEdge);
}

constexpr sim::SimTime kTimeLimit = sim::SimTime{1} << (Span::kTimeBits - 1);  // 2^47 ns

TEST(TraceContextTest, SpanFieldsHoldTheirWholeRangeThroughSealing) {
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  ctx.add_edge_span(SpanKind::kTimeoutWait, 127, INT16_MAX, -(kTimeLimit - 1), kTimeLimit - 1,
                    -1.5e300);
  ctx.add_edge_span(SpanKind::kThink, kClientTier, kNoEdge, kTimeLimit - 1, -(kTimeLimit - 1));
  ctx.add_edge_span(SpanKind::kDownstream, -128, INT16_MIN, -kTimeLimit, 0, 0.5);
  ctx.finalize(0, true);
  ASSERT_EQ(ctx.spans.size(), 3u);
  const std::vector<Span> spans = decoded(ctx.spans);
  const Span& a = spans[0];
  EXPECT_EQ(a.kind, SpanKind::kTimeoutWait);
  EXPECT_EQ(a.tier, 127);
  EXPECT_EQ(a.edge, INT16_MAX);
  EXPECT_EQ(a.start, -(kTimeLimit - 1));
  EXPECT_EQ(a.end, kTimeLimit - 1);
  EXPECT_EQ(a.value, -1.5e300);
  const Span& b = spans[1];
  EXPECT_EQ(b.kind, SpanKind::kThink);
  EXPECT_EQ(b.tier, kClientTier);
  EXPECT_EQ(b.edge, kNoEdge);
  EXPECT_EQ(b.start, kTimeLimit - 1);
  EXPECT_EQ(b.end, -(kTimeLimit - 1));
  EXPECT_EQ(b.value, 0.0);
  const Span& c = spans[2];
  EXPECT_EQ(c.kind, SpanKind::kDownstream);
  EXPECT_EQ(c.tier, -128);
  EXPECT_EQ(c.edge, INT16_MIN);
  EXPECT_EQ(c.start, -kTimeLimit);
  EXPECT_EQ(c.end, 0);
  EXPECT_EQ(c.value, 0.5);
}

// One value past each field's range aborts instead of truncating.
TEST(TraceContextDeathTest, OutOfRangeSpanFieldsAbort) {
  const auto record = [](int tier, int edge, sim::SimTime start, sim::SimTime end) {
    TraceStore store;
    store.open(1, 0, 0)->add_edge_span(SpanKind::kDownstream, tier, edge, start, end);
  };
  EXPECT_DEATH(record(0, kNoEdge, kTimeLimit, 0), "DCM_CHECK failed");
  EXPECT_DEATH(record(0, kNoEdge, -kTimeLimit - 1, 0), "DCM_CHECK failed");
  EXPECT_DEATH(record(0, kNoEdge, 0, kTimeLimit), "DCM_CHECK failed");
  EXPECT_DEATH(record(0, kNoEdge, 0, -kTimeLimit - 1), "DCM_CHECK failed");
  EXPECT_DEATH(record(128, kNoEdge, 0, 0), "DCM_CHECK failed");
  EXPECT_DEATH(record(-129, kNoEdge, 0, 0), "DCM_CHECK failed");
  EXPECT_DEATH(record(0, INT16_MAX + 1, 0, 0), "DCM_CHECK failed");
  EXPECT_DEATH(record(0, INT16_MIN - 1, 0, 0), "DCM_CHECK failed");
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Every field of `actual` equals `expected`, the value bit for bit.
void expect_same_span(const Span& actual, const Span& expected, size_t index) {
  EXPECT_EQ(actual.kind, expected.kind) << index;
  EXPECT_EQ(actual.tier, expected.tier) << index;
  EXPECT_EQ(actual.edge, expected.edge) << index;
  EXPECT_EQ(actual.start, expected.start) << index;
  EXPECT_EQ(actual.end, expected.end) << index;
  EXPECT_TRUE(same_bits(actual.value, expected.value))
      << index << ": " << actual.value << " vs " << expected.value;
}

void expect_spans(const SpanList& spans, const std::vector<Span>& expected) {
  ASSERT_EQ(spans.size(), expected.size());
  size_t i = 0;
  for (const Span& span : spans) {
    ASSERT_LT(i, expected.size());
    expect_same_span(span, expected[i], i);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
}

void record(TraceContext& ctx, const Span& span) {
  ctx.add_edge_span(span.kind, span.tier, span.edge, span.start, span.end, span.value);
}

// Each value class, its borders and the doubles that must keep their bits.
std::vector<double> edge_values() {
  return {0.0,
          -0.0,
          1.0,
          4294967295.0,  // 2^32 - 1: the largest four-byte value
          4294967296.0,  // 2^32: raw
          0.5,
          -1.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::bit_cast<double>(uint64_t{0x7ff800000000beef}),  // NaN with a payload
          std::bit_cast<double>(uint64_t{0xfff4000000000001}),  // signalling, negative
          std::numeric_limits<double>::denorm_min()};
}

TEST(SpanCodecTest, EveryFieldRoundTripsAtItsLimitsOpenAndSealed) {
  const std::vector<sim::SimTime> times = {-(kTimeLimit - 1), kTimeLimit - 1, -kTimeLimit, 0,
                                           1};
  const std::vector<int> tiers = {-128, kClientTier, 0, 127};
  const std::vector<int> edges = {kNoEdge, INT16_MIN, INT16_MAX, 0};
  const std::vector<double> values = edge_values();
  // Deltas from a `started` far from every span, then between neighbours.
  for (const sim::SimTime started : {sim::SimTime{0}, -kTimeLimit, INT64_MAX}) {
    TraceStore store;
    TraceContext& ctx = *store.open(1, 0, started);
    std::vector<Span> expected;
    size_t i = 0;
    for (const sim::SimTime start : times) {
      for (const sim::SimTime end : times) {
        for (const int tier : tiers) {
          for (const int edge : edges) {
            Span span;
            span.kind = static_cast<SpanKind>(i % 9);
            span.tier = tier;
            span.edge = edge;
            span.start = start;
            span.end = end;
            span.value = values[i % values.size()];
            record(ctx, span);
            expected.push_back(span);
            ++i;
          }
        }
      }
    }
    for (const double value : values) {  // every value beside every kind
      for (int kind = 0; kind < 9; ++kind) {
        Span span;
        span.kind = static_cast<SpanKind>(kind);
        span.value = value;
        record(ctx, span);
        expected.push_back(span);
      }
    }
    expect_spans(ctx.spans, expected);  // the open trace's view
    ctx.finalize(0, true);
    expect_spans(ctx.spans, expected);
  }
}

TEST(SpanCodecTest, EncodedSizesFollowTheLayout) {
  // header + tier + lengths, then the edge, the two times and the value.
  const auto bytes = [](int edge, sim::SimTime start, sim::SimTime end, double value) {
    TraceStore store;
    TraceContext& ctx = *store.open(1, 0, 1000);
    ctx.add_edge_span(SpanKind::kService, 0, edge, start, end, value);
    return ctx.spans.size_bytes();
  };
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000, 0.0), 3u);  // both times zero, +0.0
  EXPECT_EQ(bytes(3, 1000, 1000, 0.0), 5u);
  EXPECT_EQ(bytes(kNoEdge, 1001, 1001, 0.0), 4u);            // start +1 -> zigzag 2
  EXPECT_EQ(bytes(kNoEdge, 936, 1000, 0.0), 5u);             // start -64 -> 127, length 64 -> 128
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000 + (1 << 23), 0.0), 7u);  // zigzag 2^24: 4 bytes
  EXPECT_EQ(bytes(kNoEdge, -1000, kTimeLimit - 1, 0.0), 13u);  // 2 bytes, then 7 round up to 8
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000, 2.0), 7u);
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000, 4294967295.0), 7u);
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000, 4294967296.0), 11u);
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000, -0.0), 11u);
  EXPECT_EQ(bytes(kNoEdge, 1000, 1000, 0.5), 11u);
  EXPECT_EQ(bytes(INT16_MIN, -kTimeLimit, kTimeLimit - 1, 0.5), codec::kMaxSpanBytes);
}

// One random span: times spread over every length code, all kinds, tiers,
// edges and value classes.
Span random_span(Rng& rng, sim::SimTime previous) {
  Span span;
  span.kind = static_cast<SpanKind>(rng.uniform_int(0, 8));
  span.tier = static_cast<int>(rng.uniform_int(0, 9) == 0 ? rng.uniform_int(-128, 127)
                                                          : rng.uniform_int(-1, 3));
  span.edge = static_cast<int>(rng.uniform_int(0, 2) == 0 ? kNoEdge
                                                          : rng.uniform_int(INT16_MIN, INT16_MAX));
  const int64_t reach = int64_t{1} << rng.uniform_int(0, 47);
  const auto clamp = [](int64_t t) { return std::clamp(t, -kTimeLimit, kTimeLimit - 1); };
  span.start = rng.uniform_int(0, 19) == 0 ? rng.uniform_int(-kTimeLimit, kTimeLimit - 1)
                                            : clamp(previous + rng.uniform_int(-reach, reach));
  span.end = rng.uniform_int(0, 3) == 0 ? span.start
                                        : clamp(span.start + rng.uniform_int(-reach / 8, reach));
  const std::vector<double> values = edge_values();
  switch (rng.uniform_int(0, 4)) {
    case 0:
      span.value = 0.0;
      break;
    case 1:
      span.value = static_cast<double>(rng.uniform_int(1, 4294967295));
      break;
    case 2:
      span.value = std::bit_cast<double>(rng.next_u64());
      break;
    case 3:
      span.value = rng.next_double();
      break;
    default:
      span.value = values[static_cast<size_t>(rng.uniform_int(0, 11))];
      break;
  }
  return span;
}

// About 100k random spans over interleaved traces, some longer than a
// chunk, against a plain vector of spans per trace. The second round runs
// on the first round's recycled chunks and buffers, stale bytes and all.
TEST(SpanCodecTest, RandomTracesMatchAPlainSpanVector) {
  Rng rng(20261019);
  for (int round = 0; round < 2; ++round) {
    TraceStore store;
    std::vector<std::vector<Span>> reference;
    std::vector<TraceContext*> contexts;
    std::vector<size_t> open;  // indices of open traces
    size_t recorded = 0;
    size_t long_traces = 0;
    while (recorded < 50'000) {
      if (open.size() < 8 && (open.empty() || rng.uniform_int(0, 9) == 0)) {
        const sim::SimTime started = rng.uniform_int(-kTimeLimit, kTimeLimit - 1);
        contexts.push_back(store.open(contexts.size(), 0, started));
        reference.emplace_back();
        open.push_back(contexts.size() - 1);
      }
      const auto pick = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(open.size()) - 1));
      const size_t trace = open[pick];
      // A trace picked for a long run outgrows a chunk (kMaxSpanBytes each).
      const int64_t burst = rng.uniform_int(0, 399) == 0 ? 5000 : rng.uniform_int(1, 20);
      for (int64_t b = 0; b < burst; ++b) {
        std::vector<Span>& spans = reference[trace];
        const Span span = random_span(rng, spans.empty() ? contexts[trace]->started
                                                         : spans.back().start);
        record(*contexts[trace], span);
        spans.push_back(span);
        ++recorded;
      }
      if (rng.uniform_int(0, 9) == 0) expect_spans(contexts[trace]->spans, reference[trace]);
      if (rng.uniform_int(0, 2) == 0) {
        if (contexts[trace]->spans.size_bytes() > TraceStore::kSealedBytesPerChunk) ++long_traces;
        contexts[trace]->finalize(0, true);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    EXPECT_GT(long_traces, 0u);
    EXPECT_GT(store.span_chunks(), 1u);
    for (size_t t = 0; t < contexts.size(); ++t) {
      EXPECT_EQ(contexts[t]->finalized, std::find(open.begin(), open.end(), t) == open.end());
      expect_spans(contexts[t]->spans, reference[t]);
    }
  }
}

// An open trace's view decodes its scratch buffer, whose room after the
// last span varies with every span recorded: checking the view after each
// one reads the codec's slack at every fill level the buffer goes through.
TEST(SpanCodecTest, OpenTraceViewDecodesAfterEverySpan) {
  Rng rng(7);
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  std::vector<Span> expected;
  for (int i = 0; i < 1500; ++i) {
    const Span span = random_span(rng, expected.empty() ? ctx.started : expected.back().start);
    record(ctx, span);
    expected.push_back(span);
    ASSERT_EQ(ctx.spans.size(), expected.size());
    Span last;
    for (const Span& decoded_span : ctx.spans) last = decoded_span;
    expect_same_span(last, span, expected.size() - 1);
  }
  expect_spans(ctx.spans, expected);
}

TEST(TraceStoreTest, LateSpanAfterFinalizeLeavesTheRecycledScratchAlone) {
  TraceStore store;
  TraceContext& first = *store.open(1, 0, 0);
  first.add_span(SpanKind::kPoolWait, 0, 0, from_seconds(1.0));
  first.finalize(from_seconds(2.0), true);
  // The next trace draws the scratch buffer `first` just returned.
  TraceContext& second = *store.open(2, 0, from_seconds(2.0));
  second.add_span(SpanKind::kService, 1, from_seconds(2.0), from_seconds(3.0));

  first.add_span(SpanKind::kCpuWait, 0, from_seconds(2.0), from_seconds(5.0));  // late
  ASSERT_EQ(first.spans.size(), 1u);
  EXPECT_EQ(first.spans.begin()->kind, SpanKind::kPoolWait);
  ASSERT_EQ(second.spans.size(), 1u);
  EXPECT_EQ(second.spans.begin()->kind, SpanKind::kService);
  second.finalize(from_seconds(3.0), true);
  ASSERT_EQ(second.spans.size(), 1u);
  EXPECT_EQ(second.spans.begin()->kind, SpanKind::kService);
  EXPECT_EQ(first.spans.begin()->kind, SpanKind::kPoolWait);  // sealed copy untouched
}

TEST(TraceStoreTest, ContextsKeepStableAddressesAndSamplingOrderAcrossChunks) {
  TraceStore store;
  const size_t n = 2 * TraceStore::kContextsPerChunk + 3;
  std::vector<TraceContext*> opened;
  for (size_t i = 0; i < n; ++i) {
    TraceContext* ctx = store.open(100 + i, static_cast<int>(i % 5), 0);
    ctx->add_span(SpanKind::kService, 0, 0, from_seconds(1.0), static_cast<double>(i));
    // Interleave: finalize every other trace right away, leave the rest open.
    if (i % 2 == 0) ctx->finalize(from_seconds(1.0), true);
    opened.push_back(ctx);
  }
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.context_chunks(), 3u);
  size_t i = 0;
  for (TraceContext* ctx : store.contexts()) {
    ASSERT_LT(i, n);
    EXPECT_EQ(ctx, opened[i]);
    EXPECT_EQ(ctx->request_id, 100 + i);
    EXPECT_EQ(ctx->finalized, i % 2 == 0);
    ASSERT_EQ(ctx->spans.size(), 1u);  // open traces view their scratch
    EXPECT_EQ(ctx->spans.begin()->value, static_cast<double>(i));
    ++i;
  }
  EXPECT_EQ(i, n);
}

// Records kService spans [s, s + 1) at tier 0, valued `value`, until the
// trace's stream holds at least `bytes`.
void record_until(TraceContext& ctx, size_t bytes, double value) {
  for (sim::SimTime s = 0; ctx.spans.size_bytes() < bytes; ++s) {
    ctx.add_span(SpanKind::kService, 0, s, s + 1, value);
  }
}

TEST(TraceStoreTest, SealedSpansFillChunksWithoutSplittingATrace) {
  TraceStore store;
  EXPECT_EQ(store.span_chunks(), 0u);
  // Three traces of 40 % of a chunk each: the third does not fit beside the
  // first two, so it opens a second chunk rather than straddling.
  const size_t per_trace = TraceStore::kSealedBytesPerChunk * 2 / 5;
  std::vector<TraceContext*> traces;
  for (uint64_t id = 0; id < 3; ++id) {
    TraceContext* ctx = store.open(id, 0, 0);
    record_until(*ctx, per_trace, static_cast<double>(id));
    ctx->finalize(from_seconds(1.0), true);
    traces.push_back(ctx);
    EXPECT_EQ(store.span_chunks(), id < 2 ? 1u : 2u);
  }
  for (uint64_t id = 0; id < 3; ++id) {
    sim::SimTime s = 0;
    for (const Span& span : traces[id]->spans) {
      EXPECT_EQ(span.start, s++);
      EXPECT_EQ(span.value, static_cast<double>(id));
    }
    EXPECT_EQ(static_cast<size_t>(s), traces[id]->spans.size());
  }
  EXPECT_EQ(traces[1]->spans.data(), traces[0]->spans.data() + traces[0]->spans.size_bytes());
  // A trace with no spans seals nothing.
  TraceContext* empty = store.open(9, 0, 0);
  empty->finalize(from_seconds(1.0), false);
  EXPECT_TRUE(empty->spans.empty());
  EXPECT_EQ(store.span_chunks(), 2u);
}

// A stream that fills a chunk to its sealing limit decodes: its last span
// is read through the chunk's slack (a read past it leaves the chunk's
// allocation, which ASan reports).
TEST(TraceStoreTest, StreamEndingAtTheSealingLimitDecodes) {
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  // Four-byte spans (start + 1) until the rest divides into three-byte ones
  // (start unchanged, zero width): the shortest span, read with the most
  // overhang.
  const size_t limit = TraceStore::kSealedBytesPerChunk;
  const size_t four_byte_spans = limit % 3;
  sim::SimTime start = 0;
  for (size_t i = 0; i < four_byte_spans; ++i, ++start) {
    ctx.add_span(SpanKind::kLbPick, 0, start + 1, start + 1);
  }
  for (size_t i = 0; i < (limit - 4 * four_byte_spans) / 3; ++i) {
    ctx.add_span(SpanKind::kLbPick, 0, start, start);
  }
  ASSERT_EQ(ctx.spans.size_bytes(), limit);
  ctx.finalize(1, true);
  EXPECT_EQ(store.span_chunks(), 1u);
  size_t count = 0;
  for (const Span& span : ctx.spans) {
    EXPECT_EQ(span.start, span.end);
    ++count;
  }
  EXPECT_EQ(count, ctx.spans.size());
  Span last;
  for (const Span& span : ctx.spans) last = span;
  EXPECT_EQ(last.start, start);
  EXPECT_EQ(last.kind, SpanKind::kLbPick);
}

TEST(TraceStoreTest, TraceLongerThanAChunkKeepsItsScratchAsStorage) {
  TraceStore store;
  TraceContext* big = store.open(1, 0, 0);
  record_until(*big, TraceStore::kSealedBytesPerChunk + 1, 0.0);
  big->finalize(from_seconds(1.0), true);
  EXPECT_EQ(store.span_chunks(), 0u);
  // The next trace gets a fresh buffer: the retired one must stay intact.
  TraceContext* next = store.open(2, 0, 0);
  next->add_span(SpanKind::kPoolWait, 0, 0, 1);
  next->finalize(from_seconds(1.0), true);
  sim::SimTime s = 0;
  for (const Span& span : big->spans) {
    ASSERT_EQ(span.start, s++);
    ASSERT_EQ(span.kind, SpanKind::kService);
  }
  EXPECT_EQ(static_cast<size_t>(s), big->spans.size());
  ASSERT_EQ(next->spans.size(), 1u);
  EXPECT_EQ(next->spans.begin()->kind, SpanKind::kPoolWait);
}

TEST(SpanKindTest, NamesAreStable) {
  EXPECT_STREQ(span_kind_name(SpanKind::kThink), "think");
  EXPECT_STREQ(span_kind_name(SpanKind::kLbPick), "lb_pick");
  EXPECT_STREQ(span_kind_name(SpanKind::kPoolWait), "pool_wait");
  EXPECT_STREQ(span_kind_name(SpanKind::kConnWait), "conn_wait");
  EXPECT_STREQ(span_kind_name(SpanKind::kService), "service");
  EXPECT_STREQ(span_kind_name(SpanKind::kCpuWait), "cpu_wait");
  EXPECT_STREQ(span_kind_name(SpanKind::kDownstream), "downstream");
  EXPECT_STREQ(span_kind_name(SpanKind::kBackoff), "backoff");
  EXPECT_STREQ(span_kind_name(SpanKind::kTimeoutWait), "timeout_wait");
}

TEST(SpanKindTest, LeafCausesExcludeContainersAndMarkers) {
  EXPECT_TRUE(is_leaf_cause(SpanKind::kPoolWait));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kConnWait));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kService));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kCpuWait));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kBackoff));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kTimeoutWait));
  EXPECT_FALSE(is_leaf_cause(SpanKind::kThink));      // precedes the request
  EXPECT_FALSE(is_leaf_cause(SpanKind::kLbPick));     // zero-width marker
  EXPECT_FALSE(is_leaf_cause(SpanKind::kDownstream));  // container
}

// One trace: 1 s total, 0.6 s app-tier pool wait, 0.4 s app-tier service.
// kDownstream / kLbPick / kThink spans must not contribute rows.
TEST(AttributionTest, FoldsLeafCausesIntoShares) {
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, from_seconds(10.0));
  ctx.add_span(SpanKind::kThink, kClientTier, from_seconds(8.0), from_seconds(10.0));
  ctx.add_span(SpanKind::kLbPick, 0, from_seconds(10.0), from_seconds(10.0), 2.0);
  ctx.add_span(SpanKind::kDownstream, 0, from_seconds(10.0), from_seconds(11.0));
  ctx.add_span(SpanKind::kPoolWait, 1, from_seconds(10.0), from_seconds(10.6));
  ctx.add_span(SpanKind::kService, 1, from_seconds(10.6), from_seconds(11.0), 0.4);
  ctx.finalize(from_seconds(11.0), true);

  LatencyAttribution attribution;
  attribution.add(ctx);
  EXPECT_EQ(attribution.trace_count(), 1u);

  const auto rows = attribution.rows();
  ASSERT_EQ(rows.size(), 2u);  // only the two leaf causes
  // Sorted by (tier, cause): pool_wait before service at tier 1.
  EXPECT_EQ(rows[0].tier, 1);
  EXPECT_EQ(rows[0].cause, SpanKind::kPoolWait);
  EXPECT_EQ(rows[0].traces, 1u);
  EXPECT_NEAR(rows[0].total_seconds, 0.6, 1e-9);
  EXPECT_NEAR(rows[0].mean_seconds, 0.6, 1e-9);
  EXPECT_NEAR(rows[0].p50_share, 0.6, 1e-9);
  EXPECT_NEAR(rows[0].p99_share, 0.6, 1e-9);
  EXPECT_EQ(rows[1].cause, SpanKind::kService);
  EXPECT_NEAR(rows[1].p50_share, 0.4, 1e-9);
}

TEST(AttributionTest, IgnoresUnfinalizedAndFailedTraces) {
  LatencyAttribution attribution;
  TraceStore store;

  TraceContext& open = *store.open(1, 0, 0);  // never settled
  open.add_span(SpanKind::kService, 0, 0, from_seconds(1.0));
  attribution.add(open);

  TraceContext& failed = *store.open(2, 0, 0);
  failed.add_span(SpanKind::kService, 0, 0, from_seconds(1.0));
  failed.finalize(from_seconds(1.0), /*success=*/false);
  attribution.add(failed);

  EXPECT_EQ(attribution.trace_count(), 0u);
  EXPECT_TRUE(attribution.rows().empty());
}

TEST(AttributionTest, NearestRankTailPicksTheWorstTrace) {
  LatencyAttribution attribution;
  TraceStore store;
  // 9 traces with a 10% pool-wait share, one with a 90% share.
  for (int i = 0; i < 10; ++i) {
    const double wait = (i == 9) ? 0.9 : 0.1;
    TraceContext& ctx = *store.open(static_cast<uint64_t>(i), 0, 0);
    ctx.add_span(SpanKind::kPoolWait, 0, 0, from_seconds(wait));
    ctx.add_span(SpanKind::kService, 0, from_seconds(wait), from_seconds(1.0));
    ctx.finalize(from_seconds(1.0), true);
    attribution.add(ctx);
  }
  const auto rows = attribution.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].cause, SpanKind::kPoolWait);
  EXPECT_NEAR(rows[0].p50_share, 0.1, 1e-9);
  EXPECT_NEAR(rows[0].p99_share, 0.9, 1e-9);
}

// Nearest-rank index into a sort ascending in IEEE total order (-0 before
// +0): the reference the selection must reproduce bit for bit.
double sorted_nearest_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end(),
            [](double a, double b) { return std::strong_order(a, b) < 0; });
  const double rank = q * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;
  index = std::clamp<size_t>(index, 1, values.size());
  return values[index - 1];
}

TEST(AttributionTest, PercentilesEqualAFullSortAtEverySampleCount) {
  // Shares with many ties and a scrambled arrival order, at sample counts
  // that put the three ranks on, beside and between each other.
  for (const size_t n : {1u, 2u, 3u, 19u, 20u, 21u, 99u, 100u, 101u, 257u}) {
    LatencyAttribution attribution;
    TraceStore store;
    std::vector<double> pool_shares;
    std::vector<double> edge_shares;
    for (size_t i = 0; i < n; ++i) {
      const int64_t wait_ms = static_cast<int64_t>((i * 37 + 11) % 23) + 1;
      const int64_t call_ms = static_cast<int64_t>((i * 53 + 5) % 31) + 1;
      TraceContext& ctx = *store.open(i, 0, 0);
      ctx.add_span(SpanKind::kPoolWait, 0, 0, from_seconds(wait_ms / 1000.0));
      ctx.add_edge_span(SpanKind::kDownstream, 0, 2, 0, from_seconds(call_ms / 1000.0));
      ctx.finalize(from_seconds(0.1), true);
      attribution.add(ctx);
      pool_shares.push_back(sim::to_seconds(from_seconds(wait_ms / 1000.0)) /
                            sim::to_seconds(from_seconds(0.1)));
      edge_shares.push_back(sim::to_seconds(from_seconds(call_ms / 1000.0)) /
                            sim::to_seconds(from_seconds(0.1)));
    }
    const auto rows = attribution.rows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].p50_share, sorted_nearest_rank(pool_shares, 0.50)) << n;
    EXPECT_EQ(rows[0].p95_share, sorted_nearest_rank(pool_shares, 0.95)) << n;
    EXPECT_EQ(rows[0].p99_share, sorted_nearest_rank(pool_shares, 0.99)) << n;
    const auto edges = attribution.edge_rows();
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].edge, 2);
    EXPECT_EQ(edges[0].p50_share, sorted_nearest_rank(edge_shares, 0.50)) << n;
    EXPECT_EQ(edges[0].p95_share, sorted_nearest_rank(edge_shares, 0.95)) << n;
    EXPECT_EQ(edges[0].p99_share, sorted_nearest_rank(edge_shares, 0.99)) << n;
  }
}

// One draw for the differential test below: heavy duplicates, a mix of
// +0, -0 and a few signed values, or a continuum.
double draw_share(Rng& rng, int kind) {
  switch (kind) {
    case 0:
      return static_cast<double>(rng.uniform_int(0, 4)) * 0.125;
    case 1: {
      const int64_t pick = rng.uniform_int(0, 5);
      if (pick <= 1) return 0.0;
      if (pick <= 3) return -0.0;
      return pick == 4 ? 0.5 : -0.25;
    }
    default:
      return rng.next_double();
  }
}

void expect_selection_matches_sort(const std::vector<double>& values,
                                   std::vector<int64_t>& keys) {
  const SharePercentiles p = nearest_rank_percentiles(values, keys);
  EXPECT_TRUE(same_bits(p.p50, sorted_nearest_rank(values, 0.50))) << values.size();
  EXPECT_TRUE(same_bits(p.p95, sorted_nearest_rank(values, 0.95))) << values.size();
  EXPECT_TRUE(same_bits(p.p99, sorted_nearest_rank(values, 0.99))) << values.size();
}

TEST(AttributionTest, PercentileSelectionMatchesSortThenIndexBitForBit) {
  Rng rng(20240611);
  std::vector<int64_t> keys;
  std::vector<double> values;
  for (int kind = 0; kind < 3; ++kind) {
    for (size_t n = 1; n <= 512; ++n) {
      values.clear();
      for (size_t i = 0; i < n; ++i) values.push_back(draw_share(rng, kind));
      expect_selection_matches_sort(values, keys);
    }
    for (int round = 0; round < 8; ++round) {
      const auto n = static_cast<size_t>(rng.uniform_int(513, 100'000));
      values.clear();
      for (size_t i = 0; i < n; ++i) values.push_back(draw_share(rng, kind));
      expect_selection_matches_sort(values, keys);
    }
  }
  values.clear();
  EXPECT_TRUE(same_bits(nearest_rank_percentiles(values, keys).p99, 0.0));
}

TEST(AttributionTest, RowsFollowTierThenKeyOrderWhateverTheSpanOrder) {
  // Keys first seen in reverse order still come out in (tier, key) order,
  // client tier first; a key repeated within one trace sums before it folds.
  LatencyAttribution attribution;
  TraceStore store;
  TraceContext& ctx = *store.open(1, 0, 0);
  ctx.add_span(SpanKind::kService, 2, 0, from_seconds(0.1));
  ctx.add_edge_span(SpanKind::kDownstream, 1, 3, 0, from_seconds(0.2));
  ctx.add_span(SpanKind::kPoolWait, 2, 0, from_seconds(0.1));
  ctx.add_edge_span(SpanKind::kDownstream, 0, 0, 0, from_seconds(0.4));
  ctx.add_span(SpanKind::kService, 2, 0, from_seconds(0.1));
  ctx.add_span(SpanKind::kBackoff, kClientTier, 0, from_seconds(0.2));
  ctx.finalize(from_seconds(1.0), true);
  attribution.add(ctx);

  const auto rows = attribution.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].tier, kClientTier);
  EXPECT_EQ(rows[0].cause, SpanKind::kBackoff);
  EXPECT_EQ(rows[1].tier, 2);
  EXPECT_EQ(rows[1].cause, SpanKind::kPoolWait);
  EXPECT_EQ(rows[2].cause, SpanKind::kService);
  EXPECT_EQ(rows[2].traces, 1u);
  EXPECT_NEAR(rows[2].total_seconds, 0.2, 1e-12);
  const auto edges = attribution.edge_rows();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].tier, 0);
  EXPECT_EQ(edges[0].edge, 0);
  EXPECT_EQ(edges[1].tier, 1);
  EXPECT_EQ(edges[1].edge, 3);
}

TEST(AttributionTest, ReportOverlaysAnnotationsOntoTraces) {
  Tracer tracer(3, TraceSpec{true, 1.0});
  TraceContext* ctx = tracer.maybe_sample(1, 0, from_seconds(10.0));
  ASSERT_NE(ctx, nullptr);
  ctx->add_span(SpanKind::kService, 0, from_seconds(10.0), from_seconds(12.0));
  ctx->finalize(from_seconds(12.0), true);
  tracer.annotate(from_seconds(5.0), "set_stp", "before the trace");
  tracer.annotate(from_seconds(11.0), "scale_out", "inside the trace");
  tracer.annotate(from_seconds(20.0), "crash", "after the trace");

  auto report = build_report(tracer);
  EXPECT_EQ(report->sampled, 1u);
  EXPECT_EQ(report->finalized, 1u);
  EXPECT_EQ(report->completed, 1u);
  ASSERT_EQ(report->traces.size(), 1u);
  EXPECT_EQ(report->annotations.size(), 3u);

  const auto overlapping = annotations_overlapping(*report, *report->traces[0]);
  ASSERT_EQ(overlapping.size(), 1u);
  EXPECT_EQ(overlapping[0].kind, "scale_out");
}

TEST(AttributionTest, ReportCountsUnfinishedTracesAsSampledOnly) {
  Tracer tracer(3, TraceSpec{true, 1.0});
  auto* done = tracer.maybe_sample(1, 0, 0);
  done->finalize(from_seconds(1.0), true);
  auto* failed = tracer.maybe_sample(2, 0, 0);
  failed->finalize(from_seconds(1.0), false);
  tracer.maybe_sample(3, 0, 0);  // still in flight when the run ends

  auto report = build_report(tracer);
  EXPECT_EQ(report->sampled, 3u);
  EXPECT_EQ(report->finalized, 2u);
  EXPECT_EQ(report->completed, 1u);
  EXPECT_EQ(report->traces.size(), 2u);  // finalized only
}

TEST(AttributionTest, ReportOutlivesItsTracer) {
  std::shared_ptr<const TraceReport> report;
  {
    Tracer tracer(3, TraceSpec{true, 1.0});
    TraceContext* ctx = tracer.maybe_sample(1, 0, 0);
    ctx->add_span(SpanKind::kService, 0, 0, from_seconds(1.0), 0.5);
    ctx->finalize(from_seconds(1.0), true);
    report = build_report(tracer);
  }
  ASSERT_EQ(report->traces.size(), 1u);
  ASSERT_EQ(report->traces[0]->spans.size(), 1u);
  EXPECT_EQ(report->traces[0]->spans.begin()->value, 0.5);
  EXPECT_EQ(report->store->size(), 1u);
}

}  // namespace
}  // namespace dcm::trace
