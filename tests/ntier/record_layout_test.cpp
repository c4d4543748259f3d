// Layout pins for the records every event, CPU job, queued visit and traced
// request carries. A queued visit holds one visit-slab slot plus one
// worker-pool waiter, and a traced request one context plus its spans, so
// these sizes set the memory a backlog or a trace costs; growing any of them
// is a deliberate decision, not an accident of field order.
#include <gtest/gtest.h>

#include "ntier/server.h"
#include "ntier/slot_pool.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/slab.h"
#include "trace/store.h"
#include "trace/trace.h"

namespace dcm {
namespace {

// The callable: one ops pointer plus a three-word inline buffer.
static_assert(sizeof(sim::EventFn) == 32);
static_assert(sim::EventFn::kInlineCapacity == 24);
static_assert(sizeof(sim::EventHandle) == 16);

// Slab slots: the value plus a one-word header (generation, free link).
static_assert(sim::Slab<uint64_t>::slot_bytes() == sizeof(uint64_t) + 8);
static_assert(sim::Slab<sim::EventFn>::slot_bytes() == 40);  // events, CPU completions
static_assert(sim::Engine::periodic_slot_bytes() <= 64);

// The per-visit records.
static_assert(ntier::SlotPool::waiter_bytes() <= 40);
static_assert(ntier::Server::visit_slot_bytes() <= 104);
static_assert(ntier::Server::call_slot_bytes() <= 64);
static_assert(ntier::Server::visit_slot_bytes() + ntier::SlotPool::waiter_bytes() <= 144);

// The per-trace records: the context every sampled request holds, and the
// span byte stream's bounds. A span is not a stored record: it is encoded
// into at most 29 bytes, and a span chunk holds 48 KiB of those streams.
static_assert(sizeof(trace::TraceContext) == 88);
static_assert(trace::codec::kMaxSpanBytes == 29);
static_assert(trace::codec::kSlackBytes == 8);
static_assert(trace::TraceStore::span_chunk_bytes() == 48 * 1024 + 16);  // 48 KiB + header
static_assert(trace::TraceStore::context_chunk_bytes() ==
              trace::TraceStore::kContextsPerChunk * 88 + 8);  // 44 KiB + link

TEST(RecordLayoutTest, QueuedVisitCostsAtMost144Bytes) {
  // The static_asserts above are the test; this records the figures.
  RecordProperty("visit_slot_bytes", static_cast<int>(ntier::Server::visit_slot_bytes()));
  RecordProperty("waiter_bytes", static_cast<int>(ntier::SlotPool::waiter_bytes()));
  RecordProperty("call_slot_bytes", static_cast<int>(ntier::Server::call_slot_bytes()));
  EXPECT_LE(ntier::Server::visit_slot_bytes() + ntier::SlotPool::waiter_bytes(), 144u);
}

}  // namespace
}  // namespace dcm
