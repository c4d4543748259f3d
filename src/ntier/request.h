// Request-flow records.
//
// One RequestContext describes a whole HTTP request's journey through the
// tiers: how much CPU demand it puts on each tier and how many sub-requests
// each tier issues downstream (the paper's visit ratios — e.g. one HTTP
// request → 1 AJP call to Tomcat → 2 queries to MySQL).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/inline_vec.h"
#include "sim/arena.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace dcm::ntier {

/// Compile-time bounds for the inline per-request arrays below, sized for
/// service-graph topologies rather than the old linear chain. A graph may
/// hold kMaxGraphNodes tiers and kMaxGraphEdges typed call edges; any single
/// node may fan out to at most kMaxFanOut downstream edges. The deepest
/// registered topology is a 10-node chain regression case; 12/16 leave
/// headroom without bloating the per-request footprint.
inline constexpr size_t kMaxGraphNodes = 12;
inline constexpr size_t kMaxGraphEdges = 16;
inline constexpr size_t kMaxFanOut = 6;
static_assert(kMaxFanOut <= kMaxGraphEdges);

struct RequestContext {
  uint64_t id = 0;
  int servlet = -1;            // index into the servlet catalog (-1 = generic)
  sim::SimTime created = 0;

  /// demand_scale[n] multiplies node n's base CPU demand for this request.
  /// Inline (no heap) — a request is one flat allocation.
  InlineVec<double, kMaxGraphNodes> demand_scale;
  /// downstream_calls[e] = number of sub-requests issued along graph edge e.
  /// Chains declare their edges in depth order, so for them edge id == the
  /// issuing tier's depth and this keeps its historical meaning.
  InlineVec<int, kMaxGraphEdges> downstream_calls;

  /// Null unless this request was head-sampled by the run's Tracer. Every
  /// instrumentation hook is gated on this pointer — the untraced hot path
  /// pays exactly one branch. Non-owning: the context lives in the run's
  /// TraceStore, which outlives every request of the run.
  trace::TraceContext* trace = nullptr;
};

using RequestPtr = std::shared_ptr<RequestContext>;

/// Allocates a RequestContext (object + shared_ptr control block fused) from
/// `arena` when one is supplied, else from the global heap. Ownership and
/// lifetime semantics are exactly std::shared_ptr either way; the arena
/// variant recycles freed blocks so steady state never touches the global
/// allocator. The arena must outlive every RequestPtr it backs — use the
/// owning engine's arena (destroyed after the event queue).
inline RequestPtr make_request_context(sim::Arena* arena) {
  if (arena == nullptr) return std::make_shared<RequestContext>();
  return std::allocate_shared<RequestContext>(sim::ArenaAllocator<RequestContext>(arena));
}

/// Completion callback: ok=false means the request was rejected (accept
/// queue overflow) somewhere along the chain.
using DoneFn = std::function<void(bool ok)>;

}  // namespace dcm::ntier
