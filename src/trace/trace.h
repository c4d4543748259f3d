// Request-level tracing: typed spans on sampled requests.
//
// A sampled request carries one TraceContext for its whole journey —
// client issue through every tier visit, retries included — and each
// instrumentation hook appends a typed Span. The contract that keeps the
// simulation digest bit-identical whether tracing is on or off:
//
//   * recording only appends to this side structure — it never schedules
//     events, draws from an Rng stream, or touches simulation state;
//   * the untraced fast path is a single null-pointer check (requests that
//     were not sampled carry a null TraceContext*);
//   * sampling is a pure hash of (trace seed, request id), so enabling
//     tracing at any rate consumes nothing from any random stream.
//
// Span times are SimTime (ns). `tier` is the tier depth the span occurred
// at; kClientTier marks client-side spans (think, client backoff, client
// deadline waits).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "sim/time.h"

namespace dcm::trace {

/// Client-side spans carry this instead of a tier depth.
inline constexpr int kClientTier = -1;

enum class SpanKind : uint8_t {
  kThink = 0,     // client think time preceding the issue (informational)
  kLbPick,        // load-balancer pick (zero-width marker; value = members)
  kPoolWait,      // worker-pool queue wait at a tier
  kConnWait,      // downstream-connection-pool wait at a tier
  kService,       // nominal CPU demand (value = work seconds)
  kCpuWait,       // CPU run-queue wait: elapsed minus nominal demand
  kDownstream,    // whole downstream sub-request (nested; not a leaf cause)
  kBackoff,       // retry backoff sleep (client or inter-tier)
  kTimeoutWait,   // time sunk into an attempt that hit its deadline
};

/// Stable lower_snake name ("pool_wait", ...) used in CSV/JSON output.
const char* span_kind_name(SpanKind kind);

/// True for the kinds that own wall-clock exclusively and therefore enter
/// the latency-attribution sum (kThink precedes the request, kLbPick is a
/// marker, kDownstream aggregates the next tier's own leaf spans).
bool is_leaf_cause(SpanKind kind);

/// Spans not tied to a service-graph call edge carry this.
inline constexpr int kNoEdge = -1;

/// 32 bytes: the three 8-byte fields first, then the narrow ones. Tier
/// depths and edge ids are range-checked into int16_t where spans are
/// recorded; every consumer widens them back to int64_t or text.
struct Span {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  double value = 0.0;  // kind-specific payload (see SpanKind)
  int16_t tier = kClientTier;  // tier depth, or kClientTier
  int16_t edge = kNoEdge;      // service-graph edge id (kConnWait/kDownstream/
                               // kTimeoutWait at a tier), or kNoEdge
  SpanKind kind = SpanKind::kThink;
};
static_assert(sizeof(Span) == 32);

class TraceStore;

/// One sampled request's trace. Contexts live in their run's TraceStore
/// (stable addresses; requests hold them by raw pointer) and are handed out
/// by TraceStore::open. A default-constructed context belongs to no store
/// and records nothing.
struct TraceContext {
  uint64_t request_id = 0;
  int servlet = -1;
  sim::SimTime started = 0;   // first client issue
  sim::SimTime finished = 0;  // final settlement (success or final failure)
  bool ok = false;
  bool finalized = false;
  int attempts = 1;           // client-side issue attempts
  /// The recorded spans in order: a view of the scratch buffer while the
  /// trace is open, of its sealed arena run once finalized.
  std::span<const Span> spans;

  TraceContext() = default;
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Appends a span; drops it silently once the trace is finalized (late
  /// responses of attempts the client already settled still try to record).
  void add_span(SpanKind kind, int tier, sim::SimTime start, sim::SimTime end,
                double value = 0.0) {
    add_edge_span(kind, tier, kNoEdge, start, end, value);
  }

  /// add_span with the service-graph edge id the span occurred on.
  void add_edge_span(SpanKind kind, int tier, int edge, sim::SimTime start,
                     sim::SimTime end, double value = 0.0) {
    if (store_ == nullptr) return;  // finalized, or not from a store
    scratch_.push_back(Span{start, end, value, narrow(tier), narrow(edge), kind});
    spans = {scratch_.data(), scratch_.size()};
  }

  /// Settles the trace and seals its spans into the store's arena; no
  /// spans are accepted afterwards.
  void finalize(sim::SimTime at, bool success);

 private:
  friend class TraceStore;

  static int16_t narrow(int v) {
    DCM_CHECK(v >= INT16_MIN && v <= INT16_MAX);
    return static_cast<int16_t>(v);
  }

  TraceStore* store_ = nullptr;  // set by the store until finalize()
  /// Spans of an open trace, in a buffer the store's thread recycles.
  std::vector<Span> scratch_;
};

}  // namespace dcm::trace
