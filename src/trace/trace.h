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
// Span times are SimTime (ns), stored in 48 bits (see Span). `tier` is the
// tier depth the span occurred at; kClientTier marks client-side spans
// (think, client backoff, client deadline waits).
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

/// 24 bytes, three words: `start` beside the tier depth and kind, `end`
/// beside the edge id, then `value`. Times hold [-2^47, 2^47) ns (about
/// ±39 simulated hours), tier depths int8 and edge ids int16; spans are
/// range-checked against these widths where they are recorded, so nothing
/// truncates. Every consumer reads the fields as plain integers.
struct Span {
  static constexpr int kTimeBits = 48;
  static constexpr int kTierBits = 8;
  static constexpr int kEdgeBits = 16;

  sim::SimTime start : kTimeBits = 0;
  int64_t tier : kTierBits = kClientTier;  // tier depth, or kClientTier
  SpanKind kind : 8 = SpanKind::kThink;
  sim::SimTime end : kTimeBits = 0;
  int64_t edge : kEdgeBits = kNoEdge;  // service-graph edge id (kConnWait/
                                       // kDownstream/kTimeoutWait at a tier),
                                       // or kNoEdge
  double value = 0.0;  // kind-specific payload (see SpanKind)
};

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
    DCM_CHECK(fits(start, Span::kTimeBits));
    DCM_CHECK(fits(end, Span::kTimeBits));
    DCM_CHECK(fits(tier, Span::kTierBits));
    DCM_CHECK(fits(edge, Span::kEdgeBits));
    scratch_.push_back(Span{start, tier, kind, end, edge, value});
    spans = {scratch_.data(), scratch_.size()};
  }

  /// Settles the trace and seals its spans into the store's arena; no
  /// spans are accepted afterwards.
  void finalize(sim::SimTime at, bool success);

 private:
  friend class TraceStore;

  /// True when `v` is representable in a signed field `bits` wide.
  static constexpr bool fits(int64_t v, int bits) {
    const int64_t half = int64_t{1} << (bits - 1);
    return v >= -half && v < half;
  }

  TraceStore* store_ = nullptr;  // set by the store until finalize()
  /// Spans of an open trace, in a buffer the store's thread recycles.
  std::vector<Span> scratch_;
};

}  // namespace dcm::trace
