// LatencyAttribution — folds sampled traces into the per-tier, per-cause
// waterfall the paper's Fig. 2/4 story needs: for each (tier, cause) pair,
// how many seconds requests sank there and what *share* of end-to-end
// latency that cause owned at the median and at the tail.
//
// Only leaf causes enter the fold (is_leaf_cause): pool-queue wait,
// connection-pool wait, CPU run-queue wait, nominal service, retry backoff
// and deadline waits. kDownstream spans are containers — the downstream
// tier's own leaf spans carry that wall-clock — and kThink precedes the
// request. Under retries a timed-out attempt's server-side spans still
// record, so cause shares can sum past 1 in storms; on a healthy run the
// leaf causes partition the latency up to scheduling gaps.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/store.h"
#include "trace/tracer.h"

namespace dcm::trace {

struct AttributionRow {
  int tier = kClientTier;
  SpanKind cause = SpanKind::kPoolWait;
  uint64_t traces = 0;        // traces in which this cause appeared
  double total_seconds = 0.0;
  double mean_seconds = 0.0;  // mean over the traces it appeared in
  // Percentiles (nearest-rank) of this cause's share of its trace's
  // end-to-end latency, over the traces it appeared in.
  double p50_share = 0.0;
  double p95_share = 0.0;
  double p99_share = 0.0;
};

/// Per-edge waterfall over kDownstream container spans: how much wall-clock
/// each service-graph edge (identified by its declaration-order id) owned,
/// attributed to the issuing tier. Unlike the leaf-cause table, these rows
/// aggregate whole downstream subtrees, so sibling edges of a fan-out node
/// can be compared directly (which branch dominates the tail) while nested
/// edges along a path overlap by construction.
struct EdgeAttributionRow {
  int tier = kClientTier;  // issuing (upstream) tier
  int edge = kNoEdge;
  uint64_t traces = 0;
  double total_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_share = 0.0;
  double p95_share = 0.0;
  double p99_share = 0.0;
};

struct SharePercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Nearest-rank p50/p95/p99 of `values` (all zero when empty), bit for bit
/// the elements an ascending sort in IEEE total order (-0 before +0) would
/// index. `keys` is scratch, reused across calls.
SharePercentiles nearest_rank_percentiles(std::span<const double> values,
                                          std::vector<int64_t>& keys);

class LatencyAttribution {
 public:
  /// Folds one finalized successful trace (ignores anything else).
  void add(const TraceContext& trace);

  uint64_t trace_count() const { return trace_count_; }

  /// Rows sorted by (tier, cause) — a deterministic table.
  std::vector<AttributionRow> rows() const;

  /// Rows sorted by (tier, edge) — the per-edge waterfall.
  std::vector<EdgeAttributionRow> edge_rows() const;

 private:
  struct CauseAgg {
    std::vector<double> shares;  // per-trace share of end-to-end latency
    double total_seconds = 0.0;
  };

  /// Dense (tier, key) aggregates, grown on demand: row tier + 1 (so
  /// kClientTier is row 0), column key. Row-major iteration is (tier, key)
  /// order; a cell no trace reached has no shares and yields no row.
  class AggTable {
   public:
    CauseAgg& at(int tier, int key);
    template <typename Fn>
    void for_each(Fn&& fn) const;

   private:
    std::vector<std::vector<CauseAgg>> rows_;
  };

  /// One trace's seconds for one (tier, key), summed in span order.
  struct KeySum {
    int tier;
    int key;
    double seconds;
  };
  static void accumulate(std::vector<KeySum>& sums, int tier, int key, double seconds);
  /// Fills a row's counts, totals and nearest-rank share percentiles;
  /// `scratch` is reused across rows.
  template <typename Row>
  static void summarize(const CauseAgg& agg, std::vector<int64_t>& scratch, Row& row);
  static void fold(AggTable& table, const std::vector<KeySum>& sums, double total);

  uint64_t trace_count_ = 0;
  AggTable causes_;  // (tier, SpanKind)
  AggTable edges_;   // (tier, edge id)
  // Per-trace scratch, reused: its size tracks the spans of one trace.
  std::vector<KeySum> trace_causes_;
  std::vector<KeySum> trace_edges_;
};

/// The exported view of one run's tracing: counts, every finalized trace
/// (span streams in sampling order), run-level annotations, and the folded
/// attribution table. Shares ownership of the run's TraceStore, so the
/// report outlives the Tracer.
struct TraceReport {
  TraceSpec spec;
  uint64_t sampled = 0;    // contexts handed out
  uint64_t finalized = 0;  // settled before the run ended
  uint64_t completed = 0;  // finalized with ok=true
  std::shared_ptr<const TraceStore> store;
  std::vector<const TraceContext*> traces;  // finalized only, owned by `store`
  std::vector<TraceAnnotation> annotations;
  std::vector<AttributionRow> attribution;
  std::vector<EdgeAttributionRow> edge_attribution;
};

/// Builds the report from everything the tracer collected.
std::shared_ptr<const TraceReport> build_report(const Tracer& tracer);

/// Annotations overlapping [trace.started, trace.finished].
std::vector<TraceAnnotation> annotations_overlapping(const TraceReport& report,
                                                     const TraceContext& trace);

}  // namespace dcm::trace
