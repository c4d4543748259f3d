#include "trace/attribution.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::trace {
namespace {

// Zero-based index of the nearest-rank q-percentile among n samples.
size_t nearest_rank_index(size_t n, double q) {
  const double rank = q * static_cast<double>(n);
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  if (index > n) index = n;
  return index - 1;
}

struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Nearest-rank p50/p95/p99 of `values` (reordered in place). Each
// nth_element leaves everything left of its pick no greater than it, so
// the next, lower rank is selected from that prefix alone: three nested
// selections return exactly the elements a full sort would index.
Percentiles nearest_rank_percentiles(std::vector<double>& values) {
  Percentiles out;
  const size_t n = values.size();
  if (n == 0) return out;
  const size_t i99 = nearest_rank_index(n, 0.99);
  const size_t i95 = nearest_rank_index(n, 0.95);
  const size_t i50 = nearest_rank_index(n, 0.50);
  const auto first = values.begin();
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(i99), values.end());
  out.p99 = values[i99];
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(i95),
                   first + static_cast<std::ptrdiff_t>(i99));
  out.p95 = values[i95];
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(i50),
                   first + static_cast<std::ptrdiff_t>(i95));
  out.p50 = values[i50];
  return out;
}

}  // namespace

LatencyAttribution::CauseAgg& LatencyAttribution::AggTable::at(int tier, int key) {
  DCM_CHECK(tier >= kClientTier && key >= 0);
  const auto row = static_cast<size_t>(tier + 1);
  const auto column = static_cast<size_t>(key);
  if (rows_.size() <= row) rows_.resize(row + 1);
  std::vector<CauseAgg>& cells = rows_[row];
  if (cells.size() <= column) cells.resize(column + 1);
  return cells[column];
}

template <typename Fn>
void LatencyAttribution::AggTable::for_each(Fn&& fn) const {
  for (size_t row = 0; row < rows_.size(); ++row) {
    for (size_t column = 0; column < rows_[row].size(); ++column) {
      const CauseAgg& agg = rows_[row][column];
      if (!agg.shares.empty()) fn(static_cast<int>(row) - 1, static_cast<int>(column), agg);
    }
  }
}

template <typename Row>
void LatencyAttribution::summarize(const CauseAgg& agg, std::vector<double>& scratch, Row& row) {
  row.traces = static_cast<uint64_t>(agg.shares.size());
  row.total_seconds = agg.total_seconds;
  row.mean_seconds = agg.total_seconds / static_cast<double>(agg.shares.size());
  scratch.assign(agg.shares.begin(), agg.shares.end());
  const Percentiles p = nearest_rank_percentiles(scratch);
  row.p50_share = p.p50;
  row.p95_share = p.p95;
  row.p99_share = p.p99;
}

void LatencyAttribution::accumulate(std::vector<KeySum>& sums, int tier, int key,
                                    double seconds) {
  for (KeySum& sum : sums) {
    if (sum.tier == tier && sum.key == key) {
      sum.seconds += seconds;
      return;
    }
  }
  sums.push_back(KeySum{tier, key, 0.0});
  sums.back().seconds += seconds;
}

void LatencyAttribution::fold(AggTable& table, const std::vector<KeySum>& sums, double total) {
  // Each key occurs once per trace, so the order keys fold in cannot reach
  // any aggregate: every aggregate sees its traces in fold order.
  for (const KeySum& sum : sums) {
    CauseAgg& agg = table.at(sum.tier, sum.key);
    agg.shares.push_back(sum.seconds / total);
    agg.total_seconds += sum.seconds;
  }
}

void LatencyAttribution::add(const TraceContext& trace) {
  if (!trace.finalized || !trace.ok) return;
  const double total = sim::to_seconds(trace.finished - trace.started);
  if (total <= 0.0) return;
  ++trace_count_;

  // Sum this trace's seconds per (tier, leaf cause) first, then fold each
  // cause's share exactly once per trace.
  trace_causes_.clear();
  trace_edges_.clear();
  for (const Span& span : trace.spans) {
    if (span.end <= span.start) continue;  // zero-width: no seconds to own
    const double seconds = sim::to_seconds(span.end - span.start);
    if (is_leaf_cause(span.kind)) {
      accumulate(trace_causes_, span.tier, static_cast<int>(span.kind), seconds);
    }
    // The edge waterfall folds kDownstream containers — one per issued
    // call, stamped with the issuing tier and the graph edge id.
    if (span.kind == SpanKind::kDownstream && span.edge != kNoEdge) {
      accumulate(trace_edges_, span.tier, span.edge, seconds);
    }
  }
  fold(causes_, trace_causes_, total);
  fold(edges_, trace_edges_, total);
}

std::vector<AttributionRow> LatencyAttribution::rows() const {
  std::vector<AttributionRow> rows;
  std::vector<double> scratch;
  causes_.for_each([&](int tier, int cause, const CauseAgg& agg) {
    AttributionRow& row = rows.emplace_back();
    row.tier = tier;
    row.cause = static_cast<SpanKind>(cause);
    summarize(agg, scratch, row);
  });
  return rows;
}

std::vector<EdgeAttributionRow> LatencyAttribution::edge_rows() const {
  std::vector<EdgeAttributionRow> rows;
  std::vector<double> scratch;
  edges_.for_each([&](int tier, int edge, const CauseAgg& agg) {
    EdgeAttributionRow& row = rows.emplace_back();
    row.tier = tier;
    row.edge = edge;
    summarize(agg, scratch, row);
  });
  return rows;
}

std::shared_ptr<const TraceReport> build_report(const Tracer& tracer) {
  auto report = std::make_shared<TraceReport>();
  report->spec = tracer.spec();
  report->sampled = tracer.sampled();
  report->annotations = tracer.annotations();
  report->store = tracer.store();
  report->traces.reserve(tracer.sampled());

  // Folded here, in sampling order, rather than as each trace finalizes:
  // the total_seconds sums depend on the order traces arrive.
  LatencyAttribution attribution;
  for (const TraceContext* context : tracer.traces()) {
    if (!context->finalized) continue;
    ++report->finalized;
    if (context->ok) ++report->completed;
    report->traces.push_back(context);
    attribution.add(*context);
  }
  report->attribution = attribution.rows();
  report->edge_attribution = attribution.edge_rows();
  return report;
}

std::vector<TraceAnnotation> annotations_overlapping(const TraceReport& report,
                                                     const TraceContext& trace) {
  DCM_CHECK(trace.finalized);
  std::vector<TraceAnnotation> overlapping;
  for (const auto& annotation : report.annotations) {
    if (annotation.at >= trace.started && annotation.at <= trace.finished) {
      overlapping.push_back(annotation);
    }
  }
  return overlapping;
}

}  // namespace dcm::trace
