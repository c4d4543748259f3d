#include "trace/attribution.h"

#include <algorithm>
#include <bit>

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

// Maps a double to an integer whose order is IEEE total order (-0 before
// +0, and numeric order otherwise). The map is its own inverse.
int64_t total_order_key(int64_t bits) {
  return bits ^ static_cast<int64_t>(static_cast<uint64_t>(bits >> 63) >> 1);
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

SharePercentiles nearest_rank_percentiles(std::span<const double> values,
                                          std::vector<int64_t>& keys) {
  SharePercentiles out;
  const size_t n = values.size();
  if (n == 0) return out;
  keys.resize(n);
  std::transform(values.begin(), values.end(), keys.begin(),
                 [](double v) { return total_order_key(std::bit_cast<int64_t>(v)); });
  const size_t i50 = nearest_rank_index(n, 0.50);
  const size_t i95 = nearest_rank_index(n, 0.95);
  const size_t i99 = nearest_rank_index(n, 0.99);
  // Each pick leaves everything right of it no smaller, so the next, higher
  // rank is selected from that suffix alone: p50 visits n keys, p95 about
  // n/2 and p99 about n/20. i50 <= i95 <= i99; an equal rank is the same pick.
  const auto select = [&keys](size_t from, size_t index) {
    const auto first = keys.begin();
    std::nth_element(first + static_cast<std::ptrdiff_t>(from),
                     first + static_cast<std::ptrdiff_t>(index), keys.end());
    return std::bit_cast<double>(total_order_key(keys[index]));
  };
  out.p50 = select(0, i50);
  out.p95 = i95 == i50 ? out.p50 : select(i50 + 1, i95);
  out.p99 = i99 == i95 ? out.p95 : select(i95 + 1, i99);
  return out;
}

template <typename Row>
void LatencyAttribution::summarize(const CauseAgg& agg, std::vector<int64_t>& scratch, Row& row) {
  row.traces = static_cast<uint64_t>(agg.shares.size());
  row.total_seconds = agg.total_seconds;
  row.mean_seconds = agg.total_seconds / static_cast<double>(agg.shares.size());
  const SharePercentiles p = nearest_rank_percentiles(agg.shares, scratch);
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
  std::vector<int64_t> scratch;
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
  std::vector<int64_t> scratch;
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
