// One writer for every experiment result — the `dcm-result-v1` JSON/CSV
// schema plus the console summary/timeline/comparison printers that used to
// be copy-pasted across fig5, dcm_run and bursty_autoscaling.
//
// Also home of the result digest: FNV-1a over the raw bit patterns of the
// completed-request trace (per-second response-time/throughput buckets,
// every per-tier timeline, the controller action log). It is intentionally
// exact — no tolerances — because determinism is a bit-for-bit property.
// The same digest guards single runs (DeterminismDigestTest), sweeps
// (--jobs 1 vs --jobs N must match), and Debug-vs-Release builds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "metrics/timeseries.h"
#include "scenario/sweep.h"
#include "workload/trace.h"

namespace dcm::scenario {

/// FNV-1a 64-bit, mixing raw bit patterns (doubles via bit_cast, never
/// through text formatting — formatting would hide low-bit divergence).
class Fnv1a {
 public:
  void mix_bytes(const void* data, size_t size);
  void mix(uint64_t v) { mix_bytes(&v, sizeof(v)); }
  void mix(int64_t v) { mix(static_cast<uint64_t>(v)); }
  void mix(double v);
  void mix(std::string_view s) { mix_bytes(s.data(), s.size()); }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Mixes a bucketed series: size, then per bucket start/count/mean/min/max.
void mix_series(Fnv1a& h, const metrics::TimeSeries& series);

/// Minimal JSON string escaping: the fields the writers emit are
/// identifiers, INI values and human summaries — control characters, quotes
/// and backslashes are all that can occur.
std::string json_escape(std::string_view text);

/// %.17g: round-trips IEEE doubles; summaries are data, not display.
std::string json_number(double value);

/// Digest of one experiment's full observable trace.
uint64_t result_digest(const core::ExperimentResult& result);

/// Digest of a whole sweep: per-run (index, seed, result digest) in run
/// order. Identical across thread counts by the SweepRunner contract.
uint64_t sweep_digest(const std::vector<SweepRun>& runs);

/// Digest of one run's trace report: every sampled span stream, the
/// annotation log and the folded attribution table, bit-for-bit. Kept
/// separate from result_digest on purpose — tracing must never perturb the
/// core result digest, and this digest is what pins the tracing itself.
uint64_t trace_digest(const trace::TraceReport& report);

/// dcm-result-v1 JSON: schema marker, sweep name, one entry per run with
/// index/scenario/seed/overrides/digest and the post-warmup summary stats.
void write_result_json(std::ostream& out, const std::string& name,
                       const std::vector<SweepRun>& runs);

/// Unified per-second timeline CSV (t_s, [users], rt_ms, throughput, then
/// per-tier vms/util/concurrency). Pass the driving trace to get the users
/// column; pass nullptr to omit it.
void write_timeline_csv(std::ostream& out, const core::ExperimentResult& result,
                        const workload::Trace* trace = nullptr);

/// Per-span CSV of one traced run (request_id, servlet, ok, attempts, span
/// index, kind, tier name, start/end/duration seconds, kind-specific
/// value). No-op when the result carries no trace report.
void write_spans_csv(std::ostream& out, const core::ExperimentResult& result);

/// dcm_run-style console summary of one run (plus its action log).
void print_summary(const core::ExperimentResult& result);

/// Console waterfall of a traced run: sampling counters plus the per-tier,
/// per-cause latency-attribution table. No-op without a trace report.
void print_trace_summary(const core::ExperimentResult& result);

/// fig5-style windowed series table (panels a/c/e): means over
/// `window_seconds`-wide windows of rt/throughput and the app/db tier
/// VM-count + utilisation timelines, with the trace's offered users.
void print_windowed_timeline(const std::string& label, const core::ExperimentResult& result,
                             const workload::Trace* trace, size_t duration_seconds,
                             size_t window_seconds = 10);

/// fig5/bursty-style side-by-side summary: one column per labelled result.
void print_comparison(const std::vector<std::string>& labels,
                      const std::vector<const core::ExperimentResult*>& results);

/// Mean of a series over per-second buckets [from, from+width); rate=true
/// sums each bucket instead (throughput series).
double series_window_mean(const metrics::TimeSeries& series, size_t from, size_t width,
                          bool rate = false);

}  // namespace dcm::scenario
