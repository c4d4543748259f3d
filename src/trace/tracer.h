// Tracer — deterministic head sampler + trace collector for one experiment.
//
// The tracer decides at issue time whether a request is sampled (a pure
// hash of the trace seed and the request id against the configured rate —
// no Rng stream is consumed, so the simulation's event/draw sequence is
// bit-identical with tracing on or off, at any rate), opens the
// TraceContext the instrumentation hooks append spans to in the run's
// TraceStore, and records run-level annotations (soft-resource actuations,
// watchdog transitions, injected faults) that the report later overlays on
// overlapping traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"
#include "trace/store.h"
#include "trace/trace.h"

namespace dcm::trace {

/// Experiment-level tracing knobs ([trace] in scenario INI).
struct TraceSpec {
  bool enabled = false;
  /// Head-sampling probability in [0, 1]; 1 = every request.
  double rate = 1.0;

  bool operator==(const TraceSpec&) const = default;
};

/// A run-level event overlapping sampled traces (controller actuations,
/// injected faults). Purely observational, like the spans themselves.
struct TraceAnnotation {
  sim::SimTime at = 0;
  std::string kind;    // "set_stp", "crash", "watchdog_freeze", ...
  std::string detail;  // tier/target + parameters
};

class Tracer {
 public:
  /// `seed` is the derived trace-stream seed (SeedStream::kTrace).
  Tracer(uint64_t seed, TraceSpec spec);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TraceSpec& spec() const { return spec_; }

  /// Pure sampling decision — same (seed, id) always answers the same.
  bool should_sample(uint64_t request_id) const;

  /// Returns a context opened in the store when the request is sampled,
  /// null otherwise. Non-owning: the store keeps every context alive.
  TraceContext* maybe_sample(uint64_t request_id, int servlet, sim::SimTime now);

  /// Records a run-level annotation (observation-only).
  void annotate(sim::SimTime at, std::string kind, std::string detail);

  uint64_t sampled() const { return store_->size(); }
  /// Every handed-out context (open or finalized), in sampling order.
  TraceStore::Contexts traces() const { return store_->contexts(); }
  /// Shared so a report can outlive the tracer.
  std::shared_ptr<const TraceStore> store() const { return store_; }
  const std::vector<TraceAnnotation>& annotations() const { return annotations_; }

 private:
  uint64_t seed_;
  TraceSpec spec_;
  std::shared_ptr<TraceStore> store_;
  std::vector<TraceAnnotation> annotations_;
};

}  // namespace dcm::trace
