// The AutoScale trace taxonomy.
//
// The paper's "Large Variation" trace comes from Gandhi et al. (AutoScale,
// TOCS 2012), which categorises production traces into named variability
// patterns. Reproducing the whole taxonomy lets `dcm_run report` evaluate DCM
// against every pattern, not just the one the paper picked. Each
// synthesizer produces a ~700 s, 1 Hz trace with reproducible noise.
#pragma once

#include <string>
#include <vector>

#include "workload/trace.h"

namespace dcm::workload {

enum class TracePattern {
  kSlowlyVarying,   // gentle multi-minute swell
  kQuicklyVarying,  // high-frequency oscillation
  kBigSpike,        // calm baseline with one violent spike
  kDualPhase,       // low plateau then high plateau (diurnal shift)
  kLargeVariation,  // the paper's Fig. 5 trace
  kSteepTriPhase,   // three successively steeper ramps
};

const char* trace_pattern_name(TracePattern pattern);

/// All six patterns, in declaration order.
std::vector<TracePattern> all_trace_patterns();

/// Synthesizes a pattern at ~`peak_users` peak (each pattern's internal
/// shape is normalised so its maximum hits peak_users).
Trace make_trace(TracePattern pattern, int peak_users = 350, uint64_t seed = 7);

}  // namespace dcm::workload
