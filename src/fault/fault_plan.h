// Declarative, deterministic fault schedules.
//
// A FaultSpec describes *rates* (one MTTF knob per fault family, 0 = that
// family off); FaultPlan::synthesize turns it into a concrete, time-sorted
// schedule of events using per-family Rng streams derived from a single
// fault seed. Same (spec, seed, horizon) → bit-identical plan, so chaos
// runs replay exactly and sweeps can vary one MTTF axis at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dcm::fault {

enum class FaultKind {
  kVmCrash,       // silent VM crash (stays in the balancer until detected)
  kVmSlowdown,    // CPU-capacity multiplier for a window
  kTelemetryLoss, // monitoring-topic drop window (bus loses records)
  kAgentSilence,  // one monitor agent stops publishing for a window
};

const char* fault_kind_name(FaultKind kind);

/// Fault-family rates. An MTTF of 0 disables that family. Inter-event gaps
/// are exponential with the family's MTTF as mean.
struct FaultSpec {
  double crash_mttf_seconds = 0.0;
  double slowdown_mttf_seconds = 0.0;
  double slowdown_factor = 0.25;  // capacity multiplier while degraded
  double slowdown_duration_seconds = 30.0;
  double telemetry_loss_mttf_seconds = 0.0;
  double telemetry_loss_duration_seconds = 30.0;
  double agent_silence_mttf_seconds = 0.0;
  double agent_silence_duration_seconds = 30.0;

  bool any_enabled() const {
    return crash_mttf_seconds > 0.0 || slowdown_mttf_seconds > 0.0 ||
           telemetry_loss_mttf_seconds > 0.0 || agent_silence_mttf_seconds > 0.0;
  }

  bool operator==(const FaultSpec&) const = default;
};

/// One scheduled injection. `duration` and `severity` are meaningful only
/// for windowed kinds (slowdown / telemetry loss / agent silence).
struct FaultEvent {
  FaultKind kind = FaultKind::kVmCrash;
  sim::SimTime at = 0;
  sim::SimTime duration = 0;
  double severity = 1.0;  // slowdown capacity factor
};

/// Per-family stream ids under the fault seed (keep stable — DESIGN.md
/// "Seed derivation").
enum class FaultStream : uint64_t {
  kCrash = 0,
  kSlowdown = 1,
  kTelemetryLoss = 2,
  kAgentSilence = 3,
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by time (family order on ties)

  /// Samples a concrete schedule over [0, horizon_seconds) from the spec.
  static FaultPlan synthesize(const FaultSpec& spec, uint64_t fault_seed,
                              double horizon_seconds);
};

}  // namespace dcm::fault
