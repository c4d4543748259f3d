// Shared VM-level scaling policy (paper Sec. V-B).
//
// Both controllers use the same "quick start, slow turn off" hardware rule
// learned from AutoScale: scale out when a tier's utilisation exceeds the
// upper threshold during one control period; scale in only after the
// utilisation stays below the lower threshold for several consecutive
// periods.
#pragma once

#include "sim/time.h"

namespace dcm::control {

struct ScalingPolicy {
  sim::SimTime control_period = sim::from_seconds(15.0);
  double scale_out_util = 0.80;
  double scale_in_util = 0.40;
  int scale_in_consecutive = 3;
  /// Tier 0 (the web tier) is not scaled in the paper's experiments.
  bool scale_front_tier = false;
  /// Suppress further scale-outs of a tier while one of its VMs is booting.
  bool wait_for_booting = true;

  // --- extensions beyond the paper's policy ---

  /// SLA-driven trigger: also scale a tier out when its completion-weighted
  /// mean response time over the period exceeds this (seconds; 0 = off).
  double scale_out_response_time = 0.0;
  /// Predictive trigger: forecast the tier's utilisation one control period
  /// ahead with a HoltForecaster at α = β = 1, horizon 1 — the linear
  /// extrapolation u_t + (u_t − u_{t−1}) — and scale out when the
  /// *projection* crosses the threshold, buying back the VM preparation
  /// delay the paper's Sec. VI discusses. Scale-in stays reactive.
  bool predictive = false;
  /// Schmitt-trigger band half-width applied to both utilisation thresholds
  /// (see control/hysteresis.h). 0 keeps the bare strict comparisons and the
  /// historical digests; > 0 requires the signal to breach
  /// threshold ± hysteresis before a trigger arms or disarms, killing scale
  /// flapping when utilisation hovers at a threshold.
  double hysteresis = 0.0;
};

}  // namespace dcm::control
