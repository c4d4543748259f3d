// Predictive auto-scaler: a per-tier HoltForecaster (control/holt_forecaster.h)
// on the utilisation signal. Each control period feeds max(u_t, forecast)
// into the shared threshold rule, so a rising ramp triggers the scale-out
// `horizon` periods before the raw utilisation crosses the threshold —
// buying back the VM boot delay — while a live breach is never ignored even
// if the smoothed forecast lags. Scale-in uses
// the same smoothed signal: a transient dip below the lower threshold does
// not start the scale-in streak unless the forecast agrees.
//
// The forecaster seeds from the first observation, so the first period is
// purely reactive, and a telemetry gap discards its state.
#pragma once

#include "control/controller.h"
#include "control/holt_forecaster.h"

namespace dcm::control {

struct PredictiveConfig {
  ScalingPolicy policy;
  /// Smoothing weight on the newest observation (0 < α ≤ 1).
  double level_alpha = 0.5;
  /// Smoothing weight on the newest trend increment (0 ≤ β ≤ 1).
  double trend_beta = 0.3;
  /// Look-ahead in control periods; roughly ceil(boot_delay / period).
  int horizon_periods = 2;
};

class PredictiveController final : public ControllerBase {
 public:
  PredictiveController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                       PredictiveConfig config);

  /// Last forecast per tier (for tests/inspection); raw utilisation until
  /// the smoother has seen at least one sample.
  double forecast(size_t tier_index) const { return forecast_[tier_index]; }

 protected:
  void decide(const std::vector<TierObservation>& observations) override;

 private:
  std::vector<HoltForecaster> holt_;  // per tier
  std::vector<double> forecast_;
};

}  // namespace dcm::control
