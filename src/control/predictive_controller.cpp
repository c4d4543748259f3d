#include "control/predictive_controller.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::control {

PredictiveController::PredictiveController(sim::Engine& engine, ntier::NTierApp& app,
                                           bus::Broker& broker, PredictiveConfig config)
    : ControllerBase(engine, app, broker, config.policy, "predictive"),
      holt_(app.tier_count(),
            HoltForecaster(config.level_alpha, config.trend_beta, config.horizon_periods)),
      forecast_(app.tier_count(), 0.0) {
  DCM_CHECK(config.level_alpha > 0.0 && config.level_alpha <= 1.0);
  DCM_CHECK(config.trend_beta >= 0.0 && config.trend_beta <= 1.0);
  DCM_CHECK(config.horizon_periods >= 1);
}

void PredictiveController::decide(const std::vector<TierObservation>& observations) {
  for (size_t i = 0; i < observations.size(); ++i) {
    const TierObservation& obs = observations[i];
    if (obs.samples == 0) {
      // Telemetry gap: a forecast from a stale level would treat it as one
      // period old. Re-seed from the next real observation.
      holt_[i].reset();
      continue;
    }
    forecast_[i] = holt_[i].update(obs.mean_util);
    // A live breach always counts; the forecast only moves the scale-out
    // trigger earlier. The same max() on the scale-in side means a transient
    // dip starts the streak only when the forecast is also below the lower
    // threshold.
    const double signal = std::max(obs.mean_util, forecast_[i]);
    apply_threshold_rule(i, obs, signal, signal);
  }
}

}  // namespace dcm::control
