// Holt double-exponential smoothing of one tier's utilisation signal (the
// trend-only special case of Holt-Winters — the simulated traces carry no
// seasonality at control-period resolution):
//
//   level_t  = α·u_t + (1−α)·(level_{t−1} + trend_{t−1})
//   trend_t  = β·(level_t − level_{t−1}) + (1−β)·trend_{t−1}
//   forecast = level_t + horizon · trend_t
//
// The first observation seeds level = u_0 and trend = 0, so the first
// forecast is u_0 itself (purely reactive). After a telemetry gap the owner
// calls reset(): a forecast extrapolated across silence would treat a stale
// level as one period old. With α = β = 1 and horizon 1 the forecast is
// exactly u_t + (u_t − u_{t−1}), the linear extrapolation of
// ScalingPolicy::predictive. Each caller decides which side of its threshold
// rule the forecast feeds.
#pragma once

namespace dcm::control {

class HoltForecaster {
 public:
  HoltForecaster(double alpha, double beta, int horizon)
      : alpha_(alpha), beta_(beta), horizon_(horizon) {}

  /// Folds in one observation and returns the forecast `horizon` periods
  /// ahead.
  double update(double value) {
    if (!seeded_) {
      level_ = value;
      trend_ = 0.0;
      seeded_ = true;
      return value;
    }
    const double previous_level = level_;
    level_ = alpha_ * value + (1.0 - alpha_) * (previous_level + trend_);
    trend_ = beta_ * (level_ - previous_level) + (1.0 - beta_) * trend_;
    return level_ + static_cast<double>(horizon_) * trend_;
  }

  /// Discards the state; the next observation re-seeds it.
  void reset() { seeded_ = false; }

 private:
  double alpha_;
  double beta_;
  int horizon_;
  double level_ = 0.0;
  double trend_ = 0.0;
  bool seeded_ = false;
};

}  // namespace dcm::control
