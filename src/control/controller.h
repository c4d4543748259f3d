// Optimization controller base (paper Sec. IV).
//
// Every control period (15 s) the controller drains the monitoring topic
// from the bus, aggregates the per-second samples into one observation per
// tier, and lets the concrete policy decide. The shared hardware rule
// (threshold scaling with "quick start, slow turn off" hysteresis) lives
// here so EC2-AutoScale and DCM differ only in what DCM adds on top.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/broker.h"
#include "bus/consumer.h"
#include "control/actuators.h"
#include "control/holt_forecaster.h"
#include "control/hysteresis.h"
#include "control/scaling_policy.h"
#include "metrics/timeseries.h"
#include "ntier/app.h"
#include "ntier/metric_sample.h"
#include "sim/engine.h"

namespace dcm::control {

/// One control period's digest of a tier's ACTIVE servers.
struct TierObservation {
  std::string tier;
  int depth = 0;
  int samples = 0;        // per-second samples aggregated
  double mean_util = 0.0;
  double mean_concurrency = 0.0;   // per-server busy threads
  double mean_throughput = 0.0;    // per-server completions/s
  double mean_response_time = 0.0;
  int active_vms = 0;
  int booting_vms = 0;
};

class ControllerBase {
 public:
  ControllerBase(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                 ScalingPolicy policy, std::string name);
  virtual ~ControllerBase();

  ControllerBase(const ControllerBase&) = delete;
  ControllerBase& operator=(const ControllerBase&) = delete;

  /// Arms the periodic control loop (first tick after one control period).
  void start();
  void stop();

  const ControlLog& log() const { return log_; }
  /// Live tap on every recorded control action (see ControlLog::set_observer).
  void set_action_observer(std::function<void(const ControlAction&)> observer) {
    log_.set_observer(std::move(observer));
  }
  const std::string& name() const { return name_; }
  /// The effective VM-level policy (read-only; registry tests inspect it).
  const ScalingPolicy& policy() const { return policy_; }
  /// Per-tier utilisation as seen by the controller, one point per tick —
  /// the Fig. 5(c-f) "CPU util" series.
  const std::vector<metrics::TimeSeries>& util_series() const { return util_series_; }

 protected:
  /// Concrete policy hook, called once per control period.
  virtual void decide(const std::vector<TierObservation>& observations) = 0;

  /// The shared VM-level rule. Applies scale-out/in for one tier according
  /// to the policy thresholds; returns true if an action was taken.
  bool apply_hardware_rule(size_t tier_index, const TierObservation& obs);

  /// The threshold rule with caller-supplied signals: zoo controllers feed
  /// forecasts or synthetic signals instead of the raw utilisation.
  /// `force_out` bypasses the out-gate (e.g. an SLA violation) but still
  /// honours the booting suppression. Returns true if an action was taken.
  bool apply_threshold_rule(size_t tier_index, const TierObservation& obs, double out_signal,
                            double in_signal, bool force_out = false);

  /// Capacity-target actuation for controllers that compute a desired
  /// active-VM count directly (queueing inversion, PI). Moves the tier at
  /// most one VM toward `desired_active` per period, with the same booting
  /// suppression and slow scale-in streak as the threshold rule. Returns
  /// true if an action was taken.
  bool actuate_toward(size_t tier_index, const TierObservation& obs, int desired_active);

  /// Raw samples drained this period (DCM's online estimator consumes them).
  const std::vector<ntier::MetricSample>& period_samples() const { return period_samples_; }

  /// One control period's telemetry intake: drains the monitoring topic,
  /// decodes the samples into period_samples() and folds them into one
  /// observation per tier. Its buffers are reused, so at steady state it
  /// does not allocate. The view stays valid until the next call.
  const std::vector<TierObservation>& observe();

  sim::Engine& engine() { return *engine_; }
  ntier::NTierApp& app() { return *app_; }
  const ntier::NTierApp& app() const { return *app_; }
  VmAgent& vm_agent() { return vm_agent_; }
  AppAgent& app_agent() { return app_agent_; }
  /// Concrete policies may record their own actions (e.g. watchdog
  /// freeze/resume transitions) alongside the actuators'.
  ControlLog& mutable_log() { return log_; }

 private:
  void control_tick();
  /// The shared tail of apply_threshold_rule and actuate_toward, given the
  /// period's scale-out and scale-in verdicts: resets the scale-in streak on
  /// membership churn (a change in active + booting VMs since the previous
  /// sampled period), scales out on `out` (held while a VM boots under
  /// wait_for_booting), and scales in once `in` has held for
  /// scale_in_consecutive periods. Returns true if an action was taken.
  bool actuate(size_t tier_index, const TierObservation& obs, bool out, bool in);

  sim::Engine* engine_;
  ntier::NTierApp* app_;
  ScalingPolicy policy_;
  std::string name_;
  ControlLog log_;
  VmAgent vm_agent_;
  AppAgent app_agent_;
  std::unique_ptr<bus::Consumer> consumer_;
  sim::EventHandle timer_;
  std::vector<ntier::MetricSample> period_samples_;
  std::vector<TierObservation> observations_;  // observe()'s result, reused
  std::vector<double> rt_weight_;              // per tier, observe()'s scratch
  std::vector<int> low_util_streak_;     // per tier, for slow scale-in
  std::vector<HoltForecaster> util_forecast_;  // per tier, for policy_.predictive
  std::vector<int> last_capacity_;       // per tier, provisioned VMs (-1 = unseen)
  std::vector<HysteresisGate> scale_out_gate_;  // per tier
  std::vector<HysteresisGate> scale_in_gate_;   // per tier
  std::vector<metrics::TimeSeries> util_series_;
};

}  // namespace dcm::control
