#include "control/controller.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {

ControllerBase::ControllerBase(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                               ScalingPolicy policy, std::string name)
    : engine_(&engine),
      app_(&app),
      policy_(policy),
      name_(std::move(name)),
      vm_agent_(engine, app, log_),
      app_agent_(engine, app, log_),
      low_util_streak_(app.tier_count(), 0),
      util_forecast_(app.tier_count(), HoltForecaster(1.0, 1.0, 1)),
      last_capacity_(app.tier_count(), -1),
      scale_out_gate_(app.tier_count(),
                      HysteresisGate(policy.hysteresis, TriggerDirection::kAbove)),
      scale_in_gate_(app.tier_count(),
                     HysteresisGate(policy.hysteresis, TriggerDirection::kBelow)) {
  DCM_CHECK(policy_.control_period > 0);
  // Normally the MonitorFleet creates the metrics topic first; create it
  // here too so construction order doesn't matter.
  if (broker.find_topic(ntier::kMetricsTopic) == nullptr) {
    bus::TopicConfig topic_config;
    topic_config.partitions = 4;
    topic_config.retention = sim::from_seconds(120.0);
    broker.create_topic(ntier::kMetricsTopic, topic_config);
  }
  consumer_ = std::make_unique<bus::Consumer>(broker, /*group=*/name_, ntier::kMetricsTopic);
  util_series_.reserve(app.tier_count());
  for (size_t i = 0; i < app.tier_count(); ++i) {
    util_series_.emplace_back(app.tier(i).name() + ".util", policy_.control_period);
  }
}

ControllerBase::~ControllerBase() { timer_.cancel(); }

void ControllerBase::start() {
  timer_ = engine_->schedule_periodic(policy_.control_period, [this] { control_tick(); });
}

void ControllerBase::stop() { timer_.cancel(); }

void ControllerBase::control_tick() {
  const auto& observations = observe();
  for (const auto& obs : observations) {
    util_series_[static_cast<size_t>(obs.depth)].add(engine_->now() - policy_.control_period,
                                                     obs.mean_util);
  }
  decide(observations);
}

const std::vector<TierObservation>& ControllerBase::observe() {
  period_samples_.clear();
  // Drain everything published since the last tick.
  while (true) {
    const auto batch = consumer_->poll(1024);
    if (batch.empty()) break;
    for (const auto& record : batch) {
      const auto sample = ntier::decode(record.value());
      if (!sample) {
        DCM_LOG_WARN("controller %s: dropping malformed sample", name_.c_str());
        continue;
      }
      period_samples_.push_back(*sample);
    }
  }
  consumer_->commit();

  auto& out = observations_;
  out.resize(app_->tier_count());
  rt_weight_.assign(app_->tier_count(), 0.0);
  for (size_t i = 0; i < out.size(); ++i) {
    const ntier::Tier& tier = app_->tier(i);
    out[i] = TierObservation{};
    out[i].tier = tier.name();
    out[i].depth = static_cast<int>(i);
    out[i].active_vms = tier.active_vm_count();
    out[i].booting_vms = tier.booting_vm_count();
  }
  for (const auto& s : period_samples_) {
    if (s.vm_state != ntier::VmState::kActive) continue;
    if (s.depth < 0 || static_cast<size_t>(s.depth) >= out.size()) continue;
    TierObservation& obs = out[static_cast<size_t>(s.depth)];
    ++obs.samples;
    // Every observation is reset above, so these sums start from zero every
    // call; there is no cross-call accumulator to drift.
    obs.mean_util += s.cpu_util;          // dcm-lint: allow(no-unanchored-float-accumulate)
    obs.mean_concurrency += s.concurrency;  // dcm-lint: allow(no-unanchored-float-accumulate)
    obs.mean_throughput += s.throughput;  // dcm-lint: allow(no-unanchored-float-accumulate)
    // Weight response time by completions so idle seconds don't dilute it.
    obs.mean_response_time += s.avg_response_time * s.throughput;
    rt_weight_[static_cast<size_t>(s.depth)] += s.throughput;
  }
  for (size_t i = 0; i < out.size(); ++i) {
    TierObservation& obs = out[i];
    if (obs.samples > 0) {
      obs.mean_util /= obs.samples;
      obs.mean_concurrency /= obs.samples;
      obs.mean_throughput /= obs.samples;
    }
    obs.mean_response_time = rt_weight_[i] > 0.0 ? obs.mean_response_time / rt_weight_[i] : 0.0;
  }
  return out;
}

bool ControllerBase::apply_hardware_rule(size_t tier_index, const TierObservation& obs) {
  if (tier_index == 0 && !policy_.scale_front_tier) return false;
  if (obs.samples == 0) {
    // A silent period breaks the sample chain. A trend computed across the
    // gap would read a multi-period-old utilisation as "last period's", so
    // drop the prior and behave reactively on the first post-gap period.
    util_forecast_[tier_index].reset();
    return false;
  }

  // Predictive extension: judge scale-out (only) on the utilisation projected
  // one period ahead, u_t + (u_t − u_{t−1}) — Holt with α = β = 1, horizon 1.
  // The first observation seeds it, so period 0 is purely reactive.
  double out_signal = obs.mean_util;
  if (policy_.predictive) {
    out_signal = std::max(out_signal, util_forecast_[tier_index].update(obs.mean_util));
  }

  // SLA extension: response-time violation also triggers a scale-out.
  const bool rt_violation = policy_.scale_out_response_time > 0.0 &&
                            obs.mean_response_time > policy_.scale_out_response_time;

  return apply_threshold_rule(tier_index, obs, out_signal, obs.mean_util, rt_violation);
}

bool ControllerBase::apply_threshold_rule(size_t tier_index, const TierObservation& obs,
                                          double out_signal, double in_signal, bool force_out) {
  if (tier_index == 0 && !policy_.scale_front_tier) return false;
  if (obs.samples == 0) return false;

  // Both gates see every sampled period so their state tracks the signal
  // even while the other side is acting. Width 0 degenerates to the
  // historical strict `>` / `<` comparisons.
  const bool out_hot = scale_out_gate_[tier_index].update(out_signal, policy_.scale_out_util);
  const bool in_hot = scale_in_gate_[tier_index].update(in_signal, policy_.scale_in_util);
  return actuate(tier_index, obs, out_hot || force_out, in_hot);
}

bool ControllerBase::actuate_toward(size_t tier_index, const TierObservation& obs,
                                    int desired_active) {
  if (tier_index == 0 && !policy_.scale_front_tier) return false;
  if (obs.samples == 0) return false;

  // Booting VMs count toward provisioned capacity so a deficit already being
  // filled doesn't trigger a second launch; a surplus only counts once the
  // fleet has settled.
  const bool deficit = desired_active > obs.active_vms + obs.booting_vms;
  const bool surplus = desired_active < obs.active_vms && obs.booting_vms == 0;
  return actuate(tier_index, obs, deficit, surplus);
}

bool ControllerBase::actuate(size_t tier_index, const TierObservation& obs, bool out, bool in) {
  auto& streak = low_util_streak_[tier_index];
  // Capacity changed since the last sampled period (a launch, a crash, a
  // replacement): the scale-in streak was gathered against a different
  // fleet, so restart the slow scale-in clock.
  const int capacity = obs.active_vms + obs.booting_vms;
  auto& last = last_capacity_[tier_index];
  if (last >= 0 && capacity != last) streak = 0;
  last = capacity;

  if (out) {
    streak = 0;
    if (policy_.wait_for_booting && obs.booting_vms > 0) return false;
    return vm_agent_.scale_out(tier_index);
  }
  if (!in) {
    streak = 0;
    return false;
  }
  // "Slow turn off": scale in only after scale_in_consecutive periods in a row.
  if (++streak < policy_.scale_in_consecutive) return false;
  streak = 0;
  return vm_agent_.scale_in(tier_index);
}

}  // namespace dcm::control
