#include "control/dcm_controller.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"

namespace dcm::control {

DcmController::DcmController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                             DcmConfig config)
    : ControllerBase(engine, app, broker, config.policy, "dcm"),
      config_(std::move(config)),
      app_estimator_(config_.estimator),
      db_estimator_(config_.estimator) {
  DCM_CHECK_MSG(config_.app_tier < app.tier_count() && config_.db_tier < app.tier_count() &&
                    config_.app_tier < config_.db_tier,
                "DcmController tier indexes out of range");
  DCM_CHECK(config_.app_tier_model.params.valid());
  DCM_CHECK(config_.db_tier_model.params.valid());
  DCM_CHECK(config_.stp_headroom >= 1.0);

  // APP-agent follows the VM-agent: re-tune as soon as a VM enters service
  // (unless the watchdog has soft actuation frozen).
  for (size_t depth : {config_.app_tier, config_.db_tier}) {
    app.tier(depth).add_vm_activated_callback([this](ntier::Vm&) {
      if (!frozen_) reallocate_soft_resources();
    });
  }
  // Deploy the model-optimal allocation for the initial configuration.
  reallocate_soft_resources();
}

int DcmController::cached_nb(const model::ConcurrencyModel& m, NbCache& cache) {
  const bool same = cache.valid && m.params.s0 == cache.model.params.s0 &&
                    m.params.alpha == cache.model.params.alpha &&
                    m.params.beta == cache.model.params.beta && m.gamma == cache.model.gamma &&
                    m.servers == cache.model.servers && m.visit_ratio == cache.model.visit_ratio;
  if (!same) {
    cache.model = m;
    cache.nb = m.optimal_concurrency_int();
    cache.valid = true;
  }
  return cache.nb;
}

int DcmController::app_tier_nb() const {
  const int nb = cached_nb(config_.app_tier_model, app_nb_cache_);
  const int with_headroom = static_cast<int>(std::lround(nb * config_.stp_headroom));
  return std::clamp(with_headroom, config_.min_stp, config_.max_stp);
}

int DcmController::db_tier_nb() const {
  return std::max(1, cached_nb(config_.db_tier_model, db_nb_cache_));
}

model::BottleneckReport DcmController::rank_graph_nodes() const {
  const ntier::ServiceGraph* graph = app().graph();
  const std::vector<double>& visits = graph->visit_ratios();
  std::vector<model::TierDemand> demands;
  demands.reserve(graph->node_count());
  for (size_t i = 0; i < graph->node_count(); ++i) {
    model::TierDemand demand;
    demand.name = app().tier(i).name();
    demand.visit_ratio = visits[i];
    // Base (uncontended) service time: the operational-law capacity bound
    // uses S0; contention shifts where the knee is, not which node caps X.
    demand.service_time = graph->node(i).tier.server.cpu.params.s0;
    demand.servers = std::max(1, app().tier(i).active_vm_count());
    demands.push_back(demand);
  }
  return model::analyze_bottleneck(demands);
}

void DcmController::decide(const std::vector<TierObservation>& observations) {
  // Stale-telemetry watchdog: count consecutive periods where the monitoring
  // pipeline delivered nothing at all (bus drop window, silenced agents, …).
  if (config_.watchdog_periods > 0) {
    silent_periods_ = period_samples().empty() ? silent_periods_ + 1 : 0;
  }
  const bool telemetry_stale =
      config_.watchdog_periods > 0 && silent_periods_ >= config_.watchdog_periods;

  if (config_.online_estimation && !telemetry_stale) {
    for (const auto& s : period_samples()) {
      if (s.vm_state != ntier::VmState::kActive) continue;
      if (static_cast<size_t>(s.depth) == config_.app_tier) {
        app_estimator_.observe(s.concurrency, s.throughput);
      } else if (static_cast<size_t>(s.depth) == config_.db_tier) {
        db_estimator_.observe(s.concurrency, s.throughput);
      }
    }
    refine_models_online();
  }

  if (telemetry_stale) {
    set_frozen(true, "telemetry_stale");
  } else if (app_fit_degraded_ || db_fit_degraded_) {
    set_frozen(true, "fit_degraded");
  } else {
    set_frozen(false, "telemetry_fresh");
  }

  // The hardware-only EC2 rule keeps running while frozen — graceful
  // degradation means losing the concurrency refinement, not VM scaling.
  for (size_t i = 0; i < observations.size(); ++i) {
    apply_hardware_rule(i, observations[i]);
  }
  if (!frozen_) reallocate_soft_resources();
}

void DcmController::set_frozen(bool frozen, const char* reason) {
  if (frozen == frozen_) return;
  frozen_ = frozen;
  mutable_log().add(engine().now(), "*", frozen ? "watchdog_freeze" : "watchdog_resume",
                    reason);
  DCM_LOG_WARN("dcm: %s soft-resource actuation (%s)", frozen ? "froze" : "resumed", reason);
}

void DcmController::reallocate_soft_resources() {
  ntier::Tier& app_tier = app().tier(config_.app_tier);
  ntier::Tier& db_tier = app().tier(config_.db_tier);

  // Use ACTIVE counts: a booting DB VM is not yet sharing load, so sizing
  // for it early would overload the survivors; the activation callback
  // re-runs this the moment it joins.
  const int k_app = std::max(1, app_tier.active_vm_count());
  const int k_db = std::max(1, db_tier.active_vm_count());

  app_agent().set_thread_pool_size(config_.app_tier, app_tier_nb());

  const int total_db_concurrency = k_db * db_tier_nb();
  const int conns_per_app = std::max(
      config_.min_conns,
      static_cast<int>(std::ceil(static_cast<double>(total_db_concurrency) / k_app)));
  app_agent().set_downstream_connections(config_.app_tier, conns_per_app);
}

void DcmController::refine_models_online() {
  const ntier::Tier& app_tier = app().tier(config_.app_tier);
  const ntier::Tier& db_tier = app().tier(config_.db_tier);
  if (auto fitted = app_estimator_.fit(std::max(1, app_tier.active_vm_count()),
                                       config_.app_tier_model.visit_ratio)) {
    if (config_.min_fit_r2 > 0.0 && fitted->r_squared < config_.min_fit_r2) {
      // R² collapse: the data no longer looks like the model (e.g. a fault
      // is polluting the samples) — reject the fit and flag degradation.
      app_fit_degraded_ = true;
      DCM_LOG_WARN("dcm: rejected app-tier fit (R²=%.3f < %.3f)", fitted->r_squared,
                   config_.min_fit_r2);
    } else {
      app_fit_degraded_ = false;
      const double nb = fitted->optimal_concurrency();
      if (nb >= 2.0 && nb <= 500.0) {
        config_.app_tier_model.params = fitted->model.params;
        DCM_LOG_DEBUG("dcm: refined app-tier model online, N_b=%.1f (R²=%.3f)", nb,
                      fitted->r_squared);
      }
    }
  }
  if (auto fitted = db_estimator_.fit(std::max(1, db_tier.active_vm_count()),
                                      config_.db_tier_model.visit_ratio)) {
    if (config_.min_fit_r2 > 0.0 && fitted->r_squared < config_.min_fit_r2) {
      db_fit_degraded_ = true;
      DCM_LOG_WARN("dcm: rejected db-tier fit (R²=%.3f < %.3f)", fitted->r_squared,
                   config_.min_fit_r2);
    } else {
      db_fit_degraded_ = false;
      const double nb = fitted->optimal_concurrency();
      if (nb >= 2.0 && nb <= 500.0) {
        config_.db_tier_model.params = fitted->model.params;
        DCM_LOG_DEBUG("dcm: refined db-tier model online, N_b=%.1f (R²=%.3f)", nb,
                      fitted->r_squared);
      }
    }
  }
}

}  // namespace dcm::control
