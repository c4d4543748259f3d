// DCM — dynamic concurrency management (the paper's contribution).
//
// Two-level actuation: the same VM-level hardware rule as the baseline,
// plus soft-resource re-allocation from the concurrency-aware model:
//
//   * app-tier (Tomcat) worker thread pool per server ←  headroom · N_b(app)
//   * app-tier DB connection pool per server          ←  ⌈K_db · N_b(db) / K_app⌉
//
// so the *total* concurrency reaching the DB tier equals the model optimum
// regardless of how many servers either tier currently has. Re-allocation
// runs every control period and immediately after a VM enters service
// ("the VM-agent will be called first, followed by the APP-agent").
//
// Models are trained offline (the Table I pipeline) and passed in; with
// online_estimation enabled the controller also refits them continuously
// from monitoring samples.
#pragma once

#include "control/controller.h"
#include "control/online_estimator.h"
#include "model/bottleneck.h"
#include "model/concurrency_model.h"

namespace dcm::control {

struct DcmConfig {
  ScalingPolicy policy;
  /// Trained model for the app tier (e.g. Tomcat, Table I column 1).
  model::ConcurrencyModel app_tier_model;
  /// Trained model for the DB tier (e.g. MySQL, Table I column 2).
  model::ConcurrencyModel db_tier_model;
  /// The paper notes the deployed maxThreads should exceed the theoretical
  /// N_b because not every pooled thread is simultaneously active.
  double stp_headroom = 1.0;
  int min_stp = 2;
  int max_stp = 1000;
  int min_conns = 1;
  /// Refine N_b online from monitoring samples (extension; Sec. III-C's
  /// "determine these parameters via online monitoring").
  bool online_estimation = false;
  EstimatorConfig estimator;

  /// Graceful degradation (resilience mechanism). With watchdog_periods > 0,
  /// that many consecutive sample-less control periods freeze soft-resource
  /// actuation — the controller falls back to the hardware-only EC2 rule
  /// until fresh telemetry returns. With min_fit_r2 > 0, an online fit whose
  /// R² falls below it is rejected and likewise freezes soft actuation until
  /// an acceptable fit arrives. 0 disables each check.
  int watchdog_periods = 0;
  double min_fit_r2 = 0.0;

  /// Tier indexes of the concurrency-managed pair. Defaults fit the 3-tier
  /// web(0)/app(1)/db(2) layout; the 4-tier layout with a DB load-balancer
  /// tier uses app_tier=1, db_tier=3.
  size_t app_tier = 1;
  size_t db_tier = 2;
};

class DcmController final : public ControllerBase {
 public:
  DcmController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker, DcmConfig config);

  /// Current per-server optima the APP-agent deploys.
  int app_tier_nb() const;
  int db_tier_nb() const;

  const model::ConcurrencyModel& app_tier_model() const { return config_.app_tier_model; }
  const model::ConcurrencyModel& db_tier_model() const { return config_.db_tier_model; }

  /// Operational-law ranking of the deployment's service-graph nodes at the
  /// current VM allocation: per-node capacity γ·K_m/(V_m·S0_m) with visit
  /// ratios path-multiplied over the DAG and K_m = the node's active VM
  /// count. The report's bottleneck_tier is the node index DCM considers
  /// the system's capacity limiter (lowest capacity).
  model::BottleneckReport rank_graph_nodes() const;

  /// True while the watchdog has soft-resource actuation frozen.
  bool actuation_frozen() const { return frozen_; }
  /// Consecutive control periods without a single telemetry sample.
  int silent_periods() const { return silent_periods_; }

 protected:
  void decide(const std::vector<TierObservation>& observations) override;

 private:
  /// Memoized optimal_concurrency_int(): the argmax scan evaluates the model
  /// ~4k times, reallocation runs every control period plus on every VM
  /// activation, and the model only actually changes when an online refit
  /// lands. Keyed on every field the scan reads.
  struct NbCache {
    model::ConcurrencyModel model;
    int nb = 0;
    bool valid = false;
  };
  static int cached_nb(const model::ConcurrencyModel& m, NbCache& cache);

  void reallocate_soft_resources();
  void refine_models_online();
  void set_frozen(bool frozen, const char* reason);

  DcmConfig config_;
  OnlineModelEstimator app_estimator_;
  OnlineModelEstimator db_estimator_;
  mutable NbCache app_nb_cache_;
  mutable NbCache db_nb_cache_;
  int silent_periods_ = 0;
  bool app_fit_degraded_ = false;
  bool db_fit_degraded_ = false;
  bool frozen_ = false;
};

}  // namespace dcm::control
