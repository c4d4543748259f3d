// Declarative, serializable experiment scenarios.
//
// A `Scenario` is the text-form twin of `core::ExperimentConfig`: hardware,
// soft allocation, topology, workload, controller, faults, resilience,
// tracing, run window and the single root seed, plus a name and a one-line
// summary. It round-trips losslessly through the INI dialect (`parse` →
// `to_text` → `parse` is identity, and `to_text` is a canonical fixed point).
//
// One static key table in scenario.cpp names every [section] key, the kinds
// it applies under, its bounds and the field it binds. That table alone
// drives strict parsing (unknown sections or keys, keys that don't apply to
// the declared kinds, and out-of-range values are errors, so a typo like
// `contorller` cannot silently fall back to defaults), canonical emission,
// override application and the translation to a runnable `ExperimentConfig`.
// Defaults are the runtime structs' own initialisers; the scenario layer owns
// only the text-only ones (the trace name and its peak users).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/experiment.h"
#include "core/topologies.h"

namespace dcm::scenario {

/// Declarative workload: trace workloads are referenced by taxonomy pattern
/// name or CSV path (never by inline user vectors), which is what keeps the
/// spec serializable.
struct WorkloadDecl {
  enum class Kind { kJmeter, kRubbos, kTrace };
  Kind kind = Kind::kRubbos;
  int users = core::WorkloadSpec{}.users;                          // kJmeter / kRubbos
  double think_seconds = core::WorkloadSpec{}.mean_think_seconds;  // kRubbos / kTrace
  std::string trace = "large-variation";  // kTrace: taxonomy name or CSV path
  int peak_users = 350;                   // kTrace, taxonomy patterns only

  bool operator==(const WorkloadDecl&) const = default;
};

/// Declarative controller. The kind names mirror the control-layer registry
/// (`control::controller_names()`): ec2 and dcm are the paper's pair, and
/// predictive / queueing / pi are the zoo additions. The DCM kind may
/// override the reference Eq. 5 parameters with explicit "s0,alpha,beta"
/// triples (the wrong-models ablation, or a user-fitted system).
struct ControllerDecl {
  enum class Kind { kNone, kEc2, kDcm, kPredictive, kQueueing, kPi };
  Kind kind = Kind::kNone;
  // Any kind but none (ScalingPolicy):
  double control_period_seconds = sim::to_seconds(control::ScalingPolicy{}.control_period);
  double scale_out_util = control::ScalingPolicy{}.scale_out_util;
  double scale_in_util = control::ScalingPolicy{}.scale_in_util;
  int scale_in_consecutive = control::ScalingPolicy{}.scale_in_consecutive;
  double hysteresis = control::ScalingPolicy{}.hysteresis;
  // kEc2 / kDcm only (the zoo kinds have their own trigger shapes):
  bool predictive = control::ScalingPolicy{}.predictive;
  double sla_rt = control::ScalingPolicy{}.scale_out_response_time;
  // kDcm only (DcmConfig):
  double headroom = control::DcmConfig{}.stp_headroom;
  bool online_estimation = control::DcmConfig{}.online_estimation;
  std::string app_model;  // "" = reference model
  std::string db_model;   // "" = reference model
  // kPredictive only (PredictiveConfig, Holt smoothing):
  double alpha = control::PredictiveConfig{}.level_alpha;
  double beta = control::PredictiveConfig{}.trend_beta;
  int horizon = control::PredictiveConfig{}.horizon_periods;
  // kQueueing / kPi: per-server utilisation target ρ*.
  double target_util = control::QueueingConfig{}.target_util;
  // kPi only (PiConfig):
  double kp = control::PiConfig{}.kp;
  double ki = control::PiConfig{}.ki;
  double deadband = control::PiConfig{}.deadband;

  bool operator==(const ControllerDecl&) const = default;
};

struct Scenario {
  std::string name = "unnamed";
  std::string summary;
  core::HardwareConfig hardware;
  core::SoftAllocation soft;
  /// Deployment shape ([topology] section). The default 3-tier chain is
  /// canonical as an *absent* section; chain4 emits only its kind; graph
  /// kinds spell out nodes ("name:role, ...") and edges
  /// ("from->to:calls[:managed], ..." with integer calls or `q` = the
  /// sampled servlet's query count). `lb_policy` (round-robin, the default
  /// and omitted, or least-conn) balances every tier of every kind. Parsed
  /// graphs are validated eagerly: from_config builds the ServiceGraph once,
  /// so cyclic or malformed topologies fail at parse time, not at run time.
  core::TopologySpec topology;
  WorkloadDecl workload;
  ControllerDecl controller;
  /// [faults]: all-zero MTTFs (the default) mean a healthy run; the concrete
  /// event schedule derives from the root seed.
  fault::FaultSpec faults;
  /// [resilience]: detail keys apply only when enabled; the watchdog keys
  /// additionally require the dcm controller.
  core::ResilienceSpec resilience;
  /// [trace]: `rate` applies only when enabled; disabled is canonical as an
  /// absent section.
  trace::TraceSpec trace;
  double duration_seconds = core::ExperimentConfig{}.duration_seconds;
  double warmup_seconds = core::ExperimentConfig{}.warmup_seconds;
  int max_vms = core::ExperimentConfig{}.max_vms_per_tier;
  /// Root seed; every stochastic stream of the run derives from it (see
  /// core::SeedStream and DESIGN.md "Seed derivation & deterministic sweeps").
  uint64_t seed = core::ExperimentConfig{}.seed;

  bool operator==(const Scenario&) const = default;

  /// Strict translation from a parsed Config; throws std::runtime_error on
  /// unknown sections/keys, keys that don't apply to the declared kinds,
  /// unknown kinds, malformed or out-of-range values, and invalid graphs.
  static Scenario from_config(const Config& config);
  /// Parse INI text / load an INI file, then from_config.
  static Scenario parse(const std::string& text);
  static Scenario load(const std::string& path);

  /// Canonical Config emission: every field explicit, only keys that apply
  /// to the declared kinds. `from_config(to_config())` is identity.
  Config to_config() const;
  /// `to_config().to_text()` — the canonical INI form.
  std::string to_text() const;

  /// The one override path (sweep points, tournament and CLI --set):
  /// applies "section.key" → value pairs on top of the canonical emission,
  /// later pairs winning. A kind override re-scopes the vocabulary: base
  /// keys that stop applying are dropped, while an override naming a key
  /// that does not apply under the final kinds is an error.
  Scenario with_overrides(
      const std::vector<std::pair<std::string, std::string>>& overrides) const;

  /// Runnable translation. Reads only the fields whose keys apply under the
  /// declared kinds, so it depends on nothing `to_text()` does not carry;
  /// resolves the taxonomy trace (or CSV path) and the reference (or
  /// overridden) DCM models.
  core::ExperimentConfig experiment() const;
};

/// True if `Scenario::from_config` would accept [section] key under the
/// kinds declared in `config` (throws if `config` declares an unknown kind).
bool scenario_key_applies(const Config& config, const std::string& section,
                          const std::string& key);

}  // namespace dcm::scenario
