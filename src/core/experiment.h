// ExperimentRunner — one-call wiring of engine + app + monitoring bus +
// workload + (optional) controller, with per-second system timelines.
//
// Every bench and example builds on this facade; it is the reproduction's
// equivalent of the paper's testbed harness.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/actuators.h"
#include "control/controller_registry.h"
#include "control/dcm_controller.h"
#include "control/pi_controller.h"
#include "control/predictive_controller.h"
#include "control/queueing_controller.h"
#include "control/scaling_policy.h"
#include "core/topologies.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "metrics/timeseries.h"
#include "model/trainer.h"
#include "trace/attribution.h"
#include "workload/client_stats.h"
#include "workload/trace.h"

namespace dcm::core {

struct WorkloadSpec {
  enum class Kind { kJmeter, kRubbosClients, kTrace };
  Kind kind = Kind::kRubbosClients;
  int users = 100;                 // kJmeter / kRubbosClients
  double mean_think_seconds = 3.0;  // kRubbosClients / kTrace
  workload::Trace trace;            // kTrace

  static WorkloadSpec jmeter(int users);
  static WorkloadSpec rubbos(int users, double think_s = 3.0);
  static WorkloadSpec trace_driven(workload::Trace trace, double think_s = 3.0);
};

struct ControllerSpec {
  enum class Kind { kNone, kEc2AutoScale, kDcm, kPredictive, kQueueing, kPi };
  Kind kind = Kind::kNone;
  control::ScalingPolicy policy;
  /// Per-family tuning knobs; only the chosen kind's member is read, and
  /// `policy` above is copied into it at construction time.
  control::DcmConfig dcm;
  control::PredictiveConfig predictive;
  control::QueueingConfig queueing;
  control::PiConfig pi;

  static ControllerSpec none();
  static ControllerSpec ec2(control::ScalingPolicy policy = {});
  static ControllerSpec dcm_controller(control::DcmConfig config);
  static ControllerSpec predictive_controller(control::PredictiveConfig config);
  static ControllerSpec queueing_controller(control::QueueingConfig config);
  static ControllerSpec pi_controller(control::PiConfig config);

  /// The controller-registry key for this kind ("" for kNone).
  const char* registry_name() const;
  /// Bundles the spec into the registry's construction menu.
  control::ControllerMenu menu() const;
};

/// End-to-end resilience switchboard. One flag arms the whole stack with
/// the listed defaults: client deadline/retry, inter-tier sub-request
/// deadline/retry, tier health checks with replacement launches, and the
/// DCM watchdog (watchdog fields apply only to the DCM controller).
struct ResilienceSpec {
  bool enabled = false;
  double client_timeout_seconds = 2.0;
  int client_retries = 2;
  double client_backoff_seconds = 0.25;
  double subrequest_timeout_seconds = 1.0;
  int subrequest_retries = 1;
  double health_period_seconds = 5.0;
  int health_failure_threshold = 3;
  bool replace_failed = true;
  int watchdog_periods = 2;
  double min_fit_r2 = 0.0;  // 0 = R² gate off

  bool operator==(const ResilienceSpec&) const = default;
};

struct ExperimentConfig {
  HardwareConfig hardware;
  SoftAllocation soft;
  /// Deployment shape (default: the 3-tier chain). Every kind lowers to a
  /// ServiceGraph; the chains are degenerate DAGs with edges in depth order.
  TopologySpec topology;
  WorkloadSpec workload;
  ControllerSpec controller;
  /// Fault schedule rates; all-zero (the default) injects nothing. The
  /// concrete schedule derives from the root seed (SeedStream::kFault), so
  /// two configs differing only in resilience see the same faults.
  fault::FaultSpec faults;
  ResilienceSpec resilience;
  /// Request tracing (off by default). Sampling is a pure hash of the
  /// derived kTrace seed and the request id, so enabling it — at any rate —
  /// leaves the simulation's event and draw sequence bit-identical.
  trace::TraceSpec trace;
  double duration_seconds = 300.0;
  /// Measurement excludes [0, warmup); timelines still cover everything.
  double warmup_seconds = 30.0;
  int max_vms_per_tier = 8;
  /// The experiment's single root seed. Every stochastic stream (topology
  /// service-time draws, workload think/demand draws, trace synthesis) is
  /// derived from it via `derive_seed(seed, <stream>)` — see the
  /// SeedStream enum. There is deliberately no per-component seed knob:
  /// one root seed fully determines the run.
  uint64_t seed = 1;
};

/// Stream ids for the root-seed derivation (DESIGN.md "Seed derivation").
/// Keep stable: changing an id changes every derived stream and therefore
/// every reproduced number.
enum class SeedStream : uint64_t {
  kTopology = 0,  // per-server service-time variation
  kWorkload = 1,  // generator think times / servlet mix draws
  kTrace = 2,     // taxonomy trace synthesis; also keys request-trace
                  // sampling (a pure hash — consumes nothing from the stream)
  kFault = 3,     // fault-plan synthesis (chaos runs)
};

/// `derive_seed(root, stream)` with a typed stream id.
uint64_t experiment_stream_seed(uint64_t root, SeedStream stream);

/// Per-tier, per-second system timelines (the Fig. 5 panel data).
struct TierTimeline {
  std::string name;
  metrics::TimeSeries provisioned_vms;
  metrics::TimeSeries cpu_util;
  metrics::TimeSeries concurrency;  // total in-flight requests across servers

  explicit TierTimeline(const std::string& tier_name);
};

struct ExperimentResult {
  workload::ClientStats client;
  std::vector<TierTimeline> tiers;
  std::vector<control::ControlAction> actions;

  // Post-warmup summary.
  double mean_throughput = 0.0;  // req/s
  double mean_response_time = 0.0;
  double p95_response_time = 0.0;
  double max_response_time = 0.0;
  uint64_t completed = 0;
  uint64_t errors = 0;

  // Failure accounting (chaos runs; all zero on a healthy run).
  uint64_t timeouts = 0;  // client + inter-tier deadline expirations
  uint64_t retries = 0;   // client + inter-tier re-issued attempts
  double goodput = 0.0;   // post-warmup req/s completing within the bound
  double error_rate = 0.0;  // post-warmup errors / (errors + completions)
  /// Injected faults and recovery actions (injector log merged with every
  /// tier's eject/replace events), sorted by time.
  std::vector<fault::FaultLogEntry> fault_log;

  /// Resource-efficiency accounting (the paper's motivation): provisioned
  /// VM-seconds per tier over the whole run (booting + active + draining
  /// all cost money), and completed requests per VM-second.
  std::vector<double> vm_seconds;     // per tier
  double total_vm_seconds = 0.0;      // across scalable tiers
  double requests_per_vm_second = 0.0;

  /// SLA view: fraction of post-warmup seconds whose mean response time
  /// exceeded the bound (1 s by default, the paper's visual SLA line).
  double sla_violation_fraction = 0.0;
  double sla_bound_seconds = 1.0;
  /// The same violation count in whole seconds, and the post-warmup window
  /// it was measured over — the tournament scorecard's SLO column.
  int sla_violation_seconds = 0;
  int measured_seconds = 0;

  /// Engine events dispatched over the whole run — the macro benchmark's
  /// work unit (events/sec). Diagnostic only; never feeds the result digest.
  uint64_t events_dispatched = 0;

  /// Present only when config.trace.enabled: sampled span streams plus the
  /// folded latency-attribution table. Never feeds the result digest.
  std::shared_ptr<const trace::TraceReport> trace_report;

  /// Count of actions of a given kind on a given tier ("" = any tier).
  int action_count(const std::string& action, const std::string& tier = "") const;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// Sweep helper for the Table I training: measures steady-state
/// throughput of the given deployment under a JMeter closed loop at each
/// offered concurrency. When `match_pools` is true the app-tier thread pool
/// is set to the offered concurrency (the paper's "matching thread pool"
/// training discipline — concurrency in the server equals the workload's).
struct SweepPoint {
  int concurrency = 0;       // offered (JMeter users)
  double throughput = 0.0;   // steady-state system throughput (req/s)
  double response_time = 0.0;
  /// Measured mean request-processing concurrency per server, per tier —
  /// the x-axis the paper's model training actually uses.
  std::vector<double> per_server_concurrency;
};

std::vector<SweepPoint> jmeter_concurrency_sweep(const ExperimentConfig& base,
                                                 const std::vector<int>& concurrencies,
                                                 bool match_app_pools);

/// Fig. 2(a): one MySQL node under a zero-think JMeter closed loop whose
/// user count and worker cap both equal the offered concurrency (the
/// paper's "matching thread pool" discipline), 60 s per point with the
/// throughput measured after 10 s; point n runs on seed 1000 + n.
/// `response_time` is the whole-run mean; per_server_concurrency is empty.
std::vector<SweepPoint> mysql_concurrency_sweep(const std::vector<int>& concurrencies);

struct ModelTraining {
  size_t samples = 0;
  double max_concurrency = 0.0;
  model::TrainedModel normalized;  // γ pinned to 1 — what the controller uses
  model::TrainedModel known_s0;    // S0 fixed to the tier's single-thread demand
};

/// Table I: a matching-pool jmeter_concurrency_sweep of `base` over
/// `offered`, keeping the points whose measured per-server concurrency at
/// graph node `tier` lies in [0.8, concurrency_cap], then both
/// Levenberg–Marquardt fits of Eq. 7 (one server, the given visit ratio).
ModelTraining train_tier_model(const ExperimentConfig& base, size_t tier, double visit_ratio,
                               double concurrency_cap, const std::vector<int>& offered);

/// Ablation A2: `config`'s deployment with every tier balanced by `policy`
/// (a topology-level knob the scenario vocabulary does not expose), driven
/// by RUBBoS clients with no controller. Returns the post-warmup throughput
/// and the whole-run mean response time.
SweepPoint run_with_lb_policy(const ExperimentConfig& config, ntier::LbPolicy policy);

}  // namespace dcm::core
