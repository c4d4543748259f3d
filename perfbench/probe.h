// Outside-in layer profile for dcm_bench.
//
// Two instruments, both built only from the simulator's public API:
//
//  * The probe build wires one experiment exactly as core::run_experiment
//    does, steps the engine one simulated second at a time, and reads every
//    layer's work counts through public accessors. It must reproduce the
//    facade's event count and client totals exactly; a wiring change in
//    run_experiment that the probe no longer mirrors fails loudly instead of
//    silently skewing the counts.
//  * Layer drivers call one layer's public functions in a tight loop at the
//    workload's operating point and return that layer's own cost per unit of
//    work, with the cost of the layers it calls (engine events, pools, CPU
//    jobs) subtracted.
//
// All host times here are raw steady-clock seconds or nanoseconds; dcm_bench
// converts them to ref-units.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace dcm::perfbench {

/// Work counts of one or more probed runs (summed by add()).
struct ProbeCounts {
  uint64_t events = 0;
  double sim_seconds = 0.0;
  double tier_seconds = 0.0;  // Σ tiers × simulated seconds
  double arena_kb = 0.0;      // largest engine arena among the runs
  uint64_t cpu_jobs = 0;
  double cpu_busy_s = 0.0;             // Σ ∫ CPU utilisation dt (simulated)
  double busy_worker_s = 0.0;          // Σ ∫ busy workers dt (simulated)
  double provisioned_vm_s = 0.0;       // Σ per-second provisioned VMs
  double live_user_s = 0.0;            // Σ per-second live client users
  uint64_t pool_acquires = 0;
  double pool_wait_s = 0.0;            // Σ wait over all grants
  uint64_t visits = 0;                 // completed + rejected server visits
  uint64_t rejected = 0;
  uint64_t subreq_timeouts = 0;
  uint64_t subreq_retries = 0;
  uint64_t bus_records = 0;
  uint64_t requests = 0;               // RequestFactory calls
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t client_timeouts = 0;
  uint64_t client_retries = 0;
  std::map<std::string, uint64_t> control_ticks;  // by controller kind
  uint64_t scale_actions = 0;
  uint64_t soft_actions = 0;
  uint64_t faults_injected = 0;
  uint64_t recoveries = 0;
  uint64_t trace_sampled = 0;
  uint64_t trace_spans = 0;
  double build_host_s = 0.0;  // deployment construction
  double run_host_s = 0.0;    // construction + stepped run + trace report

  void add(const ProbeCounts& other);
  uint64_t total_control_ticks() const;
};

/// Host cost of one simulated second of a probed run.
struct ProbeStep {
  double sim_t = 0.0;  // end of the step, simulated seconds
  double host_s = 0.0;
  uint64_t events = 0;
};

/// Probes one experiment. `facade` is core::run_experiment's result for the
/// same config; throws std::runtime_error if the probe's engine event count
/// or client totals differ from it. `steps` (optional) receives the
/// per-simulated-second host cost.
ProbeCounts probe_run(const core::ExperimentConfig& config,
                      const core::ExperimentResult& facade,
                      std::vector<ProbeStep>* steps = nullptr);

/// Where the layer drivers run: read from the probed counts.
struct OperatingPoint {
  int pending_events = 1;   // engine heap population
  int concurrency = 1;      // busy workers per provisioned server
  int vms_per_tier = 1;     // balancer membership
};

OperatingPoint operating_point(const ProbeCounts& counts);

/// Per-unit self cost of each layer, host nanoseconds.
struct LayerCosts {
  double ns_per_event = 0.0;    // Engine::schedule_at + dispatch
  double ns_per_job = 0.0;      // CpuScheduler submit + completion, events excluded
  double ns_per_acquire = 0.0;  // SlotPool acquire + release
  double ns_per_pick = 0.0;     // LoadBalancer::pick
  double ns_per_visit = 0.0;    // Server::process, minus events/jobs/acquires
  double ns_per_record = 0.0;   // MonitorAgent collect → send → Consumer::poll
  double ns_per_tick = 0.0;     // one control period, bus work excluded
  double factory_ns = 0.0;      // one RequestFactory call
};

/// Runs every layer driver at `op`. `configs` are the workload's experiment
/// configs: the first one sets the deployment for the bus and factory
/// drivers, and each controller kind in `counts.control_ticks` is driven
/// over an idle fleet built from the first config that uses it; ns_per_tick
/// is the tick-weighted mean over those kinds.
LayerCosts measure_layer_costs(const OperatingPoint& op,
                               const std::vector<core::ExperimentConfig>& configs,
                               const ProbeCounts& counts);

}  // namespace dcm::perfbench
