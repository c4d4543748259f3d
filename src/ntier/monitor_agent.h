// Fine-grained resource monitor (paper Sec. IV).
//
// One MonitorAgent runs inside each VM, snapshots the server's counters
// every second, and produces a MetricSample record to the bus (keyed by the
// VM id, whose partition it resolves once). The
// MonitorFleet attaches an agent to every VM of an app — including VMs
// launched later by scale-out.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/producer.h"
#include "ntier/app.h"
#include "ntier/metric_sample.h"
#include "ntier/vm.h"
#include "sim/engine.h"

namespace dcm::ntier {

inline constexpr const char* kMetricsTopic = "dcm.metrics";

class MonitorAgent {
 public:
  /// The metrics topic must exist.
  MonitorAgent(sim::Engine& engine, Vm& vm, int depth, bus::Producer& producer,
               sim::SimTime period = sim::kNanosPerSecond);
  ~MonitorAgent();

  MonitorAgent(const MonitorAgent&) = delete;
  MonitorAgent& operator=(const MonitorAgent&) = delete;

  /// Builds the sample for the window since the previous tick, quantised as
  /// metric_sample.h documents (also used directly by tests).
  MetricSample collect();

  const std::string& vm_id() const;

  /// Fault injection: the agent stops producing samples until `until`
  /// (exclusive). Windowed deltas still accumulate, so the first sample
  /// after the silence covers the whole gap.
  void silence_until(sim::SimTime until) { silenced_until_ = until; }
  bool silenced() const;

 private:
  void tick();

  sim::Engine* engine_;
  Vm* vm_;
  int depth_;
  bus::Producer* producer_;
  bus::Producer::Route route_;
  sim::SimTime period_;
  sim::EventHandle timer_;
  sim::SimTime silenced_until_ = 0;

  // Previous-tick snapshot for windowed deltas.
  sim::SimTime last_time_ = 0;
  uint64_t last_completed_ = 0;
  double last_rt_sum_ = 0.0;
  double last_concurrency_integral_ = 0.0;
  double last_util_integral_ = 0.0;
};

/// Creates the metrics topic (if needed) and keeps every VM of the app
/// covered by an agent.
class MonitorFleet {
 public:
  MonitorFleet(sim::Engine& engine, NTierApp& app, bus::Broker& broker,
               sim::SimTime period = sim::kNanosPerSecond,
               sim::SimTime retention = sim::from_seconds(120.0));

  MonitorFleet(const MonitorFleet&) = delete;
  MonitorFleet& operator=(const MonitorFleet&) = delete;

  size_t agent_count() const { return agents_.size(); }
  bus::Producer& producer() { return producer_; }

  /// Fault injection: silences the agent monitoring `vm_id` until `until`.
  /// Returns false when no live agent matches.
  bool silence_vm(const std::string& vm_id, sim::SimTime until);

 private:
  void attach(Vm& vm, int depth);

  sim::Engine* engine_;
  bus::Producer producer_;
  sim::SimTime period_;
  std::vector<std::unique_ptr<MonitorAgent>> agents_;
  sim::EventHandle retention_timer_;
};

}  // namespace dcm::ntier
