// A tier: a scalable group of identical servers behind a load balancer.
//
// Owns the VM lifecycle (scale_out boots a VM that joins the balancer after
// the preparation period; scale_in drains the most recent ACTIVE VM) and
// fans soft-resource re-allocations out to every server, remembering the
// current allocation so later-booting VMs inherit it.
//
// Resilience (opt-in, off by default): enable_health_checks() starts a
// periodic probe sweep that ejects FAILED VMs from the balancer and launches
// replacements, and arms the balancer's passive consecutive-failure
// tracking; set_subrequest_retry() gives every server a deadline/retry
// discipline on its downstream calls. Recovery actions are recorded in an
// in-order TierEvent log for the per-fault action trail.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ntier/load_balancer.h"
#include "ntier/request.h"
#include "ntier/server_config.h"
#include "ntier/vm.h"
#include "sim/engine.h"

namespace dcm::ntier {

struct TierConfig {
  std::string name = "tier";
  ServerConfig server;                 // template for every VM in the tier
  int initial_vms = 1;
  int min_vms = 1;
  int max_vms = 8;
  sim::SimTime vm_boot_time = sim::from_seconds(15.0);  // the paper's 15 s
  LbPolicy lb_policy = LbPolicy::kRoundRobin;
};

/// Health-check sweep configuration (resilience mechanism).
struct HealthCheckConfig {
  double period_seconds = 5.0;  // probe sweep interval
  int failure_threshold = 3;    // consecutive failures before pick() skips
  bool replace_failed = true;   // launch a replacement for each ejected VM
};

/// One recovery action taken by the tier (for the chaos action log).
struct TierEvent {
  sim::SimTime at = 0;
  std::string kind;    // "lb_eject" | "replace_launch"
  std::string detail;  // e.g. the VM id involved
};

/// Bounded recovery-action log. The old unbounded vector grew for the whole
/// run, which made an endless chaos soak an unbounded memory leak; the ring
/// keeps the most recent kCapacity events and counts what it sheds. Every
/// registered scenario produces far fewer than kCapacity events, so below
/// the cap the observable sequence (size, order, contents) is identical to
/// the vector it replaced — result digests are unchanged.
class TierEventLog {
 public:
  static constexpr size_t kCapacity = 1024;

  void push(TierEvent event) {
    if (ring_.size() < kCapacity) {
      ring_.push_back(std::move(event));
      return;
    }
    ring_[head_] = std::move(event);  // overwrite the oldest
    head_ = (head_ + 1) % kCapacity;
    ++dropped_;
  }

  /// Events currently retained, oldest first.
  size_t size() const { return ring_.size(); }
  /// Oldest events shed to stay within kCapacity.
  uint64_t dropped() const { return dropped_; }
  const TierEvent& operator[](size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  class const_iterator {
   public:
    const_iterator(const TierEventLog* log, size_t i) : log_(log), i_(i) {}
    const TierEvent& operator*() const { return (*log_)[i_]; }
    const TierEvent* operator->() const { return &(*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& other) const { return i_ != other.i_; }
    bool operator==(const const_iterator& other) const { return i_ == other.i_; }

   private:
    const TierEventLog* log_;
    size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, ring_.size()}; }

 private:
  std::vector<TierEvent> ring_;  // grows once to kCapacity, then wraps
  size_t head_ = 0;              // index of the oldest retained event
  uint64_t dropped_ = 0;
};

class Tier {
 public:
  /// Initial VMs come up ACTIVE immediately (the experiment starts with a
  /// running system). `rng` seeds per-server demand-variability streams.
  Tier(sim::Engine& engine, TierConfig config, int depth, Rng& rng);

  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  /// Installs the tier's out-edges on every live server; VMs launched later
  /// inherit them, with the managed edge's pool sized to the tier's current
  /// connection allocation. The managed edge's capacity seeds that
  /// allocation. Call once.
  void set_out_edges(std::vector<OutEdge> edges);

  /// Routes one visit through the load balancer. done(false) if no server
  /// is in service.
  void dispatch(const RequestPtr& request, DoneFn done);

  /// Launches a VM (BOOTING → ACTIVE after vm_boot_time). Returns false at
  /// max_vms (counting booting VMs).
  bool scale_out();
  /// Drains the most recently activated VM. Returns false at min_vms.
  bool scale_in();

  /// Failure injection: crashes the VM with the given id (must be ACTIVE,
  /// BOOTING, or DRAINING). Active VMs are pulled from the balancer first
  /// so no new work routes to the corpse. Returns false if no such VM.
  bool fail_vm(const std::string& vm_id);
  /// Crashes the oldest ACTIVE VM (convenience for chaos tests).
  bool fail_one();
  /// Silent crash: like fail_vm but the balancer keeps routing to the dead
  /// server (requests fail fast) until health checks detect and eject it —
  /// the realistic failure mode the resilience stack must recover from.
  bool inject_crash(const std::string& vm_id);
  int failed_vm_count() const;

  /// Oldest ACTIVE VM, or nullptr (deterministic fault-injection target).
  Vm* oldest_active_vm();

  /// Starts the periodic health sweep: FAILED VMs still in the balancer are
  /// ejected (and optionally replaced by a fresh BOOTING VM), and the
  /// balancer's passive consecutive-failure skipping is armed. Call once.
  void enable_health_checks(const HealthCheckConfig& config);
  bool health_checks_enabled() const { return health_enabled_; }

  /// Recovery actions taken so far, in simulation order (bounded; see
  /// TierEventLog).
  const TierEventLog& events() const { return events_; }

  // --- state ---
  const std::string& name() const { return config_.name; }
  int depth() const { return depth_; }
  int active_vm_count() const;
  int booting_vm_count() const;
  int draining_vm_count() const;
  /// Active + booting — the "provisioned" count the paper's Fig. 5 plots.
  int provisioned_vm_count() const { return active_vm_count() + booting_vm_count(); }
  const TierConfig& config() const { return config_; }

  /// All VMs ever launched (including stopped ones, for bookkeeping).
  const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }

  const LoadBalancer& balancer() const { return balancer_; }

  /// Registers an observer invoked whenever a VM enters service. Initial
  /// VMs activate during construction, before any observer can register —
  /// callers iterate vms() for those and use this for later additions.
  /// Multiple observers are supported (monitoring and control both listen).
  void add_vm_activated_callback(std::function<void(Vm&)> cb);

  // --- soft-resource actuation (APP-agent) ---
  void set_thread_pool_size(int per_server);
  void set_downstream_connections(int per_server);
  int current_thread_pool_size() const { return current_stp_; }
  int current_downstream_connections() const { return current_conns_; }

  /// Applies a sub-request deadline/retry policy to every live server; VMs
  /// launched later inherit it.
  void set_subrequest_retry(const SubRequestRetryPolicy& policy);

  // --- aggregates ---
  uint64_t completed() const;
  uint64_t rejected() const;
  int total_in_flight() const;
  uint64_t subrequest_timeouts() const;
  uint64_t subrequest_retries() const;

 private:
  Vm& launch_vm(sim::SimTime boot_delay);
  void on_vm_active(Vm& vm);
  void health_sweep();
  void record_event(const char* kind, const std::string& detail);

  sim::Engine* engine_;
  TierConfig config_;
  int depth_;
  Rng rng_;
  LoadBalancer balancer_;
  std::vector<OutEdge> out_edges_;  // template for every VM's server
  std::vector<std::unique_ptr<Vm>> vms_;
  int next_vm_index_ = 0;
  int current_stp_;
  int current_conns_ = 0;
  SubRequestRetryPolicy retry_policy_;
  std::vector<std::function<void(Vm&)>> vm_activated_;

  bool health_enabled_ = false;
  HealthCheckConfig health_;
  sim::EventHandle health_event_;
  TierEventLog events_;
};

}  // namespace dcm::ntier
