#include "ntier/tier.h"

#include <cstdio>

#include "common/check.h"
#include "common/logging.h"

namespace dcm::ntier {

Tier::Tier(sim::Engine& engine, TierConfig config, int depth, Rng& rng)
    : engine_(&engine),
      config_(std::move(config)),
      depth_(depth),
      rng_(rng.fork()),
      balancer_(config_.lb_policy),
      current_stp_(config_.server.max_threads) {
  DCM_CHECK(config_.initial_vms >= 1);
  DCM_CHECK(config_.min_vms >= 1);
  DCM_CHECK(config_.max_vms >= config_.initial_vms);
  DCM_CHECK(config_.min_vms <= config_.initial_vms);
  for (int i = 0; i < config_.initial_vms; ++i) launch_vm(/*boot_delay=*/0);
}

void Tier::set_out_edges(std::vector<OutEdge> edges) {
  DCM_CHECK_MSG(out_edges_.empty(), "out-edges already set");
  out_edges_ = std::move(edges);
  // The managed edge's pool is the tier's downstream-connection allocation
  // from here on (the APP-agent resizes it via set_downstream_connections).
  for (const auto& e : out_edges_) {
    if (e.managed) current_conns_ = e.pool_capacity;
  }
  for (auto& vm : vms_) vm->server().set_out_edges(out_edges_);
}

Vm& Tier::launch_vm(sim::SimTime boot_delay) {
  // Compose both names in one stack buffer: VM churn under chaos schedules
  // runs through here, and str_format's format/copy round-trips would put
  // heap traffic on the actuation path. The stored std::string copies below
  // are the only (owned, unavoidable) allocations.
  char name_buf[160];
  ServerConfig server_config = config_.server;
  std::snprintf(name_buf, sizeof(name_buf), "%s-%d", config_.name.c_str(), next_vm_index_);
  server_config.name.assign(name_buf);
  // Later-launched VMs inherit the tier's current soft-resource allocation,
  // not the template's.
  server_config.max_threads = current_stp_;
  auto server = std::make_unique<Server>(*engine_, std::move(server_config), depth_, rng_.fork());
  for (auto& e : out_edges_) {
    if (e.managed) e.pool_capacity = current_conns_;
  }
  server->set_out_edges(out_edges_);
  server->set_subrequest_retry(retry_policy_);
  if (health_enabled_) server->set_result_listener(&balancer_);
  std::snprintf(name_buf, sizeof(name_buf), "%s-vm%d", config_.name.c_str(),
                next_vm_index_);
  auto vm = std::make_unique<Vm>(*engine_, std::string(name_buf), next_vm_index_,
                                 std::move(server), boot_delay,
                                 [this](Vm& v) { on_vm_active(v); });
  ++next_vm_index_;
  vms_.push_back(std::move(vm));
  return *vms_.back();
}

void Tier::on_vm_active(Vm& vm) {
  // Re-apply the allocation in case the APP-agent changed it while booting.
  vm.server().set_thread_pool_size(current_stp_);
  if (vm.server().connection_pool() != nullptr) {
    vm.server().set_downstream_connections(current_conns_);
  }
  balancer_.add(&vm.server());
  DCM_LOG_DEBUG("tier %s: %s entered service (%zu members)", config_.name.c_str(),
                vm.id().c_str(), balancer_.member_count());
  for (const auto& cb : vm_activated_) cb(vm);
}

void Tier::add_vm_activated_callback(std::function<void(Vm&)> cb) {
  vm_activated_.push_back(std::move(cb));
}

void Tier::dispatch(const RequestPtr& request, DoneFn done) {
  Server* server = balancer_.pick();
  if (server == nullptr) {
    done(false);
    return;
  }
  if (trace::TraceContext* tr = request->trace) {
    // Zero-width marker: the pick itself is instantaneous in sim time;
    // `value` records the member count the balancer chose from.
    tr->add_span(trace::SpanKind::kLbPick, depth_, engine_->now(), engine_->now(),
                 static_cast<double>(balancer_.member_count()));
  }
  // With health checks on, the server itself reports the outcome to the
  // balancer (its result listener) right before `done` fires.
  server->process(request, std::move(done));
}

bool Tier::scale_out() {
  if (provisioned_vm_count() >= config_.max_vms) return false;
  launch_vm(config_.vm_boot_time);
  DCM_LOG_DEBUG("tier %s: scale-out at %s", config_.name.c_str(),
                sim::format_time(engine_->now()).c_str());
  return true;
}

bool Tier::scale_in() {
  if (active_vm_count() <= config_.min_vms) return false;
  // Drain the most recently activated VM — keep the tier's seed members.
  Vm* victim = nullptr;
  for (auto& vm : vms_) {
    if (vm->state() != VmState::kActive) continue;
    if (victim == nullptr || vm->launched_at() >= victim->launched_at()) victim = vm.get();
  }
  if (victim == nullptr) return false;
  balancer_.remove(&victim->server());
  victim->begin_drain([this](Vm& v, bool failed) {
    DCM_LOG_DEBUG("tier %s: %s %s", config_.name.c_str(), v.id().c_str(),
                  failed ? "failed mid-drain" : "stopped");
  });
  DCM_LOG_DEBUG("tier %s: scale-in (draining %s)", config_.name.c_str(), victim->id().c_str());
  return true;
}

bool Tier::fail_vm(const std::string& vm_id) {
  for (auto& vm : vms_) {
    if (vm->id() != vm_id) continue;
    if (vm->state() == VmState::kStopped || vm->state() == VmState::kFailed) return false;
    if (vm->state() == VmState::kActive) balancer_.remove(&vm->server());
    vm->fail();
    DCM_LOG_WARN("tier %s: %s FAILED at %s", config_.name.c_str(), vm->id().c_str(),
                 sim::format_time(engine_->now()).c_str());
    return true;
  }
  return false;
}

bool Tier::fail_one() {
  for (auto& vm : vms_) {
    if (vm->state() == VmState::kActive) return fail_vm(vm->id());
  }
  return false;
}

bool Tier::inject_crash(const std::string& vm_id) {
  for (auto& vm : vms_) {
    if (vm->id() != vm_id) continue;
    if (vm->state() == VmState::kStopped || vm->state() == VmState::kFailed) return false;
    // Deliberately NOT removed from the balancer: nobody has noticed the
    // crash yet. The offline server fast-fails routed requests until the
    // health sweep ejects it.
    vm->fail();
    DCM_LOG_WARN("tier %s: %s crashed silently at %s", config_.name.c_str(), vm->id().c_str(),
                 sim::format_time(engine_->now()).c_str());
    return true;
  }
  return false;
}

Vm* Tier::oldest_active_vm() {
  for (auto& vm : vms_) {
    if (vm->state() == VmState::kActive) return vm.get();
  }
  return nullptr;
}

void Tier::record_event(const char* kind, const std::string& detail) {
  events_.push(TierEvent{engine_->now(), kind, detail});
}

void Tier::enable_health_checks(const HealthCheckConfig& config) {
  DCM_CHECK_MSG(!health_enabled_, "health checks already enabled");
  DCM_CHECK(config.period_seconds > 0.0);
  DCM_CHECK(config.failure_threshold >= 1);
  health_enabled_ = true;
  health_ = config;
  balancer_.set_health_policy(config.failure_threshold);
  // Every server reports its visit outcomes to the balancer's passive
  // failure tracking; launch_vm installs the same listener on later VMs.
  for (auto& vm : vms_) vm->server().set_result_listener(&balancer_);
  health_event_ = engine_->schedule_periodic(sim::from_seconds(health_.period_seconds),
                                             [this] { health_sweep(); });
}

void Tier::health_sweep() {
  // Active probe: a FAILED VM still registered with the balancer is
  // detected here, ejected, and (optionally) replaced. Iteration over vms_
  // is launch-ordered, so ejections are deterministic. Indexed loop over the
  // pre-sweep size: launch_vm appends to vms_ mid-iteration (the appended
  // replacements are BOOTING and never need sweeping here).
  const size_t existing = vms_.size();
  for (size_t i = 0; i < existing; ++i) {
    Vm& vm = *vms_[i];
    if (vm.state() != VmState::kFailed) continue;
    if (!balancer_.contains(&vm.server())) continue;
    balancer_.remove(&vm.server());
    record_event("lb_eject", vm.id());
    DCM_LOG_WARN("tier %s: health check ejected %s at %s", config_.name.c_str(),
                 vm.id().c_str(), sim::format_time(engine_->now()).c_str());
    if (health_.replace_failed && provisioned_vm_count() < config_.max_vms) {
      Vm& fresh = launch_vm(config_.vm_boot_time);
      record_event("replace_launch", fresh.id());
      DCM_LOG_INFO("tier %s: launched replacement %s", config_.name.c_str(),
                   fresh.id().c_str());
    }
  }
}

int Tier::failed_vm_count() const {
  int n = 0;
  for (const auto& vm : vms_) n += vm->state() == VmState::kFailed ? 1 : 0;
  return n;
}

int Tier::active_vm_count() const {
  int n = 0;
  for (const auto& vm : vms_) n += vm->state() == VmState::kActive ? 1 : 0;
  return n;
}

int Tier::booting_vm_count() const {
  int n = 0;
  for (const auto& vm : vms_) n += vm->state() == VmState::kBooting ? 1 : 0;
  return n;
}

int Tier::draining_vm_count() const {
  int n = 0;
  for (const auto& vm : vms_) n += vm->state() == VmState::kDraining ? 1 : 0;
  return n;
}

void Tier::set_thread_pool_size(int per_server) {
  DCM_CHECK(per_server >= 1);
  current_stp_ = per_server;
  for (auto& vm : vms_) {
    if (vm->state() == VmState::kActive || vm->state() == VmState::kBooting) {
      vm->server().set_thread_pool_size(per_server);
    }
  }
}

void Tier::set_downstream_connections(int per_server) {
  DCM_CHECK(per_server >= 1);
  current_conns_ = per_server;
  for (auto& vm : vms_) {
    if (vm->server().connection_pool() == nullptr) continue;
    if (vm->state() == VmState::kActive || vm->state() == VmState::kBooting) {
      vm->server().set_downstream_connections(per_server);
    }
  }
}

void Tier::set_subrequest_retry(const SubRequestRetryPolicy& policy) {
  retry_policy_ = policy;
  for (auto& vm : vms_) {
    if (vm->state() == VmState::kStopped || vm->state() == VmState::kFailed) continue;
    vm->server().set_subrequest_retry(policy);
  }
}

uint64_t Tier::completed() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) total += vm->server().completed();
  return total;
}

uint64_t Tier::rejected() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) total += vm->server().rejected();
  return total;
}

int Tier::total_in_flight() const {
  int total = 0;
  for (const auto& vm : vms_) total += vm->server().in_flight();
  return total;
}

uint64_t Tier::subrequest_timeouts() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) total += vm->server().subrequest_timeouts();
  return total;
}

uint64_t Tier::subrequest_retries() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) total += vm->server().subrequest_retries();
  return total;
}

}  // namespace dcm::ntier
