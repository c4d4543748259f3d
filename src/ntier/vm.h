// VM lifecycle wrapper around a Server.
//
// Mirrors the paper's scaling mechanics: a newly launched VM spends a
// preparation period (15 s in the paper) before entering service; a removed
// VM first drains in-flight requests (deregistered from the load balancer),
// then stops. A VM's final state (STOPPED or FAILED) retires its server
// (Server::retire): it stays offline and releases its bulk storage.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ntier/server.h"
#include "sim/engine.h"

namespace dcm::ntier {

// kFailed stays last: ntier::decode() range-checks a wire state against it.
enum class VmState { kBooting, kActive, kDraining, kStopped, kFailed };

class Vm {
 public:
  /// Drain-completion signal: `failed` is false for a clean drain (VM is
  /// STOPPED) and true when the VM crashed mid-drain (VM is FAILED) — the
  /// callback fires exactly once either way, so scale-in bookkeeping never
  /// leaks a pending drain.
  using DrainCallback = std::function<void(Vm&, bool failed)>;

  /// `index` is the tier-local launch index (the N of "<tier>-vmN").
  /// `on_active` fires when the preparation period elapses (synchronously if
  /// boot_delay == 0).
  Vm(sim::Engine& engine, std::string id, int index, std::unique_ptr<Server> server,
     sim::SimTime boot_delay, std::function<void(Vm&)> on_active);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  /// Stops accepting work and fires `on_stopped` once in-flight requests
  /// drain (immediately if already idle). Only valid when ACTIVE.
  void begin_drain(DrainCallback on_stopped);

  /// Failure injection: abrupt crash of the VM. All in-flight requests fail
  /// immediately (Server::crash()), the server goes offline (new work is
  /// refused until someone brings it back), and a pending drain callback is
  /// notified with failed=true. Valid in any live state; a booting VM
  /// simply never comes up.
  void fail();

  const std::string& id() const { return id_; }
  int index() const { return index_; }
  VmState state() const { return state_; }
  Server& server() { return *server_; }
  const Server& server() const { return *server_; }
  sim::SimTime launched_at() const { return launched_at_; }

 private:
  void activate();
  void finish_drain(bool failed);

  sim::Engine* engine_;
  std::string id_;
  int index_;
  std::unique_ptr<Server> server_;
  std::function<void(Vm&)> on_active_;  // fired once, at activation
  VmState state_ = VmState::kBooting;
  sim::SimTime launched_at_ = 0;
  sim::EventHandle boot_event_;
  DrainCallback drain_callback_;
};

}  // namespace dcm::ntier
