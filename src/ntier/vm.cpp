#include "ntier/vm.h"

#include "common/check.h"

namespace dcm::ntier {

Vm::Vm(sim::Engine& engine, std::string id, int index, std::unique_ptr<Server> server,
       sim::SimTime boot_delay, std::function<void(Vm&)> on_active)
    : engine_(&engine),
      id_(std::move(id)),
      index_(index),
      server_(std::move(server)),
      on_active_(std::move(on_active)) {
  DCM_CHECK(server_ != nullptr);
  DCM_CHECK(boot_delay >= 0);
  launched_at_ = engine_->now();
  if (boot_delay == 0) {
    activate();
  } else {
    boot_event_ = engine_->schedule_after(boot_delay, [this] { activate(); });
  }
}

void Vm::activate() {
  state_ = VmState::kActive;
  // Moved out first: the callback runs once, and may launch further VMs.
  std::function<void(Vm&)> cb = std::move(on_active_);
  if (cb) cb(*this);
}

void Vm::fail() {
  DCM_CHECK_MSG(state_ != VmState::kStopped && state_ != VmState::kFailed,
                "failing a dead VM");
  boot_event_.cancel();  // a booting VM never activates
  server_->set_idle_callback(nullptr);
  const bool was_draining = state_ == VmState::kDraining;
  state_ = VmState::kFailed;
  server_->set_online(false);
  server_->crash();
  server_->retire();
  // A crash mid-drain must still complete the drain handshake — with a
  // failed=true signal — or the scale-in bookkeeping waits forever.
  if (was_draining) finish_drain(/*failed=*/true);
}

void Vm::begin_drain(DrainCallback on_stopped) {
  DCM_CHECK_MSG(state_ == VmState::kActive, "can only drain an active VM");
  state_ = VmState::kDraining;
  drain_callback_ = std::move(on_stopped);
  if (server_->in_flight() == 0) {
    finish_drain(/*failed=*/false);
  } else {
    server_->set_idle_callback([this] { finish_drain(/*failed=*/false); });
  }
}

void Vm::finish_drain(bool failed) {
  server_->set_idle_callback(nullptr);
  if (!failed) {
    state_ = VmState::kStopped;
    server_->retire();
  }
  // Move out first: the callback may start another drain elsewhere.
  DrainCallback cb = std::move(drain_callback_);
  drain_callback_ = nullptr;
  if (cb) cb(*this, failed);
}

}  // namespace dcm::ntier
