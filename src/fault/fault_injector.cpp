#include "fault/fault_injector.h"

#include "common/check.h"
#include "common/logging.h"
#include "common/strings.h"

namespace dcm::fault {

FaultInjector::FaultInjector(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                             ntier::MonitorFleet* fleet, FaultPlan plan)
    : engine_(&engine), app_(&app), broker_(&broker), fleet_(fleet), plan_(std::move(plan)) {
  DCM_CHECK_MSG(app_->tier_count() >= 2, "fault injection needs a scalable tier");
  arm();
}

void FaultInjector::arm() {
  armed_.reserve(plan_.events.size());
  // plan_ never changes after construction, so each event is captured by
  // reference: the callable stays within EventFn's inline buffer.
  for (const FaultEvent& event : plan_.events) {
    armed_.push_back(engine_->schedule_at(event.at, [this, &event] { inject(event); }));
  }
}

ntier::Tier* FaultInjector::next_target_tier() {
  // Rotate over the scalable tiers (the front tier is spared — killing the
  // single entry point ends the experiment rather than testing resilience).
  const size_t scalable = app_->tier_count() - 1;
  const size_t depth = 1 + (rotation_++ % scalable);
  return &app_->tier(depth);
}

void FaultInjector::record(const char* kind, const std::string& target,
                           const std::string& detail) {
  log_.push_back(FaultLogEntry{engine_->now(), kind, target, detail});
}

void FaultInjector::inject(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kVmCrash: {
      ntier::Tier* tier = next_target_tier();
      ntier::Vm* vm = tier->oldest_active_vm();
      if (vm == nullptr) {
        record("skipped", "", str_format("%s: no active VM in %s",
                                         fault_kind_name(event.kind), tier->name().c_str()));
        return;
      }
      tier->inject_crash(vm->id());
      ++injected_;
      record(fault_kind_name(event.kind), vm->id(), tier->name());
      return;
    }
    case FaultKind::kVmSlowdown: {
      ntier::Tier* tier = next_target_tier();
      ntier::Vm* vm = tier->oldest_active_vm();
      if (vm == nullptr) {
        record("skipped", "", str_format("%s: no active VM in %s",
                                         fault_kind_name(event.kind), tier->name().c_str()));
        return;
      }
      vm->server().set_cpu_capacity_factor(event.severity);
      ++injected_;
      record(fault_kind_name(event.kind), vm->id(),
             str_format("factor=%.3f for %.0fs", event.severity,
                        sim::to_seconds(event.duration)));
      // Recover after the window. The Vm outlives the run (tiers never
      // erase), so capturing the pointer is safe; restoring a crashed VM's
      // factor is harmless.
      armed_.push_back(engine_->schedule_after(event.duration, [this, vm] {
        vm->server().set_cpu_capacity_factor(1.0);
        record("vm_recover", vm->id(), "capacity restored");
      }));
      return;
    }
    case FaultKind::kTelemetryLoss: {
      bus::Topic* topic = broker_->find_topic(ntier::kMetricsTopic);
      if (topic == nullptr) {
        record("skipped", "", "telemetry_loss: metrics topic absent");
        return;
      }
      topic->set_drop_until(engine_->now() + event.duration);
      ++injected_;
      record(fault_kind_name(event.kind), ntier::kMetricsTopic,
             str_format("drop for %.0fs", sim::to_seconds(event.duration)));
      return;
    }
    case FaultKind::kAgentSilence: {
      if (fleet_ == nullptr) {
        record("skipped", "", "agent_silence: no monitor fleet");
        return;
      }
      ntier::Tier* tier = next_target_tier();
      ntier::Vm* vm = tier->oldest_active_vm();
      if (vm == nullptr || !fleet_->silence_vm(vm->id(), engine_->now() + event.duration)) {
        record("skipped", "", str_format("%s: no monitored VM in %s",
                                         fault_kind_name(event.kind), tier->name().c_str()));
        return;
      }
      ++injected_;
      record(fault_kind_name(event.kind), vm->id(),
             str_format("silent for %.0fs", sim::to_seconds(event.duration)));
      return;
    }
  }
}

}  // namespace dcm::fault
