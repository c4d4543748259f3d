#include "sim/engine.h"

#include <cstdio>

#include "common/check.h"
#include "sim/time.h"

namespace dcm::sim {

std::string format_time(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", to_seconds(t));
  return buf;
}

void EventHandle::cancel() {
  if (owner_ == nullptr) return;
  if (periodic()) {
    static_cast<Engine*>(owner_)->cancel_periodic({slot(), generation_});
  } else {
    static_cast<EventQueue*>(owner_)->cancel(slot_, generation_);
  }
}

EventHandle Engine::schedule_after(SimTime delay, EventFn fn) {
  DCM_CHECK_MSG(delay >= 0, "negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventHandle Engine::schedule_at(SimTime at, EventFn fn) {
  DCM_CHECK_MSG(at >= now_, "scheduling into the past");
  return queue_.schedule(at, std::move(fn));
}

bool Engine::retime_after(const EventHandle& handle, SimTime delay) {
  DCM_CHECK_MSG(delay >= 0, "negative delay");
  return queue_.retime(handle, now_ + delay);
}

EventHandle Engine::schedule_periodic(SimTime period, EventFn fn) {
  DCM_CHECK_MSG(period > 0, "periodic task needs positive period");
  const PeriodicHandle h = periodics_.alloc();
  DCM_CHECK_MSG(h.index < EventHandle::kPeriodicBit, "periodic slab exhausted");
  PeriodicTask& task = *periodics_.get(h);
  task.fn = std::move(fn);
  task.period = period;
  task.pending = schedule_after(period, [this, h] { fire_periodic(h); });
  return EventHandle(this, h.index | EventHandle::kPeriodicBit, h.gen);
}

void Engine::fire_periodic(PeriodicHandle h) {
  if (periodics_.get(h) == nullptr) return;
  // The callable is moved out for the duration of the call so that a
  // cancel() from inside it (or a slab growth it triggers) cannot destroy
  // or relocate it mid-invocation.
  EventFn body = std::move(periodics_.get(h)->fn);
  body();
  // Re-lookup: body() may grow the slab, or cancel the chain.
  if (PeriodicTask* task = periodics_.get(h)) {
    task->fn = std::move(body);
    task->pending = schedule_after(task->period, [this, h] { fire_periodic(h); });
  }
  // else: cancelled from inside body(); captured state dies with `body` here.
}

void Engine::cancel_periodic(PeriodicHandle h) {
  PeriodicTask* task = periodics_.get(h);
  if (task == nullptr) return;
  task->pending.cancel();
  // Destroys the callable, or nothing if we are inside fire_periodic (the
  // moved-out body cleans up).
  periodics_.free(h);
}

void Engine::run_until(SimTime end) {
  DCM_CHECK_MSG(end >= now_, "run_until into the past");
  EventQueue::Popped event;
  while (queue_.pop_until(end, event)) {
    DCM_CHECK(event.time >= now_);
    now_ = event.time;
    ++dispatched_;
    event.fn();
  }
  now_ = end;
}

void Engine::run_for(SimTime duration) { run_until(now_ + duration); }

void Engine::run_to_completion() {
  EventQueue::Popped event;
  while (queue_.pop_until(kMaxSimTime, event)) {
    DCM_CHECK(event.time >= now_);
    now_ = event.time;
    ++dispatched_;
    event.fn();
  }
}

}  // namespace dcm::sim
