// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, scheduling-order)
// order. Components hold a reference to the engine, schedule callbacks, and
// read the clock via now().
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/arena.h"
#include "sim/event_queue.h"
#include "sim/slab.h"
#include "sim/time.h"

namespace dcm::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedules `fn` after `delay` (>= 0) relative to now().
  EventHandle schedule_after(SimTime delay, EventFn fn);

  /// Schedules `fn` at absolute time `at` (>= now()).
  EventHandle schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` every `period` starting at now()+period, until the
  /// returned handle is cancelled or the run ends. The engine owns the
  /// callable; cancelling destroys it (and everything it captures).
  EventHandle schedule_periodic(SimTime period, EventFn fn);

  /// Moves the pending event behind `handle` to now() + `delay` (>= 0) in
  /// place: same callable, no slab traffic. Fires in exactly the order a
  /// cancel() + schedule_after() pair would produce. Returns false, changing
  /// nothing, when the event already fired or was cancelled.
  bool retime_after(const EventHandle& handle, SimTime delay);

  /// Runs until the queue drains or the clock would pass `end`; the clock is
  /// left at min(end, last-event-time... ) — precisely: events with time <=
  /// end fire, then now() becomes end.
  void run_until(SimTime end);

  /// run_until(now() + duration).
  void run_for(SimTime duration);

  /// Runs until the queue fully drains (use only with self-limiting models).
  void run_to_completion();

  /// Number of events dispatched so far (for microbenches/diagnostics).
  uint64_t events_dispatched() const { return dispatched_; }

  /// Exact number of pending events (a periodic chain counts its one
  /// scheduled tick). For tests and diagnostics.
  size_t pending_events() const { return queue_.pending(); }

  /// Run-scoped allocation arena for hot-path objects (request contexts and
  /// friends). Everything allocated from it must die before the engine does.
  Arena& arena() { return arena_; }

  /// Bytes one periodic chain occupies in the engine's periodic slab.
  static constexpr size_t periodic_slot_bytes() { return Slab<PeriodicTask>::slot_bytes(); }

 private:
  friend class EventHandle;

  // Periodic chains live in an engine-owned slab: the callable is stored
  // once here (never copied into the queue) and each tick schedules a thin
  // (slot, generation) trampoline. This is what breaks the old
  // shared_ptr<function> self-capture cycle — cancel_periodic() destroys
  // the callable deterministically.
  struct PeriodicTask {
    EventFn fn;
    SimTime period = 0;
    EventHandle pending;  // the currently scheduled tick
  };
  using PeriodicHandle = Slab<PeriodicTask>::Handle;

  void fire_periodic(PeriodicHandle h);
  void cancel_periodic(PeriodicHandle h);

  // First member on purpose: destroyed LAST, after queue_ has released any
  // pending callbacks that still hold arena-backed shared_ptrs.
  Arena arena_;
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t dispatched_ = 0;
  Slab<PeriodicTask> periodics_;
};

}  // namespace dcm::sim
