// Concurrency-limiting slot pool — the "soft resource" of the paper.
//
// One class models both kinds of pools DCM actuates: a server thread pool
// (Tomcat maxThreads, Apache workers) and a DB connection pool (Tomcat's
// DBConnP toward MySQL). A holder acquires a slot (waiting FIFO if none is
// free), does its work, and releases. resize() takes effect immediately when
// growing; shrinking is lazy — excess holders finish naturally and the pool
// re-admits only below the new capacity (this is exactly how the paper's
// APP-agent adjusts pools "on the fly without interrupting the runtime").
//
// Hot path: the uncontended acquire/release pair is a single predictable
// branch each; waiters live in a power-of-two ring buffer that reallocates
// only when the high-water mark grows, so steady-state queueing churns no
// heap memory (std::deque allocates/frees node blocks as it drains).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/welford.h"
#include "sim/engine.h"

namespace dcm::ntier {

class SlotPool {
 public:
  /// The engine reference is used only for wait-time accounting.
  SlotPool(sim::Engine& engine, std::string name, int capacity);

  /// Lazy-named variant: the pool's name is `base + suffix`, composed only
  /// if somebody asks for it. `base` must outlive the pool (Server passes
  /// its own config_.name) — this keeps string concatenation out of server
  /// construction, which sits on the VM-churn actuation path.
  SlotPool(sim::Engine& engine, const std::string& base, const char* suffix, int capacity);

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /// Requests a slot. If one is free the grant callback runs synchronously
  /// (before acquire returns); otherwise the request joins a FIFO queue.
  /// Grants are SBO EventFn callables — small captures queue and dispatch
  /// without std::function manager indirection (once per tier visit).
  void acquire(sim::EventFn grant);

  /// Returns a slot; dispatches the next waiter if capacity allows.
  void release();

  /// Live re-allocation (the APP-agent's lever). Growth admits waiters at
  /// once; shrink never evicts current holders.
  void resize(int capacity);

  /// Crash support: forcibly frees every slot and drops all waiters
  /// *without running their grant callbacks*. Occupancy accounting up to
  /// now is preserved. Callers are responsible for failing the work that
  /// held/awaited the slots.
  void reset();

  /// Frees the waiter ring (the pool must have no waiters). For a server
  /// that is offline for good; the counters, integral and wait statistics
  /// stay readable, and a later enqueue would simply grow a new ring.
  void release_storage();
  /// Bytes the waiter ring holds.
  size_t bytes_reserved() const { return waiters_.capacity() * sizeof(Waiter); }

  const std::string& name() const;
  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  int queue_length() const { return static_cast<int>(waiter_count_); }

  /// ∫ in_use dt in seconds — lets a sampler compute the time-weighted mean
  /// concurrency over any window by differencing.
  double in_use_integral() const;
  uint64_t total_acquired() const { return total_acquired_; }
  /// Wait-time stats across all grants so far (seconds).
  const metrics::Welford& wait_stats() const { return wait_stats_; }

  /// Bytes one queued waiter occupies in the ring (40: an EventFn plus its
  /// enqueue time).
  static constexpr size_t waiter_bytes() { return sizeof(Waiter); }

 private:
  struct Waiter {
    sim::EventFn grant;
    sim::SimTime enqueued = 0;
  };

  void enqueue_waiter(sim::EventFn grant);
  void grant_from_queue();
  void accumulate_integral() const;

  sim::Engine* engine_;
  mutable std::string name_;          // eager name, or lazily composed cache
  const std::string* name_base_ = nullptr;  // lazy mode only; owner-stable
  const char* name_suffix_ = "";
  int capacity_;
  int in_use_ = 0;

  // FIFO ring: live waiters occupy [head, head+count) mod size; size is a
  // power of two and only ever grows.
  std::vector<Waiter> waiters_;
  size_t waiter_head_ = 0;
  size_t waiter_count_ = 0;

  uint64_t total_acquired_ = 0;
  metrics::Welford wait_stats_;

  mutable double in_use_integral_ = 0.0;
  mutable sim::SimTime integral_updated_ = 0;
};

}  // namespace dcm::ntier
