// State-dependent processor-sharing CPU model.
//
// This is where the paper's multi-threading service-time model (Sec. III-B)
// becomes the simulator's ground truth. With N busy worker threads on the
// server (including threads blocked on downstream calls — they still incur
// context/coherency overhead), the inflated per-request service time is
//
//   S*(N) = S0 + α(N−1) + βN(N−1) + θ·max(0, N−T)²
//
// The first three terms are the paper's Eq. 5; the θ term is a "thrash"
// extension modelling the sharp collapse a real MySQL exhibits past a memory
// /lock-contention threshold T (the paper's Fig. 2a shows this cliff; the
// quadratic alone is too gentle). The aggregate CPU capacity is then
//
//   cap(N) = N·S0 / S*(N)   [work-seconds per second]
//
// shared equally among the n_c jobs currently executing CPU work, with each
// job's progress clamped at 1 work-sec/sec (a single thread cannot run
// faster than real time). For a leaf tier where every thread is CPU-active,
// the completion rate at concurrency N is exactly N/S*(N) — Eq. 7.
//
// Implementation: virtual-time processor sharing. All active jobs progress
// at the same rate, so each job finishes when the shared virtual-work clock
// V reaches (V at entry + its work); a min-heap keyed on that finish value
// yields O(log n) per event.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "model/concurrency_model.h"
#include "sim/engine.h"
#include "sim/slab.h"

namespace dcm::ntier {

struct CpuModelConfig {
  model::ServiceTimeParams params;  // S0 (reference demand), α, β
  double thrash_threshold = 1e18;   // T — concurrency where thrashing starts
  double thrash_factor = 0.0;       // θ — quadratic thrash coefficient

  /// S*(n) including the thrash extension.
  double inflated_service_time(double n) const;
  /// cap(n) in work-seconds/second.
  double capacity(double n) const;
  /// n / S*(n) — requests/second a leaf server sustains at concurrency n.
  double throughput_at(double n) const;
};

class CpuScheduler {
 public:
  CpuScheduler(sim::Engine& engine, CpuModelConfig config);

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  /// Submits `work` seconds of single-threaded CPU work; `done` fires when
  /// it completes under processor sharing. The callback type is the engine's
  /// SBO EventFn: small captures ride through the slab as plain byte copies
  /// instead of indirect std::function manager calls — this path runs once
  /// per CPU span, the hottest callback churn in the simulator.
  void submit(double work, sim::EventFn done);

  /// Fused set_thread_count(n) + submit(work, done) for the worker-grant
  /// path, where the two always happen back to back at the same instant.
  /// Bit-identical end state and completion timing; the intermediate
  /// reschedule (whose event the submit would immediately cancel) and the
  /// duplicate rate refresh are elided.
  void submit_with_thread_count(int n, double work, sim::EventFn done);

  /// The owning server reports its busy worker-thread count (capacity input).
  void set_thread_count(int n);

  /// Drops every in-progress job without running its completion callback —
  /// the CPU side of a server crash. Accounting up to now is preserved.
  void abort_all();

  /// Frees the job heap, the completion slab and the callback scratch. Only
  /// with no job in flight and outside a completion event — for a server
  /// that is offline for good. Every counter and integral stays readable.
  void release_storage();
  /// Bytes the job heap, completion slab and callback scratch hold.
  size_t bytes_reserved() const;

  /// Fault injection: scales total capacity and the per-thread speed clamp.
  /// 1.0 (the default) is bit-identical to the unscaled model; 0.25 models a
  /// VM degraded to a quarter of its speed. Must be > 0.
  void set_capacity_factor(double factor);
  double capacity_factor() const { return capacity_factor_; }

  int active_jobs() const { return static_cast<int>(live_jobs_); }
  int thread_count() const { return thread_count_; }

  /// ∫ utilisation dt (seconds); utilisation is 1.0 when the CPU is the
  /// limiting factor and n_active/cap(N) when jobs are self-limited.
  double util_integral() const;
  /// Total work-seconds completed.
  double work_done() const {
    advance();
    return work_done_;
  }
  uint64_t jobs_completed() const { return jobs_completed_; }

  const CpuModelConfig& config() const { return config_; }

 private:
  /// 32-byte POD heap entry: the completion callback lives in done_
  /// (indexed by done_slot), so priority-queue sifts copy plain bytes
  /// instead of moving a std::function per level.
  struct Job {
    double finish_virtual;
    uint64_t seq;
    double work;  // nominal work-seconds (exact completed-work accounting)
    uint32_t done_slot;
  };
  struct LaterFinish {
    bool operator()(const Job& a, const Job& b) const {
      if (a.finish_virtual != b.finish_virtual) return a.finish_virtual > b.finish_virtual;
      return a.seq > b.seq;
    }
  };

  /// Folds elapsed wall time into the virtual clock and the util integral.
  void advance() const;
  /// Recomputes the cached per-job rate / utilisation. Both depend only on
  /// (live_jobs_, thread_count_, capacity_factor_), so they are refreshed
  /// once per state change instead of on every advance() — bit-identical
  /// values, computed once per dispatch step instead of per query.
  void refresh_rates();
  /// FP-drift fix: once the virtual clock has grown past a threshold, the
  /// accumulated `rate · dt` increments carry visible rounding error. When
  /// the CPU idles no job is in flight, so the true total work equals the
  /// exact sum of completed work and the virtual clock's absolute value is
  /// meaningless (only differences matter) — re-anchor both. The threshold
  /// sits far above what any registered scenario reaches, so committed
  /// digests are untouched; million-event soak runs get the correction.
  void maybe_reanchor();
  void reschedule();
  void on_completion_event();
  void push_job(double work, sim::EventFn&& done);

  static constexpr double kReanchorVirtualClock = 4096.0;

  sim::Engine* engine_;
  CpuModelConfig config_;

  std::priority_queue<Job, std::vector<Job>, LaterFinish> jobs_;
  /// Completion callbacks for in-flight jobs, indexed by Job::done_slot.
  sim::Slab<sim::EventFn> done_;
  uint64_t live_jobs_ = 0;
  uint64_t next_seq_ = 0;
  int thread_count_ = 0;
  double capacity_factor_ = 1.0;

  mutable double virtual_clock_ = 0.0;
  mutable double util_integral_ = 0.0;
  mutable sim::SimTime last_advance_ = 0;

  // Cached refresh_rates() outputs (see above).
  double cached_rate_ = 0.0;
  double cached_util_ = 0.0;
  // Two-entry memo of config_.capacity(n) keyed by effective concurrency n
  // (-1 never matches a real key: n >= 1 in refresh_rates). cap(n) is a pure
  // function of n, so hits are bit-identical to recomputation.
  double cap_memo_key_[2] = {-1.0, -1.0};
  double cap_memo_val_[2] = {0.0, 0.0};

  /// The one completion event; while pending_live_, reschedule() retimes it
  /// in place instead of cancelling and re-arming it.
  sim::EventHandle pending_completion_;
  /// Absolute fire time of pending_completion_ while pending_live_. Lets
  /// reschedule() keep the already-scheduled event when the recomputed fire
  /// instant is identical (common under worker-churn: set_thread_count fires
  /// on every acquire/release but n = max(threads, jobs) is often pinned by
  /// the job count) — skipping even the retime per no-op call.
  sim::SimTime pending_fire_at_ = 0;
  bool pending_live_ = false;
  /// True while on_completion_event() runs the popped jobs' callbacks; state
  /// mutations they trigger (submit, thread-count changes) skip their own
  /// reschedule — on_completion_event issues one against the settled state.
  bool in_callbacks_ = false;
  mutable double work_done_ = 0.0;
  /// Exact sum of completed jobs' nominal work — the drift-free reference
  /// maybe_reanchor() restores work_done_ to. abort_all() re-baselines it
  /// (dropped jobs leave partial progress that has no exact expression).
  double completed_work_exact_ = 0.0;
  uint64_t jobs_completed_ = 0;
  /// Completion-callback scratch, reused across events so a steady-state
  /// dispatch step allocates nothing.
  std::vector<sim::EventFn> done_scratch_;
};

}  // namespace dcm::ntier
