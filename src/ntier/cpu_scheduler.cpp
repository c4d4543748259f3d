#include "ntier/cpu_scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::ntier {

double CpuModelConfig::inflated_service_time(double n) const {
  double s = model::inflated_service_time(params, n);
  if (thrash_factor > 0.0 && n > thrash_threshold) {
    const double over = n - thrash_threshold;
    s += thrash_factor * over * over;
  }
  return s;
}

double CpuModelConfig::capacity(double n) const {
  if (n < 1.0) n = 1.0;
  return n * params.s0 / inflated_service_time(n);
}

double CpuModelConfig::throughput_at(double n) const {
  if (n < 1.0) n = 1.0;
  return n / inflated_service_time(n);
}

CpuScheduler::CpuScheduler(sim::Engine& engine, CpuModelConfig config)
    : engine_(&engine), config_(config) {
  DCM_CHECK(config_.params.valid());
  last_advance_ = engine_->now();
}

void CpuScheduler::refresh_rates() {
  if (live_jobs_ == 0) {
    cached_rate_ = 0.0;
    cached_util_ = 0.0;
    return;
  }
  const double n = std::max<double>(thread_count_, static_cast<double>(live_jobs_));
  // Two-entry memo for cap(n): a dispatch step alternates between adjacent
  // effective concurrencies (a submit raises n, the matching completion
  // lowers it back), so both hot keys stay resident. Same n in, same cap
  // out — bit-identical to recomputing the polynomial.
  double cap;
  if (n == cap_memo_key_[0]) {
    cap = cap_memo_val_[0];
  } else if (n == cap_memo_key_[1]) {
    cap = cap_memo_val_[1];
  } else {
    cap = config_.capacity(n);
    cap_memo_key_[1] = cap_memo_key_[0];
    cap_memo_val_[1] = cap_memo_val_[0];
    cap_memo_key_[0] = n;
    cap_memo_val_[0] = cap;
  }
  // capacity_factor_ scales both total capacity and the single-thread speed
  // clamp; at exactly 1.0 this multiplies by the IEEE identity.
  cached_rate_ = capacity_factor_ * std::min(1.0, cap / static_cast<double>(live_jobs_));
  cached_util_ =
      std::min(1.0, static_cast<double>(live_jobs_) / (capacity_factor_ * cap));
}

void CpuScheduler::advance() const {
  const sim::SimTime now = engine_->now();
  if (now == last_advance_) return;
  const double dt = sim::to_seconds(now - last_advance_);
  virtual_clock_ += cached_rate_ * dt;
  util_integral_ += cached_util_ * dt;
  work_done_ += cached_rate_ * static_cast<double>(live_jobs_) * dt;
  last_advance_ = now;
}

void CpuScheduler::maybe_reanchor() {
  // Callers guarantee live_jobs_ == 0 (the queue is empty, so no pending
  // finish-virtual marks are orphaned by resetting the clock).
  if (virtual_clock_ < kReanchorVirtualClock) return;
  virtual_clock_ = 0.0;
  work_done_ = completed_work_exact_;
}

double CpuScheduler::util_integral() const {
  advance();
  return util_integral_;
}

void CpuScheduler::reschedule() {
  if (live_jobs_ == 0) {
    pending_completion_.cancel();
    pending_live_ = false;
    return;
  }
  const double rate = cached_rate_;
  DCM_CHECK(rate > 0.0);
  const double remaining = jobs_.top().finish_virtual - virtual_clock_;
  const double dt_seconds = std::max(0.0, remaining / rate);
  // Ceil to a whole nanosecond so the virtual clock is guaranteed to have
  // crossed the finish mark when the event fires. Open-coded as truncate +
  // bump: for non-negative values below 2^53 (any representable delay) this
  // is bit-identical to std::ceil but avoids a libm call on baseline x86-64,
  // which lacks a ceiling instruction — this runs once per reschedule.
  const double scaled = dt_seconds * static_cast<double>(sim::kNanosPerSecond);
  auto delay = static_cast<sim::SimTime>(scaled);
  if (static_cast<double>(delay) < scaled) ++delay;
  const sim::SimTime fire_at = engine_->now() + delay;
  if (pending_live_) {
    // Same fire instant as the event already in the queue: keep it. The
    // timing is identical by construction (compared in whole nanoseconds).
    if (fire_at == pending_fire_at_) return;
    // Move the pending event in place; it fires exactly where a cancel +
    // schedule pair would put it (the retime draws a fresh sequence number).
    const bool moved = engine_->retime_after(pending_completion_, delay);
    DCM_CHECK_MSG(moved, "pending CPU completion went stale");
  } else {
    pending_completion_ = engine_->schedule_after(delay, [this] { on_completion_event(); });
    pending_live_ = true;
  }
  pending_fire_at_ = fire_at;
}

void CpuScheduler::on_completion_event() {
  pending_live_ = false;  // this event just consumed itself
  advance();
  constexpr double kEps = 1e-12;
  const double due = virtual_clock_ + kEps;  // fixed while jobs pop (dt = 0)
  if (jobs_.empty() || jobs_.top().finish_virtual > due) {
    // Spurious wake (the due job was aborted between scheduling and firing).
    refresh_rates();
    reschedule();
    return;
  }
  // Pop the first due job inline: almost every completion event retires
  // exactly one job, and that case needs no callback staging vector at all.
  const Job first = jobs_.top();
  completed_work_exact_ += first.work;
  sim::EventFn first_fn;
  done_.take(done_.handle(first.done_slot), first_fn);
  jobs_.pop();
  --live_jobs_;
  ++jobs_completed_;
  if (jobs_.empty() || jobs_.top().finish_virtual > due) {
    if (live_jobs_ == 0) maybe_reanchor();
    in_callbacks_ = true;
    first_fn();
    in_callbacks_ = false;
    refresh_rates();
    reschedule();
    return;
  }
  // Batch path: several jobs share this finish instant. Move the scratch out
  // while callbacks run (they may re-enter submit(), which must not touch a
  // vector we are iterating), and move it back after so its capacity is
  // reused — zero steady-state allocation.
  std::vector<sim::EventFn> done_fns = std::move(done_scratch_);
  done_fns.clear();
  done_fns.push_back(std::move(first_fn));
  while (!jobs_.empty() && jobs_.top().finish_virtual <= due) {
    const Job& top = jobs_.top();
    completed_work_exact_ += top.work;
    done_.take(done_.handle(top.done_slot), done_fns.emplace_back());
    jobs_.pop();
    --live_jobs_;
    ++jobs_completed_;
  }
  if (live_jobs_ == 0) maybe_reanchor();
  // Defer both the rate refresh and the next completion's scheduling until
  // the callbacks have run: on a busy server a completion releases a worker
  // whose grant immediately submits the next job, which would cancel and
  // replace anything scheduled here. All of that happens at this same sim
  // instant, so advance() is a no-op throughout (dt = 0) and never reads the
  // cached rates — only the values settled below, before time moves again,
  // are observable. in_callbacks_ makes the callbacks' own mutations skip
  // their refresh + reschedule; the single pair below sees the final state.
  in_callbacks_ = true;
  for (auto& fn : done_fns) fn();
  in_callbacks_ = false;
  refresh_rates();
  reschedule();
  done_fns.clear();
  done_scratch_ = std::move(done_fns);
}

void CpuScheduler::push_job(double work, sim::EventFn&& done) {
  const sim::Slab<sim::EventFn>::Handle h = done_.alloc();
  *done_.get(h) = std::move(done);
  jobs_.push(Job{virtual_clock_ + work, next_seq_++, work, h.index});
  ++live_jobs_;
}

void CpuScheduler::submit(double work, sim::EventFn done) {
  DCM_CHECK(work >= 0.0);
  advance();
  push_job(work, std::move(done));
  if (!in_callbacks_) {
    refresh_rates();
    reschedule();
  }
}

void CpuScheduler::submit_with_thread_count(int n, double work, sim::EventFn done) {
  DCM_CHECK(work >= 0.0);
  DCM_CHECK(n >= 0);
  advance();
  thread_count_ = n;
  push_job(work, std::move(done));
  if (!in_callbacks_) {
    refresh_rates();
    reschedule();
  }
}

void CpuScheduler::abort_all() {
  advance();
  while (!jobs_.empty()) {
    done_.free(done_.handle(jobs_.top().done_slot));  // drop the callback and its captures now
    jobs_.pop();
  }
  live_jobs_ = 0;
  // Dropped jobs leave partial progress inside work_done_ that has no exact
  // expression — adopt the integral as the new drift-free baseline.
  completed_work_exact_ = work_done_;
  maybe_reanchor();
  refresh_rates();
  pending_completion_.cancel();
  pending_live_ = false;
}

namespace {

// The capacity of a priority_queue's protected container, read through a
// pointer to member named in a derived class, so jobs_ keeps its plain
// priority_queue type and the completion path its code.
template <typename Queue>
size_t heap_capacity(const Queue& queue) {
  struct Peek : Queue {
    static size_t capacity(const Queue& q) { return (q.*&Peek::c).capacity(); }
  };
  return Peek::capacity(queue);
}

}  // namespace

void CpuScheduler::release_storage() {
  DCM_CHECK_MSG(live_jobs_ == 0 && !in_callbacks_, "releasing a busy CPU scheduler");
  jobs_ = {};
  done_ = sim::Slab<sim::EventFn>();
  std::vector<sim::EventFn>().swap(done_scratch_);
}

size_t CpuScheduler::bytes_reserved() const {
  return heap_capacity(jobs_) * sizeof(Job) + done_.bytes_reserved() +
         done_scratch_.capacity() * sizeof(sim::EventFn);
}

void CpuScheduler::set_capacity_factor(double factor) {
  DCM_CHECK_MSG(factor > 0.0, "capacity factor must be positive");
  if (factor == capacity_factor_) return;
  advance();  // fold elapsed time at the old rate before the change
  capacity_factor_ = factor;
  if (in_callbacks_) return;  // on_completion_event refreshes + reschedules
  refresh_rates();
  if (live_jobs_ > 0) reschedule();
}

void CpuScheduler::set_thread_count(int n) {
  DCM_CHECK(n >= 0);
  if (n == thread_count_) return;
  // Worker churn fast path: when both the old and the new count sit at or
  // below the live-job count, the effective concurrency max(threads, jobs)
  // stays pinned by the jobs — rate, utilisation, and the pending completion
  // are all bit-identical, so only the count needs recording. This is the
  // common case on a saturated server, where every worker acquire/release
  // reports a new count.
  if (live_jobs_ > 0 && static_cast<uint64_t>(n) <= live_jobs_ &&
      static_cast<uint64_t>(thread_count_) <= live_jobs_) {
    thread_count_ = n;
    return;
  }
  advance();
  thread_count_ = n;
  if (in_callbacks_) return;  // on_completion_event refreshes + reschedules
  refresh_rates();
  if (live_jobs_ > 0) reschedule();
}

}  // namespace dcm::ntier
