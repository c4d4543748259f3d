#include "ntier/slot_pool.h"

#include <cstring>
#include <utility>

#include "common/check.h"

namespace dcm::ntier {

SlotPool::SlotPool(sim::Engine& engine, std::string name, int capacity)
    : engine_(&engine), name_(std::move(name)), capacity_(capacity) {
  DCM_CHECK_MSG(capacity >= 1, "pool needs at least one slot");
  integral_updated_ = engine_->now();
}

SlotPool::SlotPool(sim::Engine& engine, const std::string& base, const char* suffix,
                   int capacity)
    : engine_(&engine), name_base_(&base), name_suffix_(suffix), capacity_(capacity) {
  DCM_CHECK_MSG(capacity >= 1, "pool needs at least one slot");
  integral_updated_ = engine_->now();
}

const std::string& SlotPool::name() const {
  if (name_.empty() && name_base_ != nullptr) {
    name_.reserve(name_base_->size() + std::strlen(name_suffix_));
    name_ = *name_base_;
    name_ += name_suffix_;
  }
  return name_;
}

void SlotPool::accumulate_integral() const {
  const sim::SimTime now = engine_->now();
  in_use_integral_ += static_cast<double>(in_use_) * sim::to_seconds(now - integral_updated_);
  integral_updated_ = now;
}

double SlotPool::in_use_integral() const {
  // Fold in the span since the last state change so reads are current.
  accumulate_integral();
  return in_use_integral_;
}

void SlotPool::acquire(sim::EventFn grant) {
  if (in_use_ < capacity_) [[likely]] {
    // Uncontended admission: one predicted branch, then straight-line
    // bookkeeping. wait_stats_ still sees an exact 0.0 sample so the
    // aggregate statistics are bit-identical to the queued path's formula.
    accumulate_integral();
    ++in_use_;
    ++total_acquired_;
    wait_stats_.add(0.0);
    grant();
    return;
  }
  enqueue_waiter(std::move(grant));
}

void SlotPool::enqueue_waiter(sim::EventFn grant) {
  if (waiter_count_ == waiters_.size()) {
    // Grow to the next power of two, linearizing live waiters at the front.
    std::vector<Waiter> grown(waiters_.empty() ? 8 : waiters_.size() * 2);
    for (size_t i = 0; i < waiter_count_; ++i) {
      grown[i] = std::move(waiters_[(waiter_head_ + i) & (waiters_.size() - 1)]);
    }
    waiters_ = std::move(grown);
    waiter_head_ = 0;
  }
  Waiter& slot = waiters_[(waiter_head_ + waiter_count_) & (waiters_.size() - 1)];
  slot.grant = std::move(grant);
  slot.enqueued = engine_->now();
  ++waiter_count_;
}

void SlotPool::release() {
  DCM_CHECK_MSG(in_use_ > 0, "release without acquire");
  accumulate_integral();
  --in_use_;
  if (waiter_count_ == 0 || in_use_ >= capacity_) [[likely]] return;
  grant_from_queue();
}

void SlotPool::grant_from_queue() {
  Waiter& head = waiters_[waiter_head_];
  sim::EventFn grant = std::move(head.grant);
  const sim::SimTime enqueued = head.enqueued;
  waiter_head_ = (waiter_head_ + 1) & (waiters_.size() - 1);
  --waiter_count_;
  accumulate_integral();
  ++in_use_;
  ++total_acquired_;
  wait_stats_.add(sim::to_seconds(engine_->now() - enqueued));
  grant();
}

void SlotPool::reset() {
  accumulate_integral();
  in_use_ = 0;
  for (size_t i = 0; i < waiter_count_; ++i) {
    waiters_[(waiter_head_ + i) & (waiters_.size() - 1)].grant.reset();
  }
  waiter_head_ = 0;
  waiter_count_ = 0;
}

void SlotPool::release_storage() {
  DCM_CHECK_MSG(waiter_count_ == 0, "releasing a pool with waiters");
  std::vector<Waiter>().swap(waiters_);
  waiter_head_ = 0;
}

void SlotPool::resize(int capacity) {
  DCM_CHECK_MSG(capacity >= 1, "pool needs at least one slot");
  capacity_ = capacity;
  while (waiter_count_ > 0 && in_use_ < capacity_) {
    grant_from_queue();
  }
}

}  // namespace dcm::ntier
