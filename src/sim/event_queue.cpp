#include "sim/event_queue.h"

#include "common/check.h"

namespace dcm::sim {

void EventQueue::grow_pos() {
  // Heap indices share their word with the band bit, so the slab (which
  // bounds every heap's size) stays below it.
  DCM_CHECK_MSG(pos_.size() < kFarBit, "event slab exhausted");
  pos_.push_back(0);
}

void EventQueue::cancel(uint32_t slot, uint32_t generation) {
  if (fns_.get({slot, generation}) == nullptr) return;  // already fired, cancelled, or reused
  // The callable dies after the heap is consistent again: destroying its
  // captures may cancel or schedule other events.
  EventFn dead;
  fns_.take({slot, generation}, dead);
  const uint32_t pos = pos_[slot];
  erase_at((pos & kFarBit) != 0 ? far_ : near_, pos & ~kFarBit);
}

bool EventQueue::retime(const EventHandle& handle, SimTime at) {
  if (!handle.valid()) return false;
  DCM_CHECK_MSG(!handle.periodic(), "retime of a periodic handle");
  DCM_CHECK_MSG(handle.owner_ == this, "retime through another queue's handle");
  const uint32_t slot = handle.slot();
  if (fns_.get({slot, handle.generation_}) == nullptr) return false;  // fired or cancelled
  const uint32_t pos = pos_[slot];
  std::vector<Entry>& from = (pos & kFarBit) != 0 ? far_ : near_;
  std::vector<Entry>& to = band_for(at);
  const size_t i = pos & ~kFarBit;
  if (&from != &to) {
    erase_at(from, i);
    push(Entry{at, next_seq_++, slot});
    return true;
  }
  Entry& e = from[i];
  e.time = at;
  e.seq = next_seq_++;
  resift(from, i);
  return true;
}

SimTime EventQueue::next_time() const {
  DCM_CHECK_MSG(!empty(), "next_time on empty queue");
  return (far_first() ? far_ : near_).front().time;
}

EventQueue::Popped EventQueue::pop() {
  Popped out{};
  const bool popped = pop_until(kMaxSimTime, out);
  DCM_CHECK_MSG(popped, "pop on empty queue");
  return out;
}

}  // namespace dcm::sim
