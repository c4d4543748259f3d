// Generation-counted free-list slab: the one recycler for hot-path slots.
//
// A Handle is an 8-byte (index, generation) ticket. Freeing or re-keying a
// slot bumps its generation, so every outstanding copy of an older handle
// goes stale (get returns nullptr) and a late continuation carrying one is
// a no-op. Freed slots are reused last-in, first-out, and the slab never
// shrinks, so a steady-state alloc/free round trip allocates nothing.
//
// The slot header is one word of state: a 32-bit generation whose parity is
// the liveness bit (odd = live). alloc makes it odd, free and take make it
// even, rekey adds 2. Issued handles therefore always carry an odd
// generation, and get() rejects an even one — a default Handle{} or a
// never-issued slot's ticket never resolves. A slot costs sizeof(T) + 8
// bytes (generation plus free-list link), padded to T's alignment.
//
// Owners: the event queue's callables, the engine's periodic tasks, the CPU
// scheduler's completion callbacks, the server's visits and edge calls, and
// the closed-loop generator's users.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dcm::sim {

template <typename T>
class Slab {
 public:
  struct Handle {
    uint32_t index = 0;
    uint32_t gen = 0;
  };

  Handle alloc() {
    uint32_t idx = free_head_;
    if (idx != kNil) [[likely]] {
      free_head_ = slots_[idx].next_free;
    } else {
      idx = grow();
    }
    return {idx, ++slots_[idx].gen};
  }

  /// Resets the slot's value to T{} and makes every outstanding handle
  /// stale. The old value is destroyed last, once the free list is
  /// consistent again: its destructor may alloc from or free into this slab.
  void free(Handle h) {
    [[maybe_unused]] T dead = std::exchange(slots_[h.index].value, T{});
    release(h.index);
  }

  /// Moves the value into `out` and frees the slot without building a fresh
  /// T (the slot keeps a moved-from value until its next alloc). For owners
  /// that move the value out anyway; the caller destroys it. `out` must hold
  /// nothing to destroy (default-constructed or moved-from), so nothing dies
  /// before the free list is consistent. An out-parameter rather than a
  /// return value: the event pop assigns into a reused object, and staging
  /// the callable through a returned temporary made it measurably slower.
  void take(Handle h, T& out) {
    out = std::move(slots_[h.index].value);
    release(h.index);
  }

  /// Keeps the slot live (the parity is unchanged) but makes every
  /// outstanding copy of `h` stale.
  Handle rekey(Handle h) { return {h.index, slots_[h.index].gen += 2}; }

  /// nullptr if `h` is stale or was never issued. Invalidated by alloc (slab
  /// growth) — refetch after any call that can allocate from this slab.
  T* get(Handle h) {
    Slot& slot = slots_[h.index];
    // Zero iff the generations match and the handle's is odd: a matching
    // odd generation means the slot is live, so one test decides both.
    return ((slot.gen ^ h.gen) | (~h.gen & 1u)) == 0 ? &slot.value : nullptr;
  }

  /// Slots ever allocated (live or free): the peak live count.
  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }
  /// The live value at `index`, or nullptr.
  T* at(uint32_t index) { return live(slots_[index]) ? &slots_[index].value : nullptr; }
  /// The current handle of slot `index`.
  Handle handle(uint32_t index) const { return {index, slots_[index].gen}; }

  /// Bytes one slot occupies: the value plus the one-word header.
  static constexpr size_t slot_bytes() { return sizeof(Slot); }
  /// Bytes the slot array holds, live and free slots alike.
  size_t bytes_reserved() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  struct Slot {
    T value{};
    uint32_t gen = 0;  // odd = live; starts even (never issued)
    uint32_t next_free = kNil;
  };
  static bool live(const Slot& slot) { return (slot.gen & 1u) != 0; }

  // Kept out of line so that alloc's callers (EventQueue::schedule above
  // all) stay small enough to inline; growth is the cold path.
  [[gnu::noinline]] uint32_t grow() {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void release(uint32_t index) {
    Slot& slot = slots_[index];
    ++slot.gen;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
};

}  // namespace dcm::sim
