// Pending-event set for the discrete-event engine.
//
// Events at equal timestamps fire in scheduling order (FIFO), which the
// engine relies on for deterministic replay. The pending set is exact: a
// cancelled event is erased from the heap on the spot, so no dead entry is
// ever stored, sifted or popped, and pending() counts live events only.
//
// Hot-path design (the simulator spends most of its time here):
//  - EventFn is a 32-byte small-buffer-optimized move-only callable: captures
//    of up to kInlineCapacity (24) bytes and pointer alignment live inline,
//    larger ones fall back to the heap. Every steady-state capture fits
//    ([this, handle] is 16 bytes); only cold-path captures box. Each event
//    slab slot is therefore 40 bytes, a CPU completion 40 and a pool waiter
//    40 (EventFn plus its enqueue time).
//  - Handles are generation-counted: each scheduled event borrows a slot
//    from a sim::Slab; the 16-byte handle remembers (owner, slot,
//    generation) and a stale generation makes cancel()/retime() a no-op. No
//    per-event shared_ptr.
//  - The pending set is an owned vector-backed 4-ary min-heap whose entries
//    are 24-byte PODs (the callable stays in the slab), so sift operations
//    are plain copies and pop() moves the callable out exactly once.
//  - A position index (one uint32_t per slab slot: heap index plus a band
//    bit) is written on every sift move. It lets cancel() erase an entry in
//    O(log n) where it sits, and retime() move a live event to a new time
//    in place — same slot, same callable, no slab traffic.
// Steady-state schedule/pop/cancel/retime therefore performs zero heap
// allocations once the heap vectors and slab have grown to the working-set
// size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/slab.h"
#include "sim/time.h"

namespace dcm::sim {

/// Move-only callable with small-buffer optimization. Replaces
/// std::function<void()> on the scheduling hot path: captures of up to
/// kInlineCapacity bytes are stored inline (no allocation); larger callables
/// are boxed on the heap. Invocable repeatedly until destroyed or moved-from.
class EventFn {
 public:
  /// Captures at or below this size (and pointer alignment) live inline.
  /// Three words: [this, handle] and [this, handle, double] fit, which
  /// covers every per-event and per-visit continuation in the simulator.
  static constexpr size_t kInlineCapacity = 24;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      // SBO internals: placement-new into the inline buffer (no allocation).
      ::new (static_cast<void*>(storage_.inline_buf)) D(std::forward<F>(f));  // dcm-lint: allow(no-raw-new-in-hot-path)
      ops_ = &kInlineOps<D>;
    } else {
      // Oversized capture: the one sanctioned boxing allocation (cold path).
      storage_.heap = new D(std::forward<F>(f));  // dcm-lint: allow(no-raw-new-in-hot-path)
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial_destroy) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  union Storage {
    alignas(alignof(void*)) std::byte inline_buf[kInlineCapacity];
    void* heap;
  };
  struct Ops {
    void (*invoke)(Storage&);
    void (*relocate)(Storage& dst, Storage& src) noexcept;  // move-construct + destroy src
    void (*destroy)(Storage&) noexcept;
    // Fast-path flags: relocation-by-memcpy (all heap-boxed callables and
    // trivially copyable inline ones) and no-op destruction. They let the
    // per-event move/destroy churn skip the indirect calls entirely for the
    // common small-POD-capture lambdas.
    bool trivial_relocate;
    bool trivial_destroy;
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineCapacity && alignof(F) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  static F& inline_ref(Storage& s) {
    return *std::launder(reinterpret_cast<F*>(s.inline_buf));
  }

  template <typename F>
  static constexpr Ops kInlineOps{
      [](Storage& s) { inline_ref<F>(s)(); },
      [](Storage& dst, Storage& src) noexcept {
        // Relocation placement-new into the destination's inline buffer.
        ::new (static_cast<void*>(dst.inline_buf)) F(std::move(inline_ref<F>(src)));  // dcm-lint: allow(no-raw-new-in-hot-path)
        inline_ref<F>(src).~F();
      },
      [](Storage& s) noexcept { inline_ref<F>(s).~F(); },
      std::is_trivially_copyable_v<F>,
      std::is_trivially_destructible_v<F>,
  };

  template <typename F>
  static constexpr Ops kHeapOps{
      [](Storage& s) { (*static_cast<F*>(s.heap))(); },
      [](Storage& dst, Storage& src) noexcept { dst.heap = src.heap; },
      [](Storage& s) noexcept { delete static_cast<F*>(s.heap); },  // dcm-lint: allow(no-raw-new-in-hot-path)
      /*trivial_relocate=*/true,  // relocation is a pointer copy
      /*trivial_destroy=*/false,
  };

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->trivial_relocate) {
      storage_ = other.storage_;  // branchless fixed-size copy
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  Storage storage_;
};
static_assert(sizeof(EventFn) == 32, "EventFn is one ops pointer plus three inline words");

class EventQueue;
class Engine;

/// Handle for cancelling a scheduled event or periodic chain, or for
/// retiming a scheduled event (Engine::retime_after).
/// Default-constructed handles are inert. Copies share the underlying
/// (slot, generation) identity, so cancelling any copy cancels the event.
/// A handle that outlives its owner (EventQueue or Engine) must not be
/// cancelled or retimed — all current components hold a reference to an
/// engine that outlives them, matching that rule by construction.
///
/// 16 bytes: the owner pointer says whether the handle is inert (null), and
/// the top bit of the slot word whether it names a periodic chain (owner is
/// the Engine) or a one-shot event (owner is the EventQueue). Both slabs
/// stay below 2^31 slots.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event (or periodic chain) from firing; idempotent, safe
  /// after the event fired — generation counting makes stale cancels no-ops.
  void cancel();

  bool valid() const { return owner_ != nullptr; }

 private:
  friend class EventQueue;
  friend class Engine;
  static constexpr uint32_t kPeriodicBit = 0x80000000u;
  EventHandle(void* owner, uint32_t slot, uint32_t generation)
      : owner_(owner), slot_(slot), generation_(generation) {}

  bool periodic() const { return (slot_ & kPeriodicBit) != 0; }
  uint32_t slot() const { return slot_ & ~kPeriodicBit; }

  void* owner_ = nullptr;
  uint32_t slot_ = 0;  // slab index | kPeriodicBit for a periodic chain
  uint32_t generation_ = 0;
};
static_assert(sizeof(EventHandle) == 16);

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  ///
  /// Two-band storage: entries land in the near or far heap depending on how
  /// far past the last dispatched time they aim. A pop takes the global
  /// (time, seq) minimum across both fronts, so dispatch order is exactly
  /// that of a single heap — the band split only changes which vector an
  /// entry sifts through. The payoff: ms-scale churn (CPU completions,
  /// network hops — scheduled and popped constantly) sifts through a heap of
  /// tens of entries instead of one inflated by every pending think-time and
  /// periodic timer, which cuts the per-event compare/copy depth.
  EventHandle schedule(SimTime at, EventFn fn) {
    const FnSlab::Handle h = fns_.alloc();
    if (h.index == pos_.size()) grow_pos();
    *fns_.get(h) = std::move(fn);
    push(Entry{at, next_seq_++, h.index});
    return EventHandle(this, h.index, h.gen);
  }

  /// Moves the live event behind `handle` to absolute time `at`, keeping its
  /// slot and callable. Returns false (and changes nothing) when the handle
  /// is inert or stale — the event already fired or was cancelled.
  ///
  /// The entry draws a fresh sequence number, exactly as the cancel +
  /// schedule pair it replaces would, so the set of live (time, seq) keys —
  /// and with it the pop order — is identical to that pair's at every
  /// instant: a retimed event fires after events already pending at its
  /// new time.
  bool retime(const EventHandle& handle, SimTime at);

  /// True iff no event is pending.
  bool empty() const { return near_.empty() && far_.empty(); }

  /// Exact number of pending (scheduled, not yet fired or cancelled) events.
  size_t pending() const { return near_.size() + far_.size(); }

  /// Timestamp of the earliest pending event; requires !empty().
  SimTime next_time() const;

  /// Pops and returns the earliest pending event. Requires !empty().
  struct Popped {
    SimTime time;
    EventFn fn;
  };
  Popped pop();

  /// Hot-path combination of empty()/next_time()/pop(): pops the earliest
  /// event into `out` iff its time is <= `horizon`. Returns false when the
  /// queue is empty or the next event is beyond the horizon.
  bool pop_until(SimTime horizon, Popped& out) {
    // Destroy the previous callable before the heap is read: its captures'
    // destructors may cancel or schedule, which moves heap entries.
    out.fn.reset();
    if (empty()) return false;
    std::vector<Entry>& h = far_first() ? far_ : near_;
    const Entry top = h.front();
    if (top.time > horizon) return false;
    out.time = top.time;
    fns_.take(fns_.handle(top.slot), out.fn);
    now_floor_ = top.time;
    erase_at(h, 0);
    return true;
  }

  /// Cancels the event identified by (slot, generation); stale identities
  /// are ignored. Erases its heap entry and destroys the captured state.
  void cancel(uint32_t slot, uint32_t generation);

 private:
  static constexpr size_t kArity = 4;  // 4-ary heap: shallower, cache-friendlier
  /// Band bit of a position-index word; the low 31 bits are the heap index.
  static constexpr uint32_t kFarBit = 0x80000000u;
  /// Band boundary for the near/far heap split: events aiming further than
  /// this past the last dispatched time go to the far heap. 200ms cleanly
  /// separates the simulator's two event populations — sub-ms service/
  /// network churn vs. second-scale think times, periodic monitors, and VM
  /// boots. Band choice never affects pop order (the pop takes the global
  /// minimum), so the constant only tunes locality.
  static constexpr SimTime kFarDelay = 200'000'000;  // 200ms in ns

  // POD heap entry; the callable stays in the slab so sifts copy 24 bytes.
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  using FnSlab = Slab<EventFn>;

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // The helpers below are defined inline: they sit on the per-event hot path
  // and the simulator's throughput is bounded by how fast they run.

  void grow_pos();  // out-of-line: the slab grew on a cold miss

  std::vector<Entry>& band_for(SimTime at) {
    return (at - now_floor_) > kFarDelay ? far_ : near_;
  }

  uint32_t band_bit(const std::vector<Entry>& h) const { return &h == &far_ ? kFarBit : 0; }

  /// Stores `e` at index `i` of `h` and records the position.
  void place(std::vector<Entry>& h, size_t i, const Entry& e, uint32_t band) {
    h[i] = e;
    pos_[e.slot] = static_cast<uint32_t>(i) | band;
  }

  void push(const Entry& e) {
    std::vector<Entry>& h = band_for(e.time);
    h.push_back(e);
    sift_up(h, h.size() - 1);
  }

  void sift_up(std::vector<Entry>& h, size_t i) {
    const uint32_t band = band_bit(h);
    const Entry e = h[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!before(e, h[parent])) break;
      place(h, i, h[parent], band);
      i = parent;
    }
    place(h, i, e, band);
  }

  void sift_down(std::vector<Entry>& h, size_t i) {
    const uint32_t band = band_bit(h);
    const size_t n = h.size();
    const Entry e = h[i];
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (before(h[c], h[best])) best = c;
      }
      if (!before(h[best], e)) break;
      place(h, i, h[best], band);
      i = best;
    }
    place(h, i, e, band);
  }

  /// Restores the heap property at `i` after its key changed either way.
  void resift(std::vector<Entry>& h, size_t i) {
    if (i > 0 && before(h[i], h[(i - 1) / kArity])) {
      sift_up(h, i);
    } else {
      sift_down(h, i);
    }
  }

  /// Removes the entry at index `i`: the last entry fills the hole and is
  /// sifted whichever way its key demands.
  void erase_at(std::vector<Entry>& h, size_t i) {
    const Entry last = h.back();
    h.pop_back();
    if (i == h.size()) return;
    h[i] = last;
    resift(h, i);
  }

  /// True iff the globally earliest entry by (time, seq) sits in the far
  /// band; requires !empty(). This is the merge point that makes the band
  /// split invisible to callers.
  bool far_first() const {
    return near_.empty() || (!far_.empty() && before(far_.front(), near_.front()));
  }

  std::vector<Entry> near_;
  std::vector<Entry> far_;
  FnSlab fns_;
  /// Position index, parallel to fns_: heap index | band bit of the slot's
  /// entry. Meaningful only while the slot holds a pending event.
  std::vector<uint32_t> pos_;
  /// Time of the last popped event — a monotone floor of "now" used to band
  /// incoming schedules by delay without a back-pointer to the engine.
  SimTime now_floor_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace dcm::sim
