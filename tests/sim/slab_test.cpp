#include "sim/slab.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace dcm::sim {
namespace {

using IntSlab = Slab<int>;

TEST(SlabTest, HandleGoesStaleAfterFree) {
  IntSlab slab;
  const IntSlab::Handle h = slab.alloc();
  *slab.get(h) = 7;
  slab.free(h);
  EXPECT_EQ(slab.get(h), nullptr);
  EXPECT_EQ(slab.at(h.index), nullptr);
}

TEST(SlabTest, HandleGoesStaleAfterTake) {
  IntSlab slab;
  const IntSlab::Handle h = slab.alloc();
  *slab.get(h) = 7;
  int out = 0;
  slab.take(h, out);
  EXPECT_EQ(out, 7);
  EXPECT_EQ(slab.get(h), nullptr);
  EXPECT_EQ(slab.at(h.index), nullptr);
}

TEST(SlabTest, RekeyKeepsSlotLiveButStalesOldHandle) {
  IntSlab slab;
  const IntSlab::Handle h = slab.alloc();
  *slab.get(h) = 7;
  const IntSlab::Handle fresh = slab.rekey(h);
  EXPECT_EQ(fresh.index, h.index);
  EXPECT_EQ(slab.get(h), nullptr);
  ASSERT_NE(slab.get(fresh), nullptr);
  EXPECT_EQ(*slab.get(fresh), 7);
}

TEST(SlabTest, FreeResetsValueAndReuseStartsFresh) {
  IntSlab slab;
  const IntSlab::Handle h = slab.alloc();
  *slab.get(h) = 7;
  slab.free(h);
  const IntSlab::Handle again = slab.alloc();
  EXPECT_EQ(again.index, h.index);
  EXPECT_NE(again.gen, h.gen);
  EXPECT_EQ(*slab.get(again), 0);
  EXPECT_EQ(slab.get(h), nullptr);  // the old ticket stays stale after reuse
}

TEST(SlabTest, FreedSlotsAreReusedLastInFirstOut) {
  IntSlab slab;
  const IntSlab::Handle a = slab.alloc();
  const IntSlab::Handle b = slab.alloc();
  const IntSlab::Handle c = slab.alloc();
  int out = 0;
  slab.free(a);
  slab.take(c, out);
  slab.free(b);
  EXPECT_EQ(slab.alloc().index, b.index);
  EXPECT_EQ(slab.alloc().index, c.index);
  EXPECT_EQ(slab.alloc().index, a.index);
  EXPECT_EQ(slab.size(), 3u);  // no growth while free slots remain
  EXPECT_EQ(slab.alloc().index, 3u);
}

TEST(SlabTest, AtAndHandleWalkOnlyLiveSlots) {
  IntSlab slab;
  std::vector<IntSlab::Handle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(slab.alloc());
    *slab.get(handles.back()) = i;
  }
  int out = 0;
  slab.free(handles[1]);
  slab.take(handles[4], out);
  handles[2] = slab.rekey(handles[2]);
  std::vector<int> seen;
  for (uint32_t i = 0; i < slab.size(); ++i) {
    if (const int* v = slab.at(i)) {
      seen.push_back(*v);
      // handle(i) is the slot's current ticket, re-keys included.
      EXPECT_EQ(slab.get(slab.handle(i)), v);
    }
  }
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(slab.get(slab.handle(2)), slab.get(handles[2]));
}

// Generation parity: a slot's generation is odd while it is live, so every
// issued handle carries an odd one. A handle with an even generation — the
// default Handle{}, or a ticket read off a free slot — must never resolve,
// whatever state the slot is in.
TEST(SlabTest, DefaultHandleNeverResolves) {
  IntSlab slab;
  const IntSlab::Handle none{};
  const IntSlab::Handle h = slab.alloc();  // slot 0: the index Handle{} names
  EXPECT_EQ(h.index, none.index);
  EXPECT_EQ(slab.get(none), nullptr);
  slab.free(h);
  EXPECT_EQ(slab.get(none), nullptr);
  const IntSlab::Handle again = slab.alloc();
  EXPECT_EQ(slab.get(none), nullptr);
  EXPECT_EQ(slab.get(slab.rekey(again)), slab.at(0));
  EXPECT_EQ(slab.get(none), nullptr);
}

TEST(SlabTest, IssuedGenerationsAreOddAndEvenOnesNeverResolve) {
  IntSlab slab;
  IntSlab::Handle h = slab.alloc();
  for (int cycle = 0; cycle < 8; ++cycle) {
    EXPECT_EQ(h.gen & 1u, 1u) << "cycle " << cycle;
    ASSERT_NE(slab.get(h), nullptr);
    // Neither even neighbour of the live generation resolves.
    EXPECT_EQ(slab.get({h.index, h.gen - 1}), nullptr);
    EXPECT_EQ(slab.get({h.index, h.gen + 1}), nullptr);
    if (cycle % 2 == 0) {
      h = slab.rekey(h);
    } else {
      int out = 0;
      slab.take(h, out);
      // A free slot's own ticket is even: it names no live value.
      const IntSlab::Handle freed = slab.handle(h.index);
      EXPECT_EQ(freed.gen & 1u, 0u);
      EXPECT_EQ(slab.get(freed), nullptr);
      EXPECT_EQ(slab.at(h.index), nullptr);
      h = slab.alloc();
    }
  }
  // Re-keying moves by two: the live generation stays odd.
  const IntSlab::Handle fresh = slab.rekey(h);
  EXPECT_EQ(fresh.gen, h.gen + 2);
  EXPECT_EQ(slab.get({h.index, h.gen + 1}), nullptr);
}

TEST(SlabTest, NeverIssuedSlotTicketsDoNotResolve) {
  IntSlab slab;
  std::vector<IntSlab::Handle> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(slab.alloc());
  for (const IntSlab::Handle& h : handles) slab.free(h);
  // Every slot is free; no even ticket resolves, and at() sees nothing.
  for (uint32_t i = 0; i < slab.size(); ++i) {
    EXPECT_EQ(slab.get(slab.handle(i)), nullptr);
    EXPECT_EQ(slab.get({i, 0}), nullptr);
    EXPECT_EQ(slab.at(i), nullptr);
  }
}

// A value whose destructor re-enters the slab that holds it: it allocates a
// slot, frees one, or both. The slab must be consistent before the old value
// dies, so the re-entrant calls see a free list that already includes the
// dying value's own slot and can never clobber a live one.
struct Reentrant;
using ReentrantSlab = Slab<Reentrant>;

struct Reentrant {
  ReentrantSlab* slab = nullptr;
  bool alloc_on_death = false;
  ReentrantSlab::Handle free_on_death{};
  bool frees = false;
  std::vector<ReentrantSlab::Handle>* allocated = nullptr;
  int payload = 0;

  Reentrant() = default;
  Reentrant(Reentrant&& o) noexcept { *this = std::move(o); }
  // Like any owning type, assignment releases the old value first.
  Reentrant& operator=(Reentrant&& o) noexcept {
    die();
    slab = std::exchange(o.slab, nullptr);
    alloc_on_death = std::exchange(o.alloc_on_death, false);
    free_on_death = o.free_on_death;
    frees = std::exchange(o.frees, false);
    allocated = std::exchange(o.allocated, nullptr);
    payload = std::exchange(o.payload, 0);
    return *this;
  }
  ~Reentrant() { die(); }

  void die() {
    if (slab == nullptr) return;
    ReentrantSlab* s = slab;
    slab = nullptr;
    if (frees) s->free(free_on_death);
    if (alloc_on_death) {
      // Enough allocations to reuse the freed slots and grow the vector.
      for (int i = 0; i < 64; ++i) {
        const ReentrantSlab::Handle h = s->alloc();
        s->get(h)->payload = 1000 + i;
        allocated->push_back(h);
      }
    }
  }
};

void reentrant_case(bool use_take) {
  ReentrantSlab slab;
  std::vector<ReentrantSlab::Handle> allocated;
  const ReentrantSlab::Handle victim = slab.alloc();
  slab.get(victim)->payload = 1;
  const ReentrantSlab::Handle keeper = slab.alloc();
  slab.get(keeper)->payload = 2;
  const ReentrantSlab::Handle dying = slab.alloc();
  Reentrant& d = *slab.get(dying);
  d.slab = &slab;
  d.alloc_on_death = true;
  d.frees = true;
  d.free_on_death = victim;
  d.allocated = &allocated;
  d.payload = 3;

  if (use_take) {
    Reentrant out;
    slab.take(dying, out);
    EXPECT_EQ(out.payload, 3);
    EXPECT_TRUE(allocated.empty());  // nothing died inside take
    EXPECT_EQ(slab.get(dying), nullptr);
  } else {
    slab.free(dying);
  }

  EXPECT_EQ(slab.get(dying), nullptr);
  EXPECT_EQ(slab.get(victim), nullptr);
  ASSERT_NE(slab.get(keeper), nullptr);
  EXPECT_EQ(slab.get(keeper)->payload, 2);
  ASSERT_EQ(allocated.size(), 64u);
  // Every re-entrant allocation owns a distinct live slot holding its value;
  // the first two reused the freed victim and the dying value's own slot.
  EXPECT_EQ(allocated[0].index, victim.index);
  EXPECT_EQ(allocated[1].index, dying.index);
  for (size_t i = 0; i < allocated.size(); ++i) {
    ASSERT_NE(slab.get(allocated[i]), nullptr);
    EXPECT_EQ(slab.get(allocated[i])->payload, 1000 + static_cast<int>(i));
    EXPECT_NE(allocated[i].index, keeper.index);
  }
  EXPECT_EQ(slab.size(), 64u + 1u);  // keeper + the 64 re-entrant slots
}

TEST(SlabTest, ValueWhoseDestructorReentersSurvivesFree) { reentrant_case(false); }

TEST(SlabTest, ValueWhoseDestructorReentersSurvivesTake) { reentrant_case(true); }

TEST(SlabTest, TakeLeavesOwnershipWithTheCaller) {
  Slab<std::unique_ptr<int>> slab;
  const auto h = slab.alloc();
  *slab.get(h) = std::make_unique<int>(5);
  std::unique_ptr<int> out;
  slab.take(h, out);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 5);
  const auto again = slab.alloc();
  EXPECT_EQ(again.index, h.index);
  // The slot was left moved-from; an owner assigns before reading.
  EXPECT_EQ(*slab.get(again), nullptr);
}

}  // namespace
}  // namespace dcm::sim
