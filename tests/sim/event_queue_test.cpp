#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dcm::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliestLiveEvent) {
  EventQueue q;
  q.schedule(50, [] {});
  q.schedule(5, [] {});
  EXPECT_EQ(q.next_time(), 5);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto handle = q.schedule(10, [&] { fired = true; });
  handle.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelMiddleEventSkipsOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(1); });
  auto handle = q.schedule(20, [&] { order.push_back(2); });
  q.schedule(30, [&] { order.push_back(3); });
  handle.cancel();
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelAfterFireIsHarmless) {
  EventQueue q;
  int fires = 0;
  auto handle = q.schedule(1, [&] { ++fires; });
  q.pop().fn();
  handle.cancel();  // must not crash or affect anything
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // no-op
}

TEST(EventQueueTest, CopiedHandlesShareCancellation) {
  EventQueue q;
  bool fired = false;
  EventHandle a = q.schedule(10, [&] { fired = true; });
  EventHandle b = a;
  b.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, StaleHandleDoesNotCancelReusedSlot) {
  EventQueue q;
  int fired = 0;
  auto h1 = q.schedule(1, [&] { ++fired; });
  q.pop().fn();
  // The popped event's slot is back on the free-list; this schedule reuses it.
  q.schedule(2, [&] { ++fired; });
  h1.cancel();  // stale generation — must not cancel the new event
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelledSlotReuseKeepsNewEventAlive) {
  EventQueue q;
  int fired = 0;
  auto h1 = q.schedule(10, [&] { ++fired; });
  h1.cancel();
  auto h2 = q.schedule(20, [&] { ++fired; });
  h1.cancel();  // double-cancel through a stale generation: no-op
  ASSERT_FALSE(q.empty());
  auto popped = q.pop();
  EXPECT_EQ(popped.time, 20);
  popped.fn();
  EXPECT_EQ(fired, 1);
  h2.cancel();  // already fired: no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StressAgainstReferenceModel) {
  // Interleaved schedule/cancel/pop checked against an ordered-map oracle:
  // pops must come out in exact (time, scheduling-order) sequence no matter
  // how the 4-ary heap array is permuted by cancellations.
  EventQueue q;
  dcm::Rng rng(20170607);
  std::map<std::pair<SimTime, uint64_t>, int> oracle;  // (time, seq) -> id
  std::unordered_map<int, EventHandle> handles;
  uint64_t seq = 0;
  int next_id = 0;
  int last_popped = -1;
  for (int step = 0; step < 30000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.45 || oracle.empty()) {
      const SimTime at = rng.uniform_int(0, 5000);
      const int id = next_id++;
      handles[id] = q.schedule(at, [&last_popped, id] { last_popped = id; });
      oracle[{at, seq++}] = id;
    } else if (roll < 0.65) {
      // Cancel a random live event.
      auto it = oracle.begin();
      std::advance(it, rng.uniform_int(0, static_cast<int64_t>(oracle.size()) - 1));
      handles[it->second].cancel();
      handles.erase(it->second);
      oracle.erase(it);
    } else {
      ASSERT_FALSE(q.empty());
      auto popped = q.pop();
      popped.fn();
      const auto expected = oracle.begin();
      EXPECT_EQ(popped.time, expected->first.first);
      EXPECT_EQ(last_popped, expected->second);
      handles.erase(expected->second);
      oracle.erase(expected);
    }
    ASSERT_EQ(q.empty(), oracle.empty());
  }
  while (!oracle.empty()) {
    auto popped = q.pop();
    popped.fn();
    const auto expected = oracle.begin();
    EXPECT_EQ(popped.time, expected->first.first);
    EXPECT_EQ(last_popped, expected->second);
    oracle.erase(expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EmptyAfterAllCancelled) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(q.schedule(i, [] {}));
  for (auto& h : handles) h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PendingIsExactAcrossCancels) {
  // Cancellation erases in place: pending() drops with every cancel, even
  // for entries buried below the front in either band.
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(q.schedule(i + 1, [] {}));
  for (int i = 0; i < 8; ++i) handles.push_back(q.schedule(1'000'000'000 + i, [] {}));
  EXPECT_EQ(q.pending(), 16u);
  handles[5].cancel();   // near band, below the front
  handles[12].cancel();  // far band, below the front
  EXPECT_EQ(q.pending(), 14u);
  handles[5].cancel();  // stale: no change
  EXPECT_EQ(q.pending(), 14u);
  handles[0].cancel();  // the global front
  EXPECT_EQ(q.pending(), 13u);
  EXPECT_EQ(q.next_time(), 2);
  q.pop();
  EXPECT_EQ(q.pending(), 12u);
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

/// Schedules events tagged 0..n-1 at the given times, recording pop order.
struct Recorder {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  void add(SimTime at) {
    const int id = static_cast<int>(handles.size());
    handles.push_back(q.schedule(at, [this, id] { order.push_back(id); }));
  }
  void drain() {
    while (!q.empty()) q.pop().fn();
  }
};

TEST(EventQueueTest, RetimeEarlierFiresEarlier) {
  Recorder r;
  r.add(10);
  r.add(20);
  r.add(30);
  EXPECT_TRUE(r.q.retime(r.handles[2], 5));
  EXPECT_EQ(r.q.pending(), 3u);
  EXPECT_EQ(r.q.next_time(), 5);
  r.drain();
  EXPECT_EQ(r.order, (std::vector<int>{2, 0, 1}));
}

TEST(EventQueueTest, RetimeLaterFiresLater) {
  Recorder r;
  r.add(10);
  r.add(20);
  r.add(30);
  EXPECT_TRUE(r.q.retime(r.handles[0], 25));
  EXPECT_EQ(r.q.pending(), 3u);
  auto first = r.q.pop();
  EXPECT_EQ(first.time, 20);
  first.fn();
  auto second = r.q.pop();
  EXPECT_EQ(second.time, 25);
  second.fn();
  r.drain();
  EXPECT_EQ(r.order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueTest, RetimeCrossesBandsBothWays) {
  // 200 ms is the near/far boundary; 1 s lands in the far band.
  constexpr SimTime kFar = 1'000'000'000;
  Recorder r;
  r.add(100);
  r.add(kFar);
  r.add(200);
  r.add(kFar + 100);
  EXPECT_TRUE(r.q.retime(r.handles[0], kFar + 50));  // near -> far
  EXPECT_TRUE(r.q.retime(r.handles[3], 150));        // far -> near
  EXPECT_EQ(r.q.pending(), 4u);
  std::vector<SimTime> times;
  while (!r.q.empty()) {
    auto popped = r.q.pop();
    times.push_back(popped.time);
    popped.fn();
  }
  EXPECT_EQ(times, (std::vector<SimTime>{150, 200, kFar, kFar + 50}));
  EXPECT_EQ(r.order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(EventQueueTest, RetimeOfStaleHandleChangesNothing) {
  Recorder r;
  r.add(10);
  r.add(20);
  r.add(30);
  r.handles[1].cancel();
  r.q.pop().fn();  // fires event 0
  EXPECT_FALSE(r.q.retime(r.handles[0], 1));  // already fired
  EXPECT_FALSE(r.q.retime(r.handles[1], 1));  // cancelled
  EXPECT_FALSE(r.q.retime(EventHandle(), 1));  // inert
  EXPECT_EQ(r.q.pending(), 1u);
  EXPECT_EQ(r.q.next_time(), 30);
  // A stale handle must not retime the event that reused its slot.
  r.add(40);
  EXPECT_FALSE(r.q.retime(r.handles[1], 1));
  EXPECT_EQ(r.q.next_time(), 30);
  r.drain();
  EXPECT_EQ(r.order, (std::vector<int>{0, 2, 3}));
}

TEST(EventQueueTest, RetimeInsideOwnCallback) {
  // Inside its own callback an event's handle is already stale; a handle
  // taken inside the callback is live and retimes normally.
  EventQueue q;
  std::vector<int> order;
  EventHandle self;
  EventHandle child;
  bool self_retimed = true;
  self = q.schedule(10, [&] {
    order.push_back(0);
    self_retimed = q.retime(self, 50);
    child = q.schedule(40, [&] { order.push_back(1); });
    EXPECT_TRUE(q.retime(child, 15));
  });
  q.schedule(20, [&] { order.push_back(2); });
  auto popped = q.pop();
  popped.fn();
  EXPECT_FALSE(self_retimed);
  EXPECT_EQ(q.pending(), 2u);
  while (!q.empty()) {
    auto next = q.pop();
    next.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, RetimedEventFiresAfterEventsAlreadyAtItsNewTime) {
  // FIFO at equal times counts from the retime, exactly as cancel + schedule.
  Recorder r;
  r.add(50);  // 0: moved to 20 below
  r.add(20);  // 1
  r.add(20);  // 2
  EXPECT_TRUE(r.q.retime(r.handles[0], 20));
  r.add(20);  // 3: scheduled after the retime
  r.drain();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 0, 3}));

  // Retiming to the same time still moves the event behind its peers.
  Recorder same;
  same.add(20);
  same.add(20);
  EXPECT_TRUE(same.q.retime(same.handles[0], 20));
  same.drain();
  EXPECT_EQ(same.order, (std::vector<int>{1, 0}));
}

TEST(EventQueueTest, RandomizedDifferentialAgainstCancelPlusSchedule) {
  // A reference model of the lazy-cancel queue's semantics: retime is a
  // cancel followed by a schedule that draws the next sequence number. The
  // queue must pop the identical (time, id) sequence, and pending() must be
  // the exact live count after every operation.
  EventQueue q;
  dcm::Rng rng(20171015);
  std::set<std::tuple<SimTime, uint64_t, int>> ref;  // (time, seq, id)
  std::vector<std::pair<SimTime, uint64_t>> key;     // id -> live key
  std::vector<bool> live;
  std::vector<EventHandle> handles;
  std::vector<int> popped_ids;
  uint64_t seq = 0;
  SimTime now = 0;
  // Millisecond-quantized offsets up to 600 ms: plenty of equal-time ties,
  // and both sides of the 200 ms band boundary.
  auto draw_time = [&] { return now + rng.uniform_int(0, 600) * 1'000'000; };
  auto pick_id = [&] {
    const int64_t n = static_cast<int64_t>(handles.size());
    return static_cast<int>(rng.uniform_int(std::max<int64_t>(0, n - 400), n - 1));
  };
  constexpr int kOps = 150000;
  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.next_double();
    if (roll < 0.35 || handles.empty()) {
      const SimTime at = draw_time();
      const int id = static_cast<int>(handles.size());
      handles.push_back(q.schedule(at, [&popped_ids, id] { popped_ids.push_back(id); }));
      live.push_back(true);
      key.emplace_back(at, seq);
      ref.emplace(at, seq++, id);
    } else if (roll < 0.55) {
      const int id = pick_id();
      handles[static_cast<size_t>(id)].cancel();
      if (live[static_cast<size_t>(id)]) {
        ref.erase({key[static_cast<size_t>(id)].first, key[static_cast<size_t>(id)].second, id});
        live[static_cast<size_t>(id)] = false;
      }
    } else if (roll < 0.80) {
      const int id = pick_id();
      const SimTime at = draw_time();
      const bool moved = q.retime(handles[static_cast<size_t>(id)], at);
      ASSERT_EQ(moved, static_cast<bool>(live[static_cast<size_t>(id)]));
      if (moved) {
        ref.erase({key[static_cast<size_t>(id)].first, key[static_cast<size_t>(id)].second, id});
        key[static_cast<size_t>(id)] = {at, seq};
        ref.emplace(at, seq++, id);
      }
    } else {
      now += rng.uniform_int(0, 40) * 1'000'000;
      popped_ids.clear();
      std::vector<int> expected;
      while (!ref.empty() && std::get<0>(*ref.begin()) <= now) {
        expected.push_back(std::get<2>(*ref.begin()));
        live[static_cast<size_t>(std::get<2>(*ref.begin()))] = false;
        ref.erase(ref.begin());
      }
      EventQueue::Popped event;
      SimTime last = -1;
      while (q.pop_until(now, event)) {
        ASSERT_GE(event.time, last);
        last = event.time;
        const size_t before = popped_ids.size();
        event.fn();
        ASSERT_EQ(popped_ids.size(), before + 1);
        ASSERT_EQ(event.time, key[static_cast<size_t>(popped_ids.back())].first);
      }
      ASSERT_EQ(popped_ids, expected) << "op " << op;
    }
    ASSERT_EQ(q.pending(), ref.size()) << "op " << op;
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(q.next_time(), std::get<0>(*ref.begin()));
    }
  }
  // Drain: the tail must come out in reference order too.
  popped_ids.clear();
  std::vector<int> expected;
  for (const auto& entry : ref) expected.push_back(std::get<2>(entry));
  EventQueue::Popped event;
  while (q.pop_until(kMaxSimTime, event)) event.fn();
  EXPECT_EQ(popped_ids, expected);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace dcm::sim
