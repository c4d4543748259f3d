#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace dcm::sim {
namespace {

TEST(EngineTest, ClockStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
}

TEST(EngineTest, RunUntilAdvancesClockToEnd) {
  Engine engine;
  engine.run_until(from_seconds(5.0));
  EXPECT_EQ(engine.now(), from_seconds(5.0));
}

TEST(EngineTest, EventSeesItsOwnTimestamp) {
  Engine engine;
  SimTime seen = -1;
  engine.schedule_after(from_seconds(2.0), [&] { seen = engine.now(); });
  engine.run_until(from_seconds(10.0));
  EXPECT_EQ(seen, from_seconds(2.0));
}

TEST(EngineTest, EventsBeyondHorizonDoNotFire) {
  Engine engine;
  bool fired = false;
  engine.schedule_after(from_seconds(5.0), [&] { fired = true; });
  engine.run_until(from_seconds(4.0));
  EXPECT_FALSE(fired);
  engine.run_until(from_seconds(6.0));
  EXPECT_TRUE(fired);
}

TEST(EngineTest, ScheduleAtAbsoluteTime) {
  Engine engine;
  engine.run_until(from_seconds(1.0));
  SimTime seen = -1;
  engine.schedule_at(from_seconds(3.0), [&] { seen = engine.now(); });
  engine.run_until(from_seconds(4.0));
  EXPECT_EQ(seen, from_seconds(3.0));
}

TEST(EngineTest, NestedSchedulingWorks) {
  Engine engine;
  std::vector<double> times;
  engine.schedule_after(from_seconds(1.0), [&] {
    times.push_back(to_seconds(engine.now()));
    engine.schedule_after(from_seconds(1.0), [&] {
      times.push_back(to_seconds(engine.now()));
    });
  });
  engine.run_until(from_seconds(5.0));
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(EngineTest, PeriodicFiresAtEveryPeriod) {
  Engine engine;
  std::vector<double> times;
  engine.schedule_periodic(from_seconds(1.0), [&] { times.push_back(to_seconds(engine.now())); });
  engine.run_until(from_seconds(4.5));
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[3], 4.0);
}

TEST(EngineTest, PeriodicCancelStopsChain) {
  Engine engine;
  int count = 0;
  auto handle = engine.schedule_periodic(from_seconds(1.0), [&] { ++count; });
  engine.run_until(from_seconds(2.5));
  handle.cancel();
  engine.run_until(from_seconds(10.0));
  EXPECT_EQ(count, 2);
}

TEST(EngineTest, PeriodicCanCancelItselfFromInside) {
  Engine engine;
  int count = 0;
  EventHandle handle;
  handle = engine.schedule_periodic(from_seconds(1.0), [&] {
    ++count;
    if (count == 3) handle.cancel();
  });
  engine.run_until(from_seconds(10.0));
  EXPECT_EQ(count, 3);
}

TEST(EngineTest, CancelledPeriodicReleasesCapturedState) {
  Engine engine;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> observer = token;
  auto handle =
      engine.schedule_periodic(from_seconds(1.0), [token = std::move(token)] { (void)token; });
  engine.run_until(from_seconds(3.5));
  ASSERT_FALSE(observer.expired());  // chain alive, capture alive
  handle.cancel();
  // Regression: the old shared_ptr<function> self-capture cycle kept the
  // callable (and everything it captured) alive forever after cancellation.
  EXPECT_TRUE(observer.expired());
}

TEST(EngineTest, SelfCancelledPeriodicReleasesCapturedState) {
  Engine engine;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observer = token;
  EventHandle handle;
  handle = engine.schedule_periodic(from_seconds(1.0),
                                    [token = std::move(token), &handle] { handle.cancel(); });
  engine.run_until(from_seconds(5.0));
  EXPECT_TRUE(observer.expired());
}

TEST(EngineTest, EngineDestructionReleasesPeriodicCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> observer = token;
  {
    Engine engine;
    engine.schedule_periodic(from_seconds(1.0), [token = std::move(token)] { (void)token; });
    engine.run_until(from_seconds(2.5));
  }
  EXPECT_TRUE(observer.expired());
}

TEST(EngineTest, StalePeriodicHandleDoesNotCancelReusedSlot) {
  Engine engine;
  int first = 0, second = 0;
  auto h1 = engine.schedule_periodic(10, [&first] { ++first; });
  h1.cancel();
  auto h2 = engine.schedule_periodic(10, [&second] { ++second; });
  h1.cancel();  // stale handle; must not touch the chain that reused the slot
  engine.run_until(100);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 10);
  h2.cancel();
}

TEST(EngineTest, PeriodicCallbackCanScheduleMorePeriodics) {
  Engine engine;
  int outer = 0, inner = 0;
  bool spawned = false;
  engine.schedule_periodic(from_seconds(1.0), [&] {
    ++outer;
    if (!spawned) {
      spawned = true;
      // Growing the periodic slab mid-fire must not invalidate the firing task.
      for (int i = 0; i < 8; ++i) {
        engine.schedule_periodic(from_seconds(10.0), [&inner] { ++inner; });
      }
    }
  });
  engine.run_until(from_seconds(21.5));
  EXPECT_EQ(outer, 21);
  EXPECT_EQ(inner, 16);  // spawned at t=1s, period 10s -> fire at 11s and 21s
}

TEST(EngineTest, RunForIsRelative) {
  Engine engine;
  engine.run_for(from_seconds(2.0));
  engine.run_for(from_seconds(3.0));
  EXPECT_EQ(engine.now(), from_seconds(5.0));
}

TEST(EngineTest, RunToCompletionDrainsEverything) {
  Engine engine;
  int fired = 0;
  engine.schedule_after(from_seconds(1.0), [&] {
    ++fired;
    engine.schedule_after(from_seconds(1.0), [&] { ++fired; });
  });
  engine.run_to_completion();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), from_seconds(2.0));
}

TEST(EngineTest, DispatchCountIncrements) {
  Engine engine;
  engine.schedule_after(1, [] {});
  engine.schedule_after(2, [] {});
  engine.run_until(10);
  EXPECT_EQ(engine.events_dispatched(), 2u);
}

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(12.25)), 12.25);
  EXPECT_DOUBLE_EQ(to_millis(from_millis(3.5)), 3.5);
}

TEST(EngineTest, RetimeAfterMovesThePendingEventRelativeToNow) {
  Engine engine;
  engine.run_until(from_seconds(1.0));
  SimTime seen = -1;
  EventHandle handle = engine.schedule_after(from_seconds(5.0), [&] { seen = engine.now(); });
  EXPECT_TRUE(engine.retime_after(handle, from_seconds(2.0)));
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_until(from_seconds(10.0));
  EXPECT_EQ(seen, from_seconds(3.0));
  EXPECT_FALSE(engine.retime_after(handle, from_seconds(1.0)));  // fired: stale
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(EngineTest, PendingEventsIsExact) {
  Engine engine;
  EventHandle periodic = engine.schedule_periodic(from_seconds(1.0), [] {});
  EventHandle one_shot = engine.schedule_after(from_seconds(3.0), [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  one_shot.cancel();
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_until(from_seconds(2.5));
  EXPECT_EQ(engine.pending_events(), 1u);  // the chain's next tick only
  periodic.cancel();
  EXPECT_EQ(engine.pending_events(), 0u);
}

}  // namespace
}  // namespace dcm::sim
