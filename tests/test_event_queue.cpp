// Tests for the stable 4-ary-heap pending-event set, and a differential
// test of the indexed event set against it.

#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "des/indexed_event_set.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> queue;
  queue.push(3.0, 3);
  queue.push(1.0, 1);
  queue.push(2.0, 2);
  EXPECT_EQ(queue.pop().payload, 1);
  EXPECT_EQ(queue.pop().payload, 2);
  EXPECT_EQ(queue.pop().payload, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  // FIFO among simultaneous events: critical for the greedy scheme's
  // "priority to the packet that arrived first" rule.
  EventQueue<int> queue;
  for (int i = 0; i < 100; ++i) queue.push(5.0, i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(queue.pop().payload, i);
}

TEST(EventQueue, MixedTimesAndTies) {
  EventQueue<int> queue;
  queue.push(2.0, 20);
  queue.push(1.0, 10);
  queue.push(2.0, 21);
  queue.push(1.0, 11);
  queue.push(0.5, 5);
  EXPECT_EQ(queue.pop().payload, 5);
  EXPECT_EQ(queue.pop().payload, 10);
  EXPECT_EQ(queue.pop().payload, 11);
  EXPECT_EQ(queue.pop().payload, 20);
  EXPECT_EQ(queue.pop().payload, 21);
}

TEST(EventQueue, TopDoesNotRemove) {
  EventQueue<int> queue;
  queue.push(1.0, 1);
  EXPECT_EQ(queue.top().payload, 1);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, ClearResets) {
  EventQueue<int> queue;
  queue.push(1.0, 1);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pushed(), 0u);
}

TEST(EventQueue, PushedCountsAllInsertions) {
  EventQueue<int> queue;
  for (int i = 0; i < 10; ++i) queue.push(1.0, i);
  (void)queue.pop();
  EXPECT_EQ(queue.pushed(), 10u);
}

TEST(EventQueue, RandomStressSortsCorrectly) {
  EventQueue<int> queue;
  Rng rng(17);
  std::vector<double> times;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double t = rng.uniform() * 1000.0;
    times.push_back(t);
    queue.push(t, i);
  }
  std::sort(times.begin(), times.end());
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(queue.pop().time, times[static_cast<std::size_t>(i)]);
  }
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue<int> queue;
  Rng rng(23);
  double last = -1.0;
  int pending = 0;
  for (int round = 0; round < 5000; ++round) {
    if (pending == 0 || rng.bernoulli(0.6)) {
      // Schedule at or after the last popped time (simulator discipline).
      queue.push(last + rng.uniform() * 10.0, round);
      ++pending;
    } else {
      const auto event = queue.pop();
      EXPECT_GE(event.time, last);
      last = event.time;
      --pending;
    }
  }
}

TEST(EventQueue, MovesLargePayloads) {
  EventQueue<std::vector<int>> queue;
  queue.push(1.0, std::vector<int>(1000, 7));
  const auto event = queue.pop();
  EXPECT_EQ(event.payload.size(), 1000u);
  EXPECT_EQ(event.payload.front(), 7);
}

TEST(IndexedEventSet, RekeyAndCancel) {
  IndexedEventSet events(4);
  events.schedule(0, 3.0);
  events.schedule(1, 1.0);
  events.schedule(2, 2.0);
  events.schedule(1, 4.0);  // re-key later: slot 1 now fires last
  events.schedule(3, 2.0);  // ties with slot 2, scheduled after it
  events.cancel(0);
  events.cancel(0);  // cancelling an idle slot is a no-op
  EXPECT_EQ(events.size(), 3u);
  EXPECT_FALSE(events.pending(0));
  EXPECT_EQ(events.pop().slot, 2u);
  EXPECT_EQ(events.pop().slot, 3u);
  EXPECT_TRUE(events.pending(1));
  const auto last = events.pop();
  EXPECT_EQ(last.slot, 1u);
  EXPECT_EQ(last.time, 4.0);
  EXPECT_EQ(last.seq, 3u);
  EXPECT_FALSE(events.pending(1));
  EXPECT_TRUE(events.empty());
}

// Differential test against the pattern the indexed set replaces: an
// EventQueue in which every (re)schedule pushes a fresh event stamped with
// its slot's generation, and a pop discards events whose stamp is stale.
// Random schedules, re-keys earlier and later, cancels and pops, with times
// on a coarse grid so exact-time ties are frequent, must pop the same
// (time, seq, slot) sequence from both.
TEST(IndexedEventSet, MatchesStampFilteredEventQueue) {
  struct Stamped {
    std::uint32_t slot = 0;
    std::uint64_t stamp = 0;
  };
  for (const std::uint32_t slots : {1u, 2u, 5u, 17u, 64u}) {
    IndexedEventSet indexed(slots);
    EventQueue<Stamped> reference;
    std::vector<std::uint64_t> stamp(slots, 0);
    std::vector<bool> live(slots, false);
    std::vector<double> when(slots, 0.0);
    Rng rng(1000 + slots);
    double now = 0.0;
    std::size_t live_count = 0;

    const auto schedule = [&](std::uint32_t slot, double time) {
      indexed.schedule(slot, time);
      reference.push(time, Stamped{slot, ++stamp[slot]});
      if (!live[slot]) ++live_count;
      live[slot] = true;
      when[slot] = time;
    };
    // Pops the next live event from both sides; true when they agree.
    const auto pop_both_agree = [&] {
      auto expected = reference.pop();
      while (!live[expected.payload.slot] ||
             expected.payload.stamp != stamp[expected.payload.slot]) {
        expected = reference.pop();  // superseded or cancelled
      }
      const auto actual = indexed.pop();
      live[actual.slot] = false;
      --live_count;
      now = actual.time;
      return actual.time == expected.time && actual.seq == expected.seq &&
             actual.slot == expected.payload.slot;
    };

    for (int step = 0; step < 40000; ++step) {
      const auto slot = static_cast<std::uint32_t>(rng.uniform_below(slots));
      const double op = rng.uniform();
      // Times on a grid of 1/4 so ties (with each other and with `now`) occur.
      const double ahead = 0.25 * static_cast<double>(rng.uniform_below(12));
      if (op < 0.35) {
        if (live[slot]) {
          // Re-key later (or at the same time: a fresh seq still moves it back).
          schedule(slot, when[slot] + ahead);
        } else {
          schedule(slot, now + ahead);
        }
      } else if (op < 0.55) {
        if (live[slot]) {
          // Re-key earlier, never before the current time.
          schedule(slot, std::max(now, when[slot] - ahead));
        } else {
          schedule(slot, now + ahead);
        }
      } else if (op < 0.65) {
        indexed.cancel(slot);
        if (live[slot]) {
          live[slot] = false;
          ++stamp[slot];
          --live_count;
        }
      } else if (live_count > 0) {
        ASSERT_TRUE(pop_both_agree()) << slots << " slots, step " << step;
      }
      ASSERT_EQ(indexed.size(), live_count);
      ASSERT_LE(indexed.size(), indexed.slots());
      for (std::uint32_t s = 0; s < slots; ++s) ASSERT_EQ(indexed.pending(s), live[s]);
    }
    // Drain: the remaining live events come out in the same order too.
    while (live_count > 0) ASSERT_TRUE(pop_both_agree()) << slots << " slots, drain";
    EXPECT_TRUE(indexed.empty());
  }
}

}  // namespace
}  // namespace routesim
