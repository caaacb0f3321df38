#include "sppnet/sim/event_queue.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/check.h"
#include "sppnet/common/rng.h"

namespace sppnet {
namespace {

// Test-side oracle: the (time, seq) contract CalendarQueue must meet, in
// its most obvious form — a binary min-heap. Same interface, same
// aborts on empty access and invalid times.
class HeapReference {
 public:
  void Schedule(SimEvent event) {
    event.seq = next_seq_++;
    SchedulePreKeyed(event);
  }
  void SchedulePreKeyed(const SimEvent& event) {
    SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
    heap_.push(event);
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  double NextTime() const {
    SPPNET_CHECK(!heap_.empty());
    return heap_.top().time;
  }
  SimEvent Pop() {
    SPPNET_CHECK(!heap_.empty());
    const SimEvent e = heap_.top();
    heap_.pop();
    return e;
  }
  std::vector<SimEvent> SnapshotEvents() const {
    HeapReference scratch = *this;
    std::vector<SimEvent> events;
    while (!scratch.empty()) events.push_back(scratch.Pop());
    return events;
  }

 private:
  struct Later {
    bool operator()(const SimEvent& lhs, const SimEvent& rhs) const {
      if (lhs.time != rhs.time) return lhs.time > rhs.time;
      return lhs.seq > rhs.seq;
    }
  };
  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueTest, StartsEmpty) {
  CalendarQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  CalendarQueue q;
  for (const double t : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    SimEvent e;
    e.time = t;
    q.Schedule(e);
  }
  double prev = -1.0;
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    EXPECT_GT(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  CalendarQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    SimEvent e;
    e.time = 1.0;
    e.node = i;
    q.Schedule(e);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.Pop().node, i);
  }
}

TEST(EventQueueTest, NextTimeReflectsEarliest) {
  CalendarQueue q;
  SimEvent a;
  a.time = 7.0;
  q.Schedule(a);
  EXPECT_DOUBLE_EQ(q.NextTime(), 7.0);
  SimEvent b;
  b.time = 2.0;
  q.Schedule(b);
  EXPECT_DOUBLE_EQ(q.NextTime(), 2.0);
}

TEST(EventQueueTest, PayloadRoundTrips) {
  CalendarQueue q;
  SimEvent e;
  e.time = 1.0;
  e.kind = 3;
  e.node = 42;
  e.a = 0xdeadbeefcafeULL;
  e.b = 77;
  e.x = 2.5;
  q.Schedule(e);
  const SimEvent out = q.Pop();
  EXPECT_EQ(out.kind, 3u);
  EXPECT_EQ(out.node, 42u);
  EXPECT_EQ(out.a, 0xdeadbeefcafeULL);
  EXPECT_EQ(out.b, 77u);
  EXPECT_DOUBLE_EQ(out.x, 2.5);
}

TEST(EventQueueTest, InterleavedScheduleAndPop) {
  CalendarQueue q;
  SimEvent e;
  e.time = 1.0;
  q.Schedule(e);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1.0);
  e.time = 3.0;
  q.Schedule(e);
  e.time = 2.0;
  q.Schedule(e);
  EXPECT_DOUBLE_EQ(q.Pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

// --- Determinism stress ------------------------------------------------
//
// The simulator's bit-reproducibility hinges on one documented rule:
// equal-time events pop in Schedule() order (FIFO), implemented by the
// monotone sequence number attached at Schedule() time. These tests
// hammer that rule with thousands of colliding timestamps, because a
// heap without the tiebreaker passes small happy-path tests yet
// reorders under real load.

TEST(EventQueueStressTest, ThousandsOfCollidingTimestampsPopFifo) {
  // 5000 events over only 7 distinct timestamps: ~700 collisions per
  // timestamp. Tag each event with its global schedule index and check
  // the pop order is (time, schedule index) lexicographic.
  CalendarQueue q;
  Rng rng(2024);
  const double kTimes[] = {0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0};
  constexpr std::uint64_t kNumEvents = 5000;
  for (std::uint64_t i = 0; i < kNumEvents; ++i) {
    SimEvent e;
    e.time = kTimes[rng.NextBounded(std::size(kTimes))];
    e.a = i;  // Global schedule order.
    q.Schedule(e);
  }
  ASSERT_EQ(q.size(), kNumEvents);

  double prev_time = -1.0;
  std::uint64_t prev_index = 0;
  bool first = true;
  std::uint64_t popped = 0;
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    if (!first && e.time == prev_time) {
      // Same timestamp: strictly increasing schedule order (FIFO).
      EXPECT_GT(e.a, prev_index);
    } else if (!first) {
      EXPECT_GT(e.time, prev_time);
    }
    prev_time = e.time;
    prev_index = e.a;
    first = false;
    ++popped;
  }
  EXPECT_EQ(popped, kNumEvents);
}

TEST(EventQueueStressTest, FifoSurvivesInterleavedPops) {
  // Schedule/pop interleaving must not disturb the FIFO rule: events
  // scheduled *after* some pops still sort behind earlier same-time
  // events that are still queued.
  CalendarQueue q;
  Rng rng(99);
  std::uint64_t next_index = 0;
  double prev_time = -1.0;
  std::uint64_t prev_index = 0;
  bool first = true;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t burst = 1 + rng.NextBounded(25);
    for (std::uint64_t i = 0; i < burst; ++i) {
      SimEvent e;
      // Times never go below what was already popped (simulator
      // invariant: no scheduling in the past).
      e.time = (prev_time < 0.0 ? 0.0 : prev_time) +
               static_cast<double>(rng.NextBounded(3));
      e.a = next_index++;
      q.Schedule(e);
    }
    const std::uint64_t pops = 1 + rng.NextBounded(burst);
    for (std::uint64_t i = 0; i < pops && !q.empty(); ++i) {
      const SimEvent e = q.Pop();
      if (!first) {
        ASSERT_GE(e.time, prev_time);
        if (e.time == prev_time) {
          ASSERT_GT(e.a, prev_index);
        }
      }
      prev_time = e.time;
      prev_index = e.a;
      first = false;
    }
  }
  // Drain the rest under the same invariant.
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    ASSERT_GE(e.time, prev_time);
    if (e.time == prev_time) {
      ASSERT_GT(e.a, prev_index);
    }
    prev_time = e.time;
    prev_index = e.a;
  }
}

TEST(EventQueueStressTest, IdenticalScheduleSequenceDrainsIdentically) {
  // Two queues fed the same sequence drain byte-identically — the
  // property the whole-simulator determinism tests build on.
  const auto feed = [](CalendarQueue& q) {
    Rng rng(7);
    for (std::uint64_t i = 0; i < 3000; ++i) {
      SimEvent e;
      e.time = static_cast<double>(rng.NextBounded(50)) * 0.25;
      e.node = static_cast<std::uint32_t>(i);
      q.Schedule(e);
    }
  };
  CalendarQueue a, b;
  feed(a);
  feed(b);
  while (!a.empty()) {
    ASSERT_FALSE(b.empty());
    const SimEvent ea = a.Pop();
    const SimEvent eb = b.Pop();
    ASSERT_EQ(ea.time, eb.time);
    ASSERT_EQ(ea.node, eb.node);
  }
  EXPECT_TRUE(b.empty());
}

// --- Calendar vs the heap oracle ---------------------------------------
//
// Every ordering rule above must hold for the calendar queue and for the
// test-side heap oracle alike: the oracle is only worth comparing
// against if it meets the same contract. The differential test below
// then feeds identical operation sequences to both and asserts the pop
// streams match event for event — the queue-level half of the
// whole-simulator goldens.

enum class QueueKind { kCalendar, kHeapReference };

// Runs `fn` on a fresh queue of the given kind.
template <typename Fn>
void WithQueue(QueueKind kind, Fn&& fn) {
  if (kind == QueueKind::kCalendar) {
    CalendarQueue q;
    fn(q);
  } else {
    HeapReference q;
    fn(q);
  }
}

class EngineQueueTest : public ::testing::TestWithParam<QueueKind> {};

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineQueueTest,
                         ::testing::Values(QueueKind::kCalendar,
                                           QueueKind::kHeapReference),
                         [](const auto& info) {
                           return info.param == QueueKind::kCalendar
                                      ? "Calendar"
                                      : "HeapReference";
                         });

TEST_P(EngineQueueTest, PopsInTimeOrderWithFifoTies) {
  WithQueue(GetParam(), [](auto& q) {
    Rng rng(4242);
    constexpr std::uint64_t kNumEvents = 20000;
    const double kTimes[] = {0.0, 0.5, 1.0, 1.25, 2.0, 7.5, 100.0};
    for (std::uint64_t i = 0; i < kNumEvents; ++i) {
      SimEvent e;
      e.time = kTimes[rng.NextBounded(std::size(kTimes))];
      e.a = i;
      q.Schedule(e);
    }
    ASSERT_EQ(q.size(), kNumEvents);
    double prev_time = -1.0;
    std::uint64_t prev_index = 0;
    bool first = true;
    while (!q.empty()) {
      EXPECT_DOUBLE_EQ(q.NextTime(), q.NextTime());  // Idempotent peek.
      const SimEvent e = q.Pop();
      if (!first && e.time == prev_time) {
        ASSERT_GT(e.a, prev_index);
      } else if (!first) {
        ASSERT_GT(e.time, prev_time);
      }
      prev_time = e.time;
      prev_index = e.a;
      first = false;
    }
  });
}

TEST_P(EngineQueueTest, MassiveSingleTimestampFloodPopsFifo) {
  // Worst-case tie flood: every event in one calendar day. Selection
  // must fall back to pure seq order.
  WithQueue(GetParam(), [](auto& q) {
    constexpr std::uint32_t kNumEvents = 10000;
    for (std::uint32_t i = 0; i < kNumEvents; ++i) {
      SimEvent e;
      e.time = 3.25;
      e.node = i;
      q.Schedule(e);
    }
    for (std::uint32_t i = 0; i < kNumEvents; ++i) {
      ASSERT_EQ(q.Pop().node, i);
    }
    EXPECT_TRUE(q.empty());
  });
}

// Pops one event from both queues and asserts they agree.
void ExpectSamePop(CalendarQueue& calendar, HeapReference& oracle,
                   double& now) {
  ASSERT_FALSE(oracle.empty());
  ASSERT_EQ(calendar.NextTime(), oracle.NextTime());
  const SimEvent a = calendar.Pop();
  const SimEvent b = oracle.Pop();
  ASSERT_EQ(a.time, b.time);
  ASSERT_EQ(a.seq, b.seq);
  ASSERT_EQ(a.node, b.node);
  now = a.time;
}

TEST(EngineDifferentialTest, EnginesDrainIdenticallyUnderRandomLoad) {
  // Over 10^6 randomized operations, the calendar queue and the heap
  // oracle must produce identical pop streams. The mix covers:
  //  - arrivals into the staged day: events at exactly `now`, scheduled
  //    right after a pop while the rest of that day is still staged;
  //  - resize churn: the population swings between a few dozen and
  //    tens of thousands of events, through the growth and shrink
  //    thresholds and the periodic width recalibration;
  //  - caller-keyed events (SchedulePreKeyed) from a key space disjoint
  //    from the queue's own counter, as the sharded discipline uses;
  //  - a mid-stream checkpoint every 2^17 operations: the calendar's
  //    snapshot must equal the oracle's, and the run continues on a
  //    fresh calendar rebuilt by RestorePending (queue-keyed events)
  //    plus SchedulePreKeyed (caller-keyed ones).
  constexpr std::uint64_t kOps = 1200000;
  constexpr std::uint64_t kPreKeyBase = std::uint64_t{1} << 62;
  CalendarQueue calendar;
  HeapReference oracle;
  Rng rng(20240731);
  double now = 0.0;
  std::uint32_t next_node = 0;
  std::uint64_t next_pre_key = kPreKeyBase;
  std::uint64_t restores = 0;
  std::uint64_t ops = 0;
  // Target population; re-drawn every phase to force resize churn.
  std::uint64_t target = 64;
  while (ops < kOps) {
    if (ops % 50000 == 0) {
      target = std::uint64_t{1} << (5 + rng.NextBounded(11));  // 32..32768
    }
    const bool grow = calendar.size() < target ? rng.NextBounded(4) != 0
                                               : rng.NextBounded(4) == 0;
    if (grow || calendar.empty()) {
      SimEvent e;
      e.node = next_node++;
      const std::uint64_t shape = rng.NextBounded(10);
      if (shape < 3) {
        e.time = now;  // Into the staged day when one is active.
      } else if (shape < 6) {
        e.time = now + static_cast<double>(rng.NextBounded(8)) * 0.25;
      } else if (shape < 9) {
        e.time = now + static_cast<double>(rng.NextBounded(1000)) * 0.01;
      } else {
        e.time = now + 1e6 + static_cast<double>(rng.NextBounded(100));
      }
      if (rng.NextBounded(8) == 0) {
        e.seq = next_pre_key++;
        calendar.SchedulePreKeyed(e);
        oracle.SchedulePreKeyed(e);
      } else {
        calendar.Schedule(e);
        oracle.Schedule(e);
      }
    } else {
      ExpectSamePop(calendar, oracle, now);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(calendar.size(), oracle.size());
    if (++ops % (std::uint64_t{1} << 17) == 0) {
      const std::vector<SimEvent> snapshot = calendar.SnapshotEvents();
      const std::vector<SimEvent> expected = oracle.SnapshotEvents();
      ASSERT_EQ(snapshot.size(), expected.size());
      std::vector<SimEvent> queue_keyed;
      CalendarQueue restored;
      for (std::size_t i = 0; i < snapshot.size(); ++i) {
        ASSERT_EQ(snapshot[i].seq, expected[i].seq) << i;
        ASSERT_EQ(snapshot[i].node, expected[i].node) << i;
        if (snapshot[i].seq < kPreKeyBase) queue_keyed.push_back(snapshot[i]);
      }
      restored.RestorePending(queue_keyed, calendar.next_seq());
      for (const SimEvent& e : snapshot) {
        if (e.seq >= kPreKeyBase) restored.SchedulePreKeyed(e);
      }
      calendar = std::move(restored);
      ++restores;
    }
  }
  EXPECT_GE(restores, 9u);
  EXPECT_GT(calendar.resizes(), 0u);
  while (!calendar.empty()) {
    ExpectSamePop(calendar, oracle, now);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(oracle.empty());
}

// --- Death tests: empty-queue access and invalid times -----------------
//
// NextTime()/Pop() on an empty queue and non-finite or negative
// Schedule() times are programming errors; the queue must abort loudly
// instead of silently corrupting delivery order (a NaN breaks the
// comparator's strict weak ordering; empty access was UB).

using EngineQueueDeathTest = EngineQueueTest;

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineQueueDeathTest,
                         ::testing::Values(QueueKind::kCalendar,
                                           QueueKind::kHeapReference),
                         [](const auto& info) {
                           return info.param == QueueKind::kCalendar
                                      ? "Calendar"
                                      : "HeapReference";
                         });

TEST_P(EngineQueueDeathTest, PopOnEmptyAborts) {
  WithQueue(GetParam(), [](auto& q) {
    EXPECT_DEATH(q.Pop(), "SPPNET_CHECK failed");
    SimEvent e;
    e.time = 1.0;
    q.Schedule(e);
    q.Pop();
    EXPECT_DEATH(q.Pop(), "SPPNET_CHECK failed");  // Drained, not just new.
  });
}

TEST_P(EngineQueueDeathTest, NextTimeOnEmptyAborts) {
  WithQueue(GetParam(), [](auto& q) {
    EXPECT_DEATH(q.NextTime(), "SPPNET_CHECK failed");
  });
}

TEST_P(EngineQueueDeathTest, ScheduleRejectsNonFiniteAndNegativeTimes) {
  WithQueue(GetParam(), [](auto& q) {
    SimEvent e;
    e.time = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(q.Schedule(e), "isfinite");
    e.time = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(q.Schedule(e), "isfinite");
    e.time = -std::numeric_limits<double>::infinity();
    EXPECT_DEATH(q.Schedule(e), "isfinite");
    e.time = -1e-9;
    EXPECT_DEATH(q.Schedule(e), "time >= 0");
    // The largest finite double is legal — clamped into the final
    // calendar day, not overflowed.
    e.time = std::numeric_limits<double>::max();
    q.Schedule(e);
    EXPECT_DOUBLE_EQ(q.Pop().time, std::numeric_limits<double>::max());
  });
}

// --- Calendar-specific behaviour ---------------------------------------

TEST(CalendarQueueTest, ResizeChurnPreservesOrderAndCountsResizes) {
  // Grow through several doublings, then drain through the shrink path;
  // the resize schedule is deterministic and order never changes.
  CalendarQueue q;
  Rng rng(555);
  constexpr std::uint64_t kNumEvents = 50000;
  for (std::uint64_t i = 0; i < kNumEvents; ++i) {
    SimEvent e;
    e.time = static_cast<double>(rng.NextBounded(100000)) * 0.001;
    q.Schedule(e);
  }
  EXPECT_GT(q.resizes(), 0u);        // Growth resizes fired.
  EXPECT_GT(q.num_buckets(), 16u);   // And actually doubled.
  EXPECT_GT(q.ApproxMemoryBytes(), 0u);
  const std::uint64_t grow_resizes = q.resizes();
  double prev = -1.0;
  std::uint64_t prev_seq = 0;
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    if (e.time == prev) {
      ASSERT_GT(e.seq, prev_seq);
    } else {
      ASSERT_GT(e.time, prev);
    }
    prev = e.time;
    prev_seq = e.seq;
  }
  EXPECT_GT(q.resizes(), grow_resizes);  // Shrink resizes fired too.
  EXPECT_EQ(q.num_buckets(), 16u);       // Back down to the floor.
}

TEST(CalendarQueueTest, SparseFarApartEventsUseGlobalScanFallback) {
  // Consecutive events more than a whole calendar year apart: the
  // day-walk finds nothing and the global-scan fallback must locate the
  // true minimum every time.
  CalendarQueue q;
  std::vector<double> times;
  for (int i = 0; i < 50; ++i) {
    times.push_back(static_cast<double>(i) * 1e7 + 0.5);
  }
  // Schedule in a scrambled but deterministic order.
  for (std::size_t i = 0; i < times.size(); ++i) {
    SimEvent e;
    e.time = times[(i * 37) % times.size()];
    q.Schedule(e);
  }
  for (const double expected : times) {
    ASSERT_DOUBLE_EQ(q.Pop().time, expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, FarFutureTimesClampIntoFinalDayInOrder) {
  // Times past the uint64 day range collapse into one final "day";
  // (time, seq) still resolves their relative order.
  CalendarQueue q;
  const double kHuge[] = {1e300, 1e250, 1e280, 1e250, 3.0};
  for (const double t : kHuge) {
    SimEvent e;
    e.time = t;
    q.Schedule(e);
  }
  EXPECT_DOUBLE_EQ(q.Pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1e250);
  const SimEvent second_1e250 = q.Pop();
  EXPECT_DOUBLE_EQ(second_1e250.time, 1e250);
  EXPECT_EQ(second_1e250.seq, 3u);  // FIFO among the equal clamped times.
  EXPECT_DOUBLE_EQ(q.Pop().time, 1e280);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1e300);
}

TEST(CalendarQueueTest, StationaryPopulationRecalibratesWidth) {
  // A stationary population never trips the size-based thresholds, so
  // the periodic recalibration is the only path to fix a badly seeded
  // width (default 0.25 s vs ~50 s observed gaps here). Mirror every
  // operation against the heap oracle to show the recalibration resize
  // leaves the pop stream untouched.
  CalendarQueue q;
  HeapReference ref;
  Rng rng(808);
  double now = 0.0;
  const double initial_width = q.bucket_width_seconds();
  // Prime a stable population of ~64 events spaced ~50 s apart.
  const auto schedule_one = [&](double base) {
    SimEvent e;
    e.time = base + 25.0 + static_cast<double>(rng.NextBounded(50));
    q.Schedule(e);
    ref.Schedule(e);
  };
  for (int i = 0; i < 64; ++i) schedule_one(now + 50.0 * i);
  for (int round = 0; round < 20000; ++round) {
    const SimEvent a = q.Pop();
    const SimEvent b = ref.Pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
    now = a.time;
    schedule_one(now + 50.0 * 64);
  }
  EXPECT_NE(q.bucket_width_seconds(), initial_width);
  EXPECT_GT(q.bucket_width_seconds(), 1.0);  // Tracked the ~50 s gaps.
}

}  // namespace
}  // namespace sppnet
