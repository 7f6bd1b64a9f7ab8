// Unit tests for the discrete-event simulator, including end-to-end
// determinism of a full transfer-engine run (two identical runs must
// produce byte-identical observable streams).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/fault_plan.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::sim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMicros(kMicrosecond), 1.0);
}

TEST(SimTimeTest, TransferTime) {
  // 1 GB at 1 GB/s = 1 s.
  EXPECT_EQ(TransferTime(1000000000ull, 1e9), kSecond);
  // 2 MiB at 25 GB/s ~ 83.9 us.
  const SimTime t = TransferTime(2 * 1024 * 1024, 25e9);
  EXPECT_NEAR(ToMicros(t), 83.886, 0.01);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(30, [&] { order.push_back(3); });
  s.Schedule(10, [&] { order.push_back(1); });
  s.Schedule(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30u);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.Schedule(5, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.Schedule(1, chain);
  };
  s.Schedule(1, chain);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.Now(), 100u);
  EXPECT_EQ(s.events_processed(), 100u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.Schedule(static_cast<SimTime>(i) * 10, [&count] { ++count; });
  }
  s.RunUntil(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.Now(), 55u);
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.RunUntil(1000);
  EXPECT_EQ(s.Now(), 1000u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator s;
  SimTime seen = 0;
  s.ScheduleAt(500, [&] { seen = s.Now(); });
  s.Run();
  EXPECT_EQ(seen, 500u);
}

TEST(SimTimeTest, RoundTripsAtPicosecondExtremes) {
  // FromSeconds(ToSeconds(t)) must be exact from a single picosecond up
  // to hours of simulated time (~3.6e15 ps, still inside the 2^53
  // double-exact integer range).
  for (const SimTime t :
       {SimTime{1}, SimTime{999}, kNanosecond + 1, kMicrosecond,
        kMillisecond + 123456789, kSecond, 3600 * kSecond}) {
    EXPECT_EQ(FromSeconds(ToSeconds(t)), t) << t;
  }
  EXPECT_EQ(FromSeconds(1e-12), SimTime{1});  // one picosecond
  EXPECT_EQ(FromSeconds(0.0), SimTime{0});
  EXPECT_DOUBLE_EQ(ToSeconds(SimTime{1}), 1e-12);
}

TEST(SimTimeTest, FromSecondsClampsPathologicalInputs) {
  // A negative double cast straight to the unsigned SimTime would wrap
  // to centuries of simulated time; these must all pin to zero instead.
  EXPECT_EQ(FromSeconds(-1.0), SimTime{0});
  EXPECT_EQ(FromSeconds(-1e-15), SimTime{0});
  EXPECT_EQ(FromSeconds(-std::numeric_limits<double>::infinity()),
            SimTime{0});
  EXPECT_EQ(FromSeconds(std::numeric_limits<double>::quiet_NaN()),
            SimTime{0});
  // Beyond-range inputs saturate instead of overflowing the cast.
  EXPECT_EQ(FromSeconds(1e30), kSimTimeMax);
  EXPECT_EQ(FromSeconds(std::numeric_limits<double>::infinity()),
            kSimTimeMax);
}

TEST(SimTimeTest, TransferTimeIsExactBeyondDoublePrecision) {
  // At 1 TB/s one byte is exactly 1 ps, so the answer equals the byte
  // count. Above 2^53 a pure double product rounds to an even integer
  // and drops the trailing byte — the fixed-point path must not.
  EXPECT_EQ(TransferTime((1ull << 53) + 1, 1e12), (1ull << 53) + 1);
  EXPECT_EQ(TransferTime(1000000000000ull, 1e12), kSecond);
  EXPECT_EQ(TransferTime(1000000000ull, 1e9), kSecond);
}

TEST(SimTimeTest, TransferTimeEdgeRates) {
  EXPECT_EQ(TransferTime(0, 25e9), SimTime{0});
  // Zero, negative or NaN bandwidth means "never": saturate, don't
  // divide.
  EXPECT_EQ(TransferTime(1, 0.0), kSimTimeMax);
  EXPECT_EQ(TransferTime(1, -5.0), kSimTimeMax);
  EXPECT_EQ(TransferTime(1, std::numeric_limits<double>::quiet_NaN()),
            kSimTimeMax);
  // A rate slow enough to overflow the fixed-point ps-per-byte clamps.
  EXPECT_EQ(TransferTime(1, 1e-10), kSimTimeMax);
  // So does a product that exceeds the representable horizon.
  EXPECT_EQ(TransferTime(1ull << 60, 1e9), kSimTimeMax);
}

TEST(SimulatorTest, RunUntilBoundaryIsInclusive) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(50, [&count] { ++count; });
  s.ScheduleAt(55, [&count] { ++count; });
  s.ScheduleAt(56, [&count] { ++count; });
  s.RunUntil(55);
  EXPECT_EQ(count, 2);  // the event at exactly `until` runs
  EXPECT_EQ(s.Now(), 55u);
  EXPECT_FALSE(s.Empty());
  s.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilDoesNotRewindClock) {
  Simulator s;
  s.RunUntil(1000);
  ASSERT_EQ(s.Now(), 1000u);
  s.RunUntil(400);  // an earlier horizon must not move time backwards
  EXPECT_EQ(s.Now(), 1000u);
}

TEST(SimulatorTest, ScheduleSaturatesAtTimeHorizon) {
  // A delay that would overflow the clock (e.g. TransferTime returning
  // kSimTimeMax for a dead link) pins the event to kSimTimeMax instead
  // of wrapping into the past.
  for (QueueKind kind : {QueueKind::kCalendar, QueueKind::kHeapReference}) {
    Simulator s(kind);
    s.RunUntil(1000);
    std::vector<int> order;
    SimTime seen = 0;
    s.Schedule(kSimTimeMax, [&] {
      seen = s.Now();
      order.push_back(1);
    });
    s.Schedule(kSimTimeMax - 5, [&] { order.push_back(2); });  // also wraps
    s.Schedule(kSimTimeMax, [&] { order.push_back(3); });
    s.Run();
    EXPECT_EQ(seen, kSimTimeMax);
    EXPECT_EQ(s.Now(), kSimTimeMax);
    // All three saturate to the same timestamp: FIFO order survives even
    // at the horizon.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
}

TEST(SimulatorTest, RunUntilAdvancesToHorizonWhenQueueDrainsEarly) {
  // The documented clock contract: RunUntil always leaves Now() == until
  // even when the last event fires earlier, so back-to-back RunUntil
  // calls tile simulated time with no gaps.
  Simulator s;
  int count = 0;
  s.ScheduleAt(10, [&count] { ++count; });
  EXPECT_EQ(s.RunUntil(500), 500u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.Now(), 500u);
  EXPECT_EQ(s.RunUntil(750), 750u);
  EXPECT_EQ(s.Now(), 750u);
}

TEST(SimulatorTest, MillionSameTimestampEventsDispatchFifo) {
  // Stress of the batched same-timestamp dispatch path: one bucket, one
  // clock advance, 10^6 cursor increments — in exact insertion order.
  constexpr std::uint32_t kN = 1000000;
  Simulator s;
  std::vector<std::uint32_t> order;
  order.reserve(kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    s.ScheduleAt(77, [&order, i] { order.push_back(i); });
  }
  s.Run();
  ASSERT_EQ(order.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    if (order[i] != i) FAIL() << "order[" << i << "] == " << order[i];
  }
  EXPECT_EQ(s.Now(), 77u);
  EXPECT_EQ(s.events_processed(), kN);
}

std::vector<int> DispatchOrder(QueueKind kind) {
  Simulator s(kind);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.ScheduleAt(10, [&s, &order, i] {
      order.push_back(i);
      if (i % 2 == 0) {
        s.ScheduleAt(10, [&order, i] { order.push_back(100 + i); });
      }
    });
  }
  s.Run();
  return order;
}

TEST(SimulatorTest, SchedulingDuringBatchedDispatchStaysFifo) {
  // Handlers that schedule at the current timestamp while their batch is
  // draining join the *end* of the batch (global insertion order), on
  // both queue implementations.
  const std::vector<int> expect = {0, 1, 2, 3, 4, 5, 6, 7, 100, 102, 104,
                                   106};
  EXPECT_EQ(DispatchOrder(QueueKind::kCalendar), expect);
  EXPECT_EQ(DispatchOrder(QueueKind::kHeapReference), expect);
}

std::vector<int> BoundaryFireOrder(QueueKind kind,
                                   const std::vector<SimTime>& times) {
  Simulator s(kind);
  std::vector<int> order;
  for (std::size_t i = 0; i < times.size(); ++i) {
    s.ScheduleAt(times[i], [&s, &order, &times, i] {
      EXPECT_EQ(s.Now(), times[i]);
      order.push_back(static_cast<int>(i));
    });
  }
  s.Run();
  EXPECT_EQ(s.Now(), kSimTimeMax);
  return order;
}

TEST(SimulatorTest, LadderBucketBoundariesPopInGlobalOrder) {
  // Timestamps straddling every calendar-queue boundary: bucket edges,
  // the L1 window edge, the L2 window edge, the overflow region and the
  // saturated top of the time range — scheduled in scrambled order, with
  // duplicates to exercise FIFO ties at the edges.
  const SimTime b1 = SimTime{1} << 20;  // L1 bucket width
  const SimTime w1 = b1 << 10;          // L1 window (= one L2 bucket)
  const SimTime w2 = w1 << 10;          // L2 window
  const std::vector<SimTime> times = {
      w1,     0,  kSimTimeMax, b1 - 1, w2 + 3,          b1, kSimTimeMax,
      1,      b1, w1 - 1,      w2 - 1, 3 * w2 + b1 + 7, w1, w1 + 1,
      b1 + 1, 0,  w2,          kSimTimeMax - 1};
  std::vector<int> expect(times.size());
  std::iota(expect.begin(), expect.end(), 0);
  std::stable_sort(expect.begin(), expect.end(),
                   [&](int a, int b) { return times[a] < times[b]; });
  EXPECT_EQ(BoundaryFireOrder(QueueKind::kCalendar, times), expect);
  EXPECT_EQ(BoundaryFireOrder(QueueKind::kHeapReference, times), expect);
}

TEST(SimulatorTest, SteadyStateSchedulingKeepsArenaFlat) {
  // Oversized captures spill to the event arena; a self-rescheduling
  // chain must recycle its block instead of growing the arena.
  Simulator s;
  std::array<char, 64> big{};
  int count = 0;
  std::size_t after_warmup = 0;
  std::function<void()> tick = [&] {
    if (++count == 100) after_warmup = s.arena_blocks_allocated();
    if (count < 10000) {
      s.Schedule(1, [&, big] {
        (void)big;
        tick();
      });
    }
  };
  s.Schedule(1, [&, big] {
    (void)big;
    tick();
  });
  s.Run();
  EXPECT_EQ(count, 10000);
  EXPECT_GT(after_warmup, 0u);
  EXPECT_EQ(s.arena_blocks_allocated(), after_warmup);
}

TEST(SimulatorTest, SameTimestampEventsCanScheduleMoreAtSameTime) {
  // An event scheduled *at the current time from within an event* still
  // runs after everything already queued for that time (insertion order
  // is global, not per-timestamp).
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(10, [&] {
    order.push_back(1);
    s.ScheduleAt(10, [&] { order.push_back(3); });
  });
  s.ScheduleAt(10, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 10u);
}

// ---------------------------------------------------------------------------
// Whole-system determinism: the property the trace/metrics subsystem and
// all repro experiments rely on.

std::pair<std::string, std::uint64_t> TracedAdaptiveRun(
    QueueKind kind = QueueKind::kCalendar, bool faulted = false,
    bool escape_heavy = false) {
  Simulator s(kind);
  auto topo = topo::MakeDgx1V();
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  mgjoin::obs::TraceRecorder trace;
  net::TransferOptions opts;
  opts.obs.trace = &trace;
  opts.ring_buffer_bytes = 8 * kMiB;  // some backpressure + ring syncs
  if (escape_heavy) {
    // 2-slot rings and an impatient escape valve: settled ring syncs,
    // escapes and fault re-routes all meet.
    opts.ring_buffer_bytes = 4 * kMiB;
    opts.escape_poll_threshold = 2;
  }
  if (faulted) {
    opts.faults = net::FaultPlan::Parse(
                      "down:gpu0-gpu3:@1ms,restore:gpu0-gpu3:@4ms,"
                      "degrade:qpi0:0.4:@0us",
                      *topo)
                      .ValueOrDie();
  }
  net::TransferEngine eng(&s, topo.get(), topo::FirstNGpus(8), policy.get(),
                          opts);
  std::uint64_t id = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a != b) {
        eng.AddFlow(net::Flow{id++, a, b, 16 * kMiB + a + b, 0, 0.0, 0, {}});
      }
    }
  }
  eng.Start();
  s.Run();
  EXPECT_TRUE(eng.AllDone());
  if (faulted) {
    EXPECT_EQ(eng.links().fault_events_applied(), 3u);
  }
  return {trace.ToJson(), s.events_processed()};
}

TEST(SimulatorTest, IdenticalRunsProduceByteIdenticalTraces) {
  const auto [json1, events1] = TracedAdaptiveRun();
  const auto [json2, events2] = TracedAdaptiveRun();
  EXPECT_EQ(events1, events2);
  ASSERT_FALSE(json1.empty());
  EXPECT_EQ(json1, json2) << "adaptive-policy run is not deterministic";
}

TEST(SimulatorTest, CalendarAndHeapQueuesProduceByteIdenticalTraces) {
  // The calendar queue must be observationally indistinguishable from
  // the reference heap: a full 8-GPU adaptive run with link faults —
  // backpressure, ring syncs, repair/retry machinery — replays to the
  // exact same trace bytes and event count on both implementations.
  const auto [cal_json, cal_events] =
      TracedAdaptiveRun(QueueKind::kCalendar, /*faulted=*/true);
  const auto [heap_json, heap_events] =
      TracedAdaptiveRun(QueueKind::kHeapReference, /*faulted=*/true);
  EXPECT_EQ(cal_events, heap_events);
  ASSERT_FALSE(cal_json.empty());
  EXPECT_EQ(cal_json, heap_json)
      << "calendar queue diverged from the heap reference";

  // Escape-heavy faulted run: busy senders' ring syncs, escapes and
  // fault re-routes all meet, and both queues must order them alike.
  const auto [cal_esc_json, cal_esc_events] = TracedAdaptiveRun(
      QueueKind::kCalendar, /*faulted=*/true, /*escape_heavy=*/true);
  const auto [heap_esc_json, heap_esc_events] = TracedAdaptiveRun(
      QueueKind::kHeapReference, /*faulted=*/true, /*escape_heavy=*/true);
  EXPECT_EQ(cal_esc_events, heap_esc_events);
  ASSERT_FALSE(cal_esc_json.empty());
  EXPECT_NE(cal_esc_json.find("\"escape\""), std::string::npos);
  EXPECT_EQ(cal_esc_json, heap_esc_json)
      << "escape-heavy run: calendar queue diverged from the heap";
}

}  // namespace
}  // namespace mgjoin::sim
