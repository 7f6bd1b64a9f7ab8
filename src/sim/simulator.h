#ifndef MGJOIN_SIM_SIMULATOR_H_
#define MGJOIN_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "sim/event_fn.h"
#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace mgjoin::sim {

/// Selects the event-queue implementation backing a Simulator.
enum class QueueKind {
  kCalendar,       ///< two-level calendar queue (default, fast path)
  kHeapReference,  ///< original binary heap, kept as a determinism oracle
};

/// \brief Deterministic discrete-event simulator.
///
/// Events are closures ordered by (time, insertion sequence); ties are
/// broken by insertion order so runs are exactly reproducible. The
/// network layer, the GPU kernel models and the join drivers all advance
/// this single clock.
///
/// Events live in a two-level calendar queue (see event_queue.h) and
/// their callables in small-buffer EventFn slots backed by this
/// simulator's EventArena, so steady-state scheduling performs no heap
/// allocation. Same-timestamp events dispatch as one batch: the clock
/// advances once, then the sorted run drains with a cursor increment
/// per event. The loop is serial: every handler runs on the thread that
/// called Run()/RunUntil() (DESIGN.md Sec 13).
class Simulator {
 public:
  explicit Simulator(QueueKind kind = QueueKind::kCalendar) : kind_(kind) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` after the current time. A delay that
  /// would overflow the clock (e.g. TransferTime on a zero-rate link
  /// returning kSimTimeMax) saturates to kSimTimeMax instead of
  /// wrapping.
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    const SimTime when =
        delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay;
    PushEvent(when, EventFn(&arena_, std::forward<F>(fn)));
  }

  /// Schedules `fn` at absolute time `when` (>= Now()).
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    PushEvent(when, EventFn(&arena_, std::forward<F>(fn)));
  }

  /// Runs events until the queue is empty. Returns the final time.
  SimTime Run();

  /// Runs events with time <= `until`. The clock always advances to
  /// `until`, even when the queue drains earlier, so back-to-back
  /// RunUntil calls tile simulated time. Returns `until` (== Now()).
  SimTime RunUntil(SimTime until);

  /// Number of events processed so far (for tests / sanity checks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Events currently enqueued (telemetry probe).
  std::size_t queue_size() const {
    return kind_ == QueueKind::kCalendar ? calendar_.size() : heap_.size();
  }

  /// \brief Installs a read-only observer fired at every multiple of
  /// `interval` the clock crosses, *outside* the event stream.
  ///
  /// The observer runs between events — it consumes no event-sequence
  /// number and must not schedule events (checked), so installing one
  /// cannot perturb event order or timing: a run with an observer is
  /// byte-identical to one without (the telemetry determinism
  /// contract). Grid points are elided inside long event-free gaps:
  /// simulator state is frozen between events, so only the first and
  /// last grid point of a gap are fired — the skipped points would
  /// repeat the same values (and a zero-rate-link event parked at
  /// kSimTimeMax would otherwise mean ~2^40 redundant callbacks).
  /// A grid point coinciding with an event time fires before that
  /// event's batch: the observed state is "just before t".
  void SetObserver(SimTime interval, std::function<void(SimTime)> fn) {
    MGJ_CHECK(interval > 0) << "observer interval must be positive";
    observer_interval_ = interval;
    observer_ = std::move(fn);
    next_observation_ = (now_ / interval + 1) * interval;
  }

  bool Empty() const {
    return kind_ == QueueKind::kCalendar ? calendar_.Empty() : heap_.Empty();
  }

  /// Heap blocks the event arena has obtained from the system (tests:
  /// steady-state scheduling must keep this flat).
  std::size_t arena_blocks_allocated() const {
    return arena_.blocks_allocated();
  }

 private:
  void PushEvent(SimTime when, EventFn&& fn) {
    MGJ_CHECK(when >= now_)
        << "scheduling into the past: " << when << " < " << now_;
    if (kind_ == QueueKind::kCalendar) {
      calendar_.Push(when, next_seq_++, std::move(fn));
    } else {
      heap_.Push(when, next_seq_++, std::move(fn));
    }
  }
  template <typename Q>
  SimTime RunLoop(Q& queue, SimTime until, bool bounded);
  void ObserveUpTo(SimTime t);

  QueueKind kind_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  SimTime observer_interval_ = 0;
  SimTime next_observation_ = 0;
  std::function<void(SimTime)> observer_;
  // The arena must outlive the queues: EventFns still enqueued at
  // destruction return their blocks to it.
  EventArena arena_;
  CalendarQueue calendar_;
  HeapQueue heap_;
};

}  // namespace mgjoin::sim

#endif  // MGJOIN_SIM_SIMULATOR_H_
