#include "sim/simulator.h"

namespace mgjoin::sim {

void Simulator::ObserveUpTo(SimTime t) {
  // Fire the pending grid point, then — eliding the frozen interior of
  // the gap (see SetObserver) — the last grid point not after t. The
  // observer must not schedule: that would consume sequence numbers and
  // break the with/without-observer determinism contract.
  const std::uint64_t seq_before = next_seq_;
  observer_(next_observation_);
  const SimTime last_grid = t - t % observer_interval_;
  if (last_grid > next_observation_) observer_(last_grid);
  MGJ_CHECK(next_seq_ == seq_before)
      << "simulator observer scheduled an event";
  next_observation_ = last_grid > kSimTimeMax - observer_interval_
                          ? kSimTimeMax
                          : last_grid + observer_interval_;
}

template <typename Q>
SimTime Simulator::RunLoop(Q& queue, SimTime until, bool bounded) {
  while (!queue.Empty()) {
    const SimTime t = queue.PeekWhen();
    if (bounded && t > until) break;
    if (observer_ != nullptr && next_observation_ <= t) ObserveUpTo(t);
    now_ = t;
    // Batched same-timestamp dispatch: drain every event at now_ —
    // including ones a handler schedules *at* now_ mid-batch, which
    // carry higher seq numbers and thus run last, exactly as the
    // one-pop-per-iteration loop ordered them.
    do {
      ++events_processed_;
      queue.InvokeNext();
    } while (!queue.Empty() && queue.PeekWhen() == now_);
  }
  if (bounded && now_ < until) {
    if (observer_ != nullptr && next_observation_ <= until) {
      ObserveUpTo(until);
    }
    now_ = until;
  }
  return now_;
}

SimTime Simulator::Run() {
  return kind_ == QueueKind::kCalendar
             ? RunLoop(calendar_, kSimTimeMax, false)
             : RunLoop(heap_, kSimTimeMax, false);
}

SimTime Simulator::RunUntil(SimTime until) {
  return kind_ == QueueKind::kCalendar ? RunLoop(calendar_, until, true)
                                       : RunLoop(heap_, until, true);
}

}  // namespace mgjoin::sim
