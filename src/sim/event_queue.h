#ifndef MGJOIN_SIM_EVENT_QUEUE_H_
#define MGJOIN_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.h"
#include "sim/sim_time.h"

namespace mgjoin::sim {

/// A scheduled event: the callable plus its (when, seq) ordering key.
/// `seq` is the global insertion sequence number; ties on `when` are
/// broken by `seq` so dispatch order is exactly FIFO per timestamp.
/// 64 bytes — one cache line per event.
struct Event {
  Event() = default;
  Event(SimTime w, std::uint64_t s, EventFn&& f)
      : when(w), seq(s), fn(std::move(f)) {}

  SimTime when = 0;
  std::uint64_t seq = 0;
  EventFn fn;
};

inline bool EventBefore(const Event& a, const Event& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// Comparator turning std::push_heap/pop_heap into a min-heap on
/// (when, seq).
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return EventBefore(b, a);
  }
};

/// \brief Binary-heap event queue, kept as the determinism oracle.
///
/// This is the original simulator core (a (when, seq) min-heap) behind
/// the same owned-pop interface as CalendarQueue. determinism tests
/// cross-check that both queues produce byte-identical traces.
class HeapQueue {
 public:
  void Push(SimTime when, std::uint64_t seq, EventFn&& fn) {
    heap_.emplace_back(when, seq, std::move(fn));
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }
  bool Empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime PeekWhen() const { return heap_.front().when; }
  Event PopNext() {
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }
  /// Pops and invokes the minimum event. Unlike CalendarQueue, the heap
  /// must move the event out first: a handler's push would reallocate
  /// the heap vector under an in-place callable.
  void InvokeNext() {
    Event ev = PopNext();
    ev.fn();
  }

 private:
  std::vector<Event> heap_;
};

/// \brief Two-level calendar (ladder) queue keyed on SimTime.
///
/// Layout:
///   - L1 wheel: 1024 buckets x 2^20 ps (~1 us) covering ~1.07 ms from
///     `l1_start_`. The next bucket to drain is found via occupancy
///     bitmasks, moved into `sorted_` and lazily sorted by (when, seq).
///   - L2 wheel: 1024 buckets x 2^30 ps (~1.07 ms) covering ~1.1 s from
///     `l2_start_`. When L1 runs dry, the next occupied L2 bucket is
///     re-binned into a fresh L1 window.
///   - Overflow: an unsorted vector for events beyond the L2 window;
///     when both wheels drain, the window rebases directly to the
///     overflow minimum (no sequential stepping across empty epochs).
///   - `incoming_`: a small (when, seq) min-heap for events pushed below
///     `sorted_end_` — i.e. into or before the bucket currently being
///     drained. Pops always take min(sorted run head, incoming head),
///     which is what preserves exact FIFO tie-break semantics while a
///     handler schedules into its own timestamp.
///
/// Every event is touched O(1) amortized times (push, at most one L2->L1
/// re-bin, one bucket sort, pop) versus O(log n) sift moves per
/// operation for the heap.
///
/// Ordering invariants (why pops are globally (when, seq)-ordered):
///   1. `sorted_end_` is monotonically non-decreasing.
///   2. Everything still on the wheels/overflow has when >= sorted_end_.
///   3. Everything in `incoming_` has when < sorted_end_ (or
///      sorted_end_ has saturated at kSimTimeMax, where all pushes
///      route to `incoming_`).
/// Hence the incoming heap always precedes unloaded buckets, and the
/// head comparison in PopNext/Peek is a total order decision.
class CalendarQueue {
 public:
  CalendarQueue() : l1_(kNumBuckets), l2_(kNumBuckets) {}
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  void Push(SimTime when, std::uint64_t seq, EventFn&& fn) {
    ++size_;
    if (when < sorted_end_ || sorted_end_ == kSimTimeMax) {
      incoming_.emplace_back(when, seq, std::move(fn));
      std::push_heap(incoming_.begin(), incoming_.end(), EventAfter{});
      return;
    }
    if (when >= l1_start_ &&
        ((when - l1_start_) >> kL1Shift) < static_cast<SimTime>(kNumBuckets)) {
      const int b = static_cast<int>((when - l1_start_) >> kL1Shift);
      l1_[b].emplace_back(when, seq, std::move(fn));
      l1_occ_.Set(b);
      return;
    }
    PushSlow(when, seq, std::move(fn));
  }

  bool Empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the next event to pop. Requires !Empty(); may load
  /// and sort the next bucket.
  SimTime PeekWhen() {
    if (cursor_ < sorted_.size()) {
      const SimTime t = sorted_[cursor_].when;
      if (!incoming_.empty() && incoming_.front().when < t) {
        return incoming_.front().when;
      }
      return t;
    }
    return PeekWhenSlow();
  }

  /// Removes and returns the globally minimum (when, seq) event.
  /// Requires !Empty().
  Event PopNext() {
    if (cursor_ < sorted_.size() &&
        (incoming_.empty() ||
         !EventBefore(incoming_.front(), sorted_[cursor_]))) {
      --size_;
      Event ev = std::move(sorted_[cursor_]);
      if (++cursor_ == sorted_.size()) {
        sorted_.clear();
        cursor_ = 0;
      }
      return ev;
    }
    return PopNextSlow();
  }

  /// Invokes and destroys the minimum event without moving it out of
  /// its queue slot. Requires !Empty(). Safe against the handler
  /// scheduling new events: pushes only ever touch `incoming_`, the
  /// wheels and `overflow_` — never the sorted run being drained — so
  /// the in-place callable's storage stays put while it runs.
  void InvokeNext() {
    if (cursor_ < sorted_.size() &&
        (incoming_.empty() ||
         !EventBefore(incoming_.front(), sorted_[cursor_]))) {
      --size_;
      Event& ev = sorted_[cursor_++];
      ev.fn();
      ev.fn = EventFn();  // release any arena block now, not at clear()
      if (cursor_ == sorted_.size()) {
        sorted_.clear();
        cursor_ = 0;
      }
      return;
    }
    Event ev = PopNextSlow();
    ev.fn();
  }

 private:
  static constexpr int kBucketsLog2 = 10;
  static constexpr int kNumBuckets = 1 << kBucketsLog2;  // 1024
  static constexpr int kL1Shift = 20;  // ~1.05 us per L1 bucket
  static constexpr int kL2Shift = kL1Shift + kBucketsLog2;

  struct Occupancy {
    std::uint64_t words[kNumBuckets / 64] = {};
    void Set(int b) { words[b >> 6] |= 1ull << (b & 63); }
    void ClearBit(int b) { words[b >> 6] &= ~(1ull << (b & 63)); }
    int FindFirstFrom(int from) const {
      if (from >= kNumBuckets) return -1;
      int w = from >> 6;
      std::uint64_t cur = words[w] & (~0ull << (from & 63));
      for (;;) {
        if (cur != 0) return (w << 6) + __builtin_ctzll(cur);
        if (++w == kNumBuckets / 64) return -1;
        cur = words[w];
      }
    }
  };

  void PushSlow(SimTime when, std::uint64_t seq, EventFn&& fn);
  SimTime PeekWhenSlow();
  Event PopNextSlow();
  Event PopIncoming();
  /// Moves the next occupied L1 bucket into `sorted_` (refilling L1
  /// from L2/overflow as needed). Returns false iff the wheels and
  /// overflow are all empty.
  bool LoadNextBucket();
  bool RefillL1();
  void RebaseFromOverflow();

  std::size_t size_ = 0;

  // Sorted run: the bucket currently being drained.
  std::vector<Event> sorted_;
  std::size_t cursor_ = 0;
  /// Exclusive end time of the drained region; pushes below this go to
  /// `incoming_`. kSimTimeMax means the window saturated at the top of
  /// the time range and *all* pushes route to `incoming_`.
  SimTime sorted_end_ = 0;

  std::vector<Event> incoming_;  // (when, seq) min-heap

  SimTime l1_start_ = 0;
  int l1_cursor_ = 0;  // first L1 bucket not yet drained
  std::vector<std::vector<Event>> l1_;
  Occupancy l1_occ_;

  SimTime l2_start_ = 0;
  int l2_cursor_ = 0;
  std::vector<std::vector<Event>> l2_;
  Occupancy l2_occ_;

  std::vector<Event> overflow_;
};

}  // namespace mgjoin::sim

#endif  // MGJOIN_SIM_EVENT_QUEUE_H_
