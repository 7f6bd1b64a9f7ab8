#ifndef MGJOIN_OBS_TRACE_H_
#define MGJOIN_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace mgjoin::obs {

/// \brief One recorded event in export form: the in-process mirror of
/// the Chrome JSON stream, consumed by the report pipeline
/// (obs/report.h) without a serialize/parse round trip.
///
/// `track` carries the track *name* (not the numeric id), so an event
/// list sliced out of a long-lived recorder is self-describing.
struct TraceEvent {
  enum class Kind { kSpan, kInstant, kCounter };

  Kind kind = Kind::kSpan;
  std::string track;
  std::string category;
  std::string name;
  sim::SimTime ts = 0;
  sim::SimTime dur = 0;     ///< spans only
  std::uint64_t value = 0;  ///< counters only
  std::vector<std::pair<std::string, std::uint64_t>> args;

  /// Value of the arg named `key`, or `fallback` when absent.
  std::uint64_t Arg(const std::string& key,
                    std::uint64_t fallback = 0) const {
    for (const auto& [k, v] : args) {
      if (k == key) return v;
    }
    return fallback;
  }
};

/// \brief Records timestamped spans/instants/counters against the
/// simulated clock and exports them as Chrome `trace_event` JSON
/// (viewable in Perfetto or chrome://tracing).
///
/// Every event lives on a named *track* (a Chrome thread). Tracks are
/// registered lazily by name and rendered with `thread_name` metadata,
/// so producers do not coordinate numeric thread ids. All timestamps are
/// sim::SimTime (picoseconds); the exporter converts to the microsecond
/// unit Chrome expects. The recorder contains no wall-clock or address
/// dependent state: two identical simulation runs produce byte-identical
/// JSON, which the determinism tests rely on.
///
/// Recording is cheap but not free; code paths should hold a
/// `TraceRecorder*` that is null when tracing is off and skip the calls
/// entirely.
class TraceRecorder {
 public:
  /// Inline key/value annotations attached to an event (rendered in the
  /// viewer's "args" pane). Values are unsigned to keep the exporter
  /// trivial; byte counts, ids and GPU indices all fit.
  using Args = std::vector<std::pair<std::string, std::uint64_t>>;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Returns the stable track id for `name`, registering it on first
  /// use. Registration order determines the numeric id, so identical
  /// runs agree on ids.
  int Track(const std::string& name);

  /// Records a complete span [start, end] on `track`. `end < start` is
  /// clamped to a zero-duration span rather than rejected, so callers
  /// can pass raw reservation times.
  void Span(int track, const char* category, std::string name,
            sim::SimTime start, sim::SimTime end, Args args = {});

  /// Records an instantaneous event at `when` on `track`.
  void Instant(int track, const char* category, std::string name,
               sim::SimTime when, Args args = {});

  /// Records a counter sample (rendered as a stacked area chart).
  void Counter(std::string name, sim::SimTime when, std::uint64_t value);

  std::size_t num_events() const { return events_.size(); }
  /// Drops every recorded event; tracks keep their ids.
  void ClearEvents() { events_.clear(); }
  std::size_t num_tracks() const { return tracks_.size(); }

  /// \brief Events recorded since event index `from`, in recording
  /// order (not the sorted JSON order).
  ///
  /// Bookmarking `num_events()` before a run and exporting from that
  /// index afterwards slices one run's events out of a shared
  /// process-lifetime recorder — how the bench reporter builds a
  /// per-run digest without a second recorder.
  std::vector<TraceEvent> ExportEvents(std::size_t from = 0) const;

  /// Serializes everything recorded so far as a Chrome trace JSON
  /// object. Events are sorted by (timestamp, recording order), so the
  /// stream is monotonic in `ts` and deterministic.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  enum class Phase { kSpan, kInstant, kCounter };

  struct Event {
    Phase phase;
    int track = 0;
    const char* category = "";
    std::string name;
    sim::SimTime ts = 0;
    sim::SimTime dur = 0;        // spans only
    std::uint64_t value = 0;     // counters only
    Args args;
  };

  std::map<std::string, int> track_ids_;
  std::vector<std::string> tracks_;  // track id -> name
  std::vector<Event> events_;
};

}  // namespace mgjoin::obs

#endif  // MGJOIN_OBS_TRACE_H_
