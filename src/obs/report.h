#ifndef MGJOIN_OBS_REPORT_H_
#define MGJOIN_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace mgjoin::obs::report {

// ---------------------------------------------------------------------------
// Span-annotation contract (what the analyzers below expect a trace to
// contain; see DESIGN.md "Perf-report pipeline"):
//
//  * track "join.phases"  — spans "histogram", "distribution",
//    "join_total"; all phase times derive from these plus the per-GPU
//    tracks.
//  * track "join.gpu<N>"  — spans "global_partition",
//    "local_partition", "probe"; the track name is the dependency
//    scope (a GPU's probe waits on *that GPU's* compute chain).
//  * tracks "link.<name>.fwd|.rev" — one "xfer" span per reservation
//    leg with args {bytes, queue_ns}, plus one ts-0 "info" instant with
//    args {peak_bps, link_id} on first use.
//  * track "net.faults"   — one instant per applied fault event with
//    args {link, health_pct}; drives availability adjustment.
//  * track "net.info"     — optional "bisection" instant with arg
//    {bps}: the GPU set's min-cut bisection bandwidth.
//
// Everything is optional: a distribution-only trace (no join phases)
// degrades to a single "distribution" critical-path slice, and traces
// recorded before an annotation existed simply miss that column.
// ---------------------------------------------------------------------------

/// Order statistics of a sample set (exact — computed from the full
/// sorted sample vector, unlike obs::Histogram's bucketed estimate).
struct DelaySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

/// Computes a DelaySummary; sorts `samples` in place.
DelaySummary Summarize(std::vector<std::uint64_t>* samples);

/// One attributed segment of the end-to-end critical path. Slices tile
/// [0, total] exactly: every picosecond of the run is charged to one
/// phase, so the per-phase times sum to the end-to-end time by
/// construction.
struct PhaseSlice {
  std::string phase;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  sim::SimTime Duration() const { return end - begin; }
};

struct CriticalPath {
  sim::SimTime total = 0;
  /// Chronological (begin ascending); tiles [0, total].
  std::vector<PhaseSlice> slices;
  /// Aggregated per phase name, ranked by attributed time descending
  /// (ties by name) — the bottleneck ranking.
  std::vector<std::pair<std::string, sim::SimTime>> phase_totals;
};

/// Per-link-direction congestion digest over the analysis window.
struct LinkReport {
  std::string name;  ///< track name, e.g. "link.NVLink2(0<->3).fwd"
  sim::SimTime busy = 0;  ///< busy time clipped to the window
  std::uint64_t bytes = 0;
  std::uint64_t transfers = 0;
  double peak_bps = 0.0;      ///< 0 when the trace predates "info" instants
  double availability = 1.0;  ///< time-weighted health factor over window
  DelaySummary queue_ns;      ///< queueing delay ahead of each leg
  std::vector<double> profile;  ///< binned utilization (heatmap row)

  double Utilization(sim::SimTime window) const {
    return window == 0 ? 0.0
                       : static_cast<double>(busy) /
                             static_cast<double>(window);
  }
  /// Peak bandwidth scaled by the fraction of the window the link was
  /// actually available — a link that was down half the run is judged
  /// against half its nominal peak (fault-injection satellite).
  double AdjustedPeakBps() const { return peak_bps * availability; }
};

struct CongestionReport {
  sim::SimTime window_begin = 0;  ///< the shuffle window when known
  sim::SimTime window_end = 0;
  /// Ranked by busy time descending (ties by name ascending).
  std::vector<LinkReport> links;
  double bisection_bps = 0.0;  ///< from the "bisection" instant; 0 unknown
  /// Aggregate wire throughput: all bytes put on any link in the
  /// window, per unit time (the Fig. 8 numerator).
  double achieved_wire_bps = 0.0;
  /// Bisection peak scaled by the byte-weighted availability of the
  /// links that carried traffic.
  double adjusted_bisection_bps = 0.0;

  sim::SimTime Window() const { return window_end - window_begin; }

  /// Compact per-link utilization-over-time rendering: one row per
  /// link (busiest first, at most `max_rows`), one column per time
  /// bin, "0123456789X" utilization deciles — same alphabet as
  /// obs::Timeline::Sparkline.
  std::string AsciiHeatmap(std::size_t max_rows = 12) const;
};

/// First time a link direction's binned utilization crossed the
/// saturation threshold (timeline analytics; DESIGN.md Sec 14).
struct SaturationEvent {
  std::string link;
  std::size_t bin = 0;         ///< index into LinkReport::profile
  sim::SimTime when = 0;       ///< window_begin + bin * bin_width
  double utilization = 0.0;    ///< that bin's utilization
};

/// Time-resolved view over a CongestionReport's per-link profiles.
struct TimelineAnalytics {
  double threshold = 0.0;      ///< utilization counted as saturated
  sim::SimTime bin_width = 0;  ///< window / heatmap columns
  /// One entry per link that ever saturated, ordered by first
  /// saturation time (ties by name) — front() is the answer to "which
  /// link saturated first, and when".
  std::vector<SaturationEvent> saturations;

  bool AnySaturation() const { return !saturations.empty(); }
};

/// Scans the heatmap profiles for the first bin >= `threshold` per link.
TimelineAnalytics AnalyzeTimeline(const CongestionReport& congestion,
                                  double threshold = 0.9);

/// The `mgjoin report --timeline` view: the time × link utilization
/// heatmap plus a time-to-first-saturation table.
std::string TimelineText(const CongestionReport& congestion,
                         double threshold = 0.9);

/// One query's admission→completion outcome in a multi-tenant service
/// run (src/svc scheduler; DESIGN.md Sec 15).
struct QueryOutcome {
  std::uint64_t query_id = 0;
  int priority = 0;              ///< strict-priority class (higher wins)
  sim::SimTime submit_at = 0;    ///< entered the admission queue
  sim::SimTime admit_at = 0;     ///< flows entered the shared fabric
  sim::SimTime complete_at = 0;  ///< probe finished on every GPU
  std::uint64_t payload_bytes = 0;  ///< shuffled over the shared fabric
  std::uint64_t matches = 0;
  /// The same query's admission→completion time alone on an idle,
  /// healthy fabric (0 = solo baseline not measured).
  sim::SimTime solo_latency = 0;

  sim::SimTime Latency() const { return complete_at - admit_at; }
  sim::SimTime QueueDelay() const { return admit_at - submit_at; }
  /// Contention penalty vs running alone; 0 when not measured.
  double Slowdown() const {
    return solo_latency == 0 ? 0.0
                             : static_cast<double>(Latency()) /
                                   static_cast<double>(solo_latency);
  }
};

/// Admission→completion latency quantiles over one service run,
/// computed through obs::Histogram (log-bucketed, so quantiles are
/// bucket upper bounds — deterministic and thread-count-invariant).
struct SloStats {
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
};

/// The per-query outcome table + SLO digest of one multi-tenant run.
struct TenancyReport {
  std::string arbitration = "fifo";
  int inflight_limit = 0;  ///< 0 = unlimited
  std::vector<QueryOutcome> queries;  ///< admission order
  sim::SimTime makespan = 0;  ///< first submit to last completion
  SloStats slo;

  /// Recomputes `slo` and `makespan` from `queries`.
  void Finalize();

  /// Human-readable table: one row per query with a slowdown-vs-solo
  /// column, then the SLO quantile line.
  std::string ToText() const;
};

/// The full analysis of one run's trace slice.
struct RunReport {
  CriticalPath critical_path;
  CongestionReport congestion;

  /// Human-readable report (the `mgjoin report` output).
  std::string ToText() const;
};

/// Builds the report from recorded events (recording order; see
/// TraceRecorder::ExportEvents).
RunReport BuildRunReport(const std::vector<TraceEvent>& events);

/// Reconstructs events from a Chrome trace JSON file written by
/// TraceRecorder::WriteFile, so `mgjoin report` can analyze a trace
/// after the fact. Timestamps are re-read exactly (fixed-point
/// microseconds -> picoseconds).
Result<std::vector<TraceEvent>> EventsFromTraceJson(
    const std::string& json_text);

}  // namespace mgjoin::obs::report

#endif  // MGJOIN_OBS_REPORT_H_
