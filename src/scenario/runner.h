#ifndef MGJOIN_SCENARIO_RUNNER_H_
#define MGJOIN_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace mgjoin::scenario {

/// \brief The invariant-checked outcome of one scenario run.
///
/// A run *passes* only when every check holds. Both run kinds check:
///  - the run completes (no deadlock; the auditor's watchdog stays
///    quiet and the engine reports done),
///  - the spec's expect_matches assertion (when present) holds,
///  - the InvariantAuditor records zero violations,
///  - the recorded trace is non-empty, parses back through the report
///    pipeline and holds the join_total phase span,
///  - simulated time advanced,
///  - the telemetry exposition is well-formed (OpenMetrics lint), took
///    samples when bytes moved, and its per-flow delivered-bytes totals
///    sum to TransferStats::payload_bytes.
/// A single-query run adds: matches, checksum and the materialized pair
/// set agree with the single-node ReferenceJoin oracle, the trace's
/// critical path tiles [0, total] exactly, and all flows carry one query
/// id. A multi-query (service) run adds, per query: matches vs its own
/// oracle, a causal admission timeline, latency measurements, one admit
/// span in the trace, and flow bytes equal to the query's payload.
///
/// Failures are accumulated, not short-circuited, so one artifact names
/// every broken invariant at once.
struct ScenarioVerdict {
  bool passed = false;
  /// One human-readable line per failed check (empty when passed).
  std::vector<std::string> failures;

  std::uint64_t matches = 0;
  std::uint64_t reference_matches = 0;
  std::uint64_t checksum = 0;
  sim::SimTime sim_total = 0;
  std::uint64_t shuffled_bytes = 0;
  std::uint64_t fault_reroutes = 0;
  std::uint64_t fault_aborts = 0;
  std::uint64_t auditor_violations = 0;
  std::uint64_t trace_events = 0;
  /// Sampled telemetry snapshots taken (obs/telemetry.h).
  std::uint64_t telemetry_ticks = 0;
  /// Sampled time series registered (links, queues, per-flow progress).
  std::uint64_t telemetry_series = 0;
  /// Chrome trace of the run (artifact payload on failure).
  std::string trace_json;
  /// OpenMetrics exposition of the run's registry + sampled telemetry.
  std::string openmetrics;

  /// Compact report, e.g. for the CLI and fuzz logs.
  std::string ToText() const;
};

/// \brief Validates and executes `spec` under an always-on
/// InvariantAuditor — through exec::Engine for one query, through
/// svc::QueryScheduler for several — and verdicts the run (see
/// ScenarioVerdict). Validation errors come back as a failed verdict,
/// so fuzzers can treat every outcome uniformly.
ScenarioVerdict RunScenario(const ScenarioSpec& spec);

}  // namespace mgjoin::scenario

#endif  // MGJOIN_SCENARIO_RUNNER_H_
