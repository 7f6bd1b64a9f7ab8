#ifndef MGJOIN_COMMON_WALLPROF_H_
#define MGJOIN_COMMON_WALLPROF_H_

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mgjoin {

/// \brief Wall-clock phase profiler for the host execution path.
///
/// Strictly separate from the simulated clock and from the trace
/// recorder: simulated times and traces are part of the determinism
/// contract (byte-identical at any thread count, DESIGN.md Sec 11),
/// while wall times measure the host machine and change run to run.
/// Wall data therefore only ever reaches (a) `host.*` metrics and
/// (b) the volatile `wall_phases` line of the bench JSON — never the
/// trace stream.
///
/// Thread-safe; phases accumulate, so repeated runs (bench sweeps) sum
/// their per-phase times.
class WallProfiler {
 public:
  /// Process-wide instance used by MgJoin and the bench harness.
  static WallProfiler& Global();

  /// Adds `seconds` of wall time to `phase`.
  void Add(const std::string& phase, double seconds);

  /// Accumulated (phase, seconds) pairs sorted by phase name.
  std::vector<std::pair<std::string, double>> Phases() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> seconds_;
};

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_WALLPROF_H_
