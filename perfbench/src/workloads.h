#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Host worker threads every workload pins (MgJoinOptions::host_threads
/// and the oracle's pool). Fixed so host times compare across machines
/// with different core counts; must not exceed the host's nproc.
inline constexpr int kPinnedHostThreads = 2;

/// Outcome of one op. Host times are wall milliseconds; every other
/// number describes the modelled DGX-1 and is deterministic per seed.
struct OpOutcome {
  bool ok = false;
  std::string error;
  /// Wall time of the untraced op.
  double host_ms = 0;
  /// Wall time of the traced op (traced runs only).
  double traced_ms = 0;
  /// Simulated submit->complete latency of each query the op ran. A join
  /// op is one query submitted at time 0.
  std::vector<double> query_ms;
  /// Queries the op submitted; the ones missing from query_ms failed.
  std::uint64_t queries = 0;
  /// Input tuples the op's joins processed at virtual scale, and the
  /// simulated seconds those joins took.
  double virtual_tuples = 0;
  double join_sim_s = 0;
  /// Summed simulated seconds of the op's queries.
  double sim_s = 0;
  /// Per-layer metrics of the traced run: simulated values and counts
  /// (deterministic) and host times (noisy), by metric name.
  std::map<std::string, double> sim_layer;
  std::map<std::string, double> host_layer;
};

/// \brief One benchmark workload: generates each op's input, runs it,
/// and checks it against an oracle.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates op `op`'s input from `op_seed` and computes its oracle
  /// answer. Runs outside the op timer; traced runs span it as data.gen
  /// and oracle.
  virtual void Prepare(std::uint64_t op, std::uint64_t op_seed,
                       SpanLog* log) = 0;

  /// Runs the prepared op, times it and checks it. With a log, also runs
  /// the traced op on the same input and records its per-layer metrics.
  virtual OpOutcome Run(std::uint64_t op, SpanLog* log) = 0;
};

/// Static description of a workload.
struct WorkloadSpec {
  const char* name;
  /// Ops whose simulated numbers feed the sim_* metrics. The run always
  /// completes at least this many, so those metrics depend on the seed
  /// alone, never on how many ops fit into the measured seconds.
  int sim_ops;
  /// Simulated latency limit of one query, for sim_slo_met_frac.
  double slo_ms;
  std::unique_ptr<Workload> (*make)(int host_threads);
};

/// Nearest-rank percentile (0 for no samples): always an observed
/// sample, so simulated percentiles compare bit for bit across runs.
double Percentile(std::vector<double> v, double q);

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& AllWorkloads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
