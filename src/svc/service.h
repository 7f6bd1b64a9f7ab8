#ifndef MGJOIN_SVC_SERVICE_H_
#define MGJOIN_SVC_SERVICE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/generator.h"
#include "join/mg_join.h"
#include "net/link_state.h"
#include "obs/report.h"
#include "topo/topology.h"

namespace mgjoin::svc {

/// One query of a multi-tenant service run: a full MG-Join over a
/// synthetic workload, submitted to the scheduler at `submit_at`.
struct QuerySpec {
  /// User-visible attribution id; must be unique within one run (it
  /// keys FlowTag attribution and link-arbitration tenancy).
  std::uint64_t query_id = 0;
  /// Workload generator parameters. num_gpus is overridden with the
  /// scheduler's GPU count; vary `seed` to give tenants distinct data.
  /// Queries with identical options (after that override) join the same
  /// data and share one generation and MgJoin::Prepare within a Run.
  data::GenOptions gen;
  /// Strict-priority class under ArbitrationKind::kPriority (higher
  /// wins); ignored by the other policies.
  int priority = 0;
  /// Simulated submission time. Admission may be later when the
  /// in-flight limit holds the query in the queue.
  sim::SimTime submit_at = 0;
};

/// \brief One query per tenant over `base`'s workload: query ids 1..n,
/// seeds base.seed + q so the tenants' data differs, priority classes
/// rotating q % 3 so the priority policy has classes to separate, all
/// submitted at time 0. The shared workload of `mgjoin serve`,
/// multi-query scenarios and the tenancy bench.
std::vector<QuerySpec> TenantQueries(const data::GenOptions& base, int n);

/// Configuration of the scheduler (see DESIGN.md Sec 15).
struct ServiceOptions {
  /// Per-query join configuration (routing policy, transfer knobs,
  /// virtual scale, overlap). transfer.arbitration is overridden by
  /// `arbitration` below; transfer.obs observes the shared run.
  join::MgJoinOptions join;
  /// Queries allowed on the fabric concurrently (0 = unlimited).
  int inflight_limit = 0;
  /// How the shared links order competing queries.
  net::ArbitrationKind arbitration = net::ArbitrationKind::kFifo;
  /// Also run each distinct dataset once alone on an idle, healthy
  /// fabric (no faults, FIFO) to fill the slowdown-vs-solo column. A
  /// solo latency depends only on the prepared data, so every query over
  /// that dataset shares it.
  bool measure_solo = true;
};

/// Aggregate outcome of one service run.
struct ServiceResult {
  /// Per-query outcomes (admission order) + SLO digest.
  obs::report::TenancyReport tenancy;
  /// The shared fabric's transfer stats, across all queries.
  net::TransferStats net;
  std::uint64_t total_matches = 0;
  std::uint64_t checksum = 0;  ///< summed per-query match checksums
};

/// \brief Multi-tenant query scheduler layered on the event simulator
/// (DESIGN.md Sec 15).
///
/// The host phases run up front, once per distinct dataset
/// (MgJoin::Prepare: functional join, cost-model inputs); the
/// simulation then interleaves all queries' shuffle flows
/// on one shared fabric: an admission queue with a configurable
/// in-flight limit, per-query FlowTag attribution end to end, and link
/// arbitration (FIFO / fair-share / strict priority) deciding who gets
/// the wire. Fully deterministic: traces and per-query SLO stats are
/// byte-identical at any MGJ_THREADS setting.
///
/// \code
///   svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(8), opts);
///   Result<svc::ServiceResult> res = sched.Run(queries);
///   std::puts(res.value().tenancy.ToText().c_str());
/// \endcode
class QueryScheduler {
 public:
  QueryScheduler(const topo::Topology* topo, std::vector<int> gpus,
                 ServiceOptions options);

  /// Runs all queries to completion. Ties in submit_at admit in input
  /// order (deterministic: submission events share a timestamp and
  /// dispatch in insertion order).
  Result<ServiceResult> Run(const std::vector<QuerySpec>& queries) const;

  const ServiceOptions& options() const { return options_; }
  const std::vector<int>& gpus() const { return gpus_; }

 private:
  const topo::Topology* topo_;
  std::vector<int> gpus_;
  ServiceOptions options_;
};

}  // namespace mgjoin::svc

#endif  // MGJOIN_SVC_SERVICE_H_
