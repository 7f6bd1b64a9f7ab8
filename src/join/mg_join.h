#ifndef MGJOIN_JOIN_MG_JOIN_H_
#define MGJOIN_JOIN_MG_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/relation.h"
#include "gpusim/gpu.h"
#include "join/join_types.h"
#include "join/local_join.h"
#include "join/partition_assignment.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "topo/topology.h"

namespace mgjoin::join {

/// Options of the partitioned multi-GPU join. Defaults reproduce
/// MG-Join; DprjOptions() reproduces the DPRJ baseline.
struct MgJoinOptions {
  /// Routing policy for the data-distribution step.
  net::PolicyKind policy = net::PolicyKind::kAdaptive;
  /// Packetization / ring-buffer / batching knobs.
  net::TransferOptions transfer;
  /// Device model used for the kernel cost model.
  gpusim::GpuSpec gpu = gpusim::GpuSpec::V100();
  /// Partition-to-GPU assignment strategy.
  AssignmentStrategy assignment = AssignmentStrategy::kNetworkOptimal;
  /// Transfer compression (radix prefix elision + id delta encoding).
  bool use_compression = true;
  /// Overlap the distribution with the partitioning kernels (Rationale
  /// 2). DPRJ transfers in bulk after partitioning completes.
  bool overlap = true;
  /// Multiplier applied to all byte/tuple volumes fed to the *timing*
  /// layer, so experiments simulate paper-scale inputs while processing
  /// tractable functional data. 1.0 = timing matches functional scale.
  double virtual_scale = 1.0;
  /// Heavy-hitter threshold (x average partition size).
  double heavy_hitter_factor = 4.0;
  /// Override the Eq.-1 radix width (-1 = derive from the GPU spec).
  int radix_bits_override = -1;
  /// Local-phase knobs; shared_mem_tuples <= 0 derives from the GPU spec.
  LocalJoinOptions local{.shared_mem_tuples = 0};
  /// Materialize matched (r_id, s_id) pairs in JoinResult::pairs.
  bool materialize_pairs = false;
  /// Host worker threads for the functional layer (0 = MGJ_THREADS env,
  /// then hardware concurrency; see ThreadPool::ResolveThreadCount).
  /// Purely a wall-clock knob: functional results, simulated times and
  /// traces are byte-identical at any setting (DESIGN.md Sec 11).
  int host_threads = 0;
  /// Attribution id stamped into every flow's FlowTag (telemetry /
  /// per-flow metrics; DESIGN.md Sec 14). The exec engine assigns a
  /// fresh id per query when this is left 0.
  std::uint64_t query_id = 0;

  /// The DPRJ baseline (Guo et al. [21]): CUDA direct routes, no
  /// network-optimal assignment, bulk transfers, no compression.
  static MgJoinOptions Dprj() {
    MgJoinOptions o;
    o.policy = net::PolicyKind::kDirect;
    o.assignment = AssignmentStrategy::kRoundRobin;
    o.use_compression = false;
    o.overlap = false;
    // DPRJ moves data in bulk cudaMemcpyPeer-style transfers, not
    // routed 2 MB packets.
    o.transfer.packet_bytes = 16 * kMiB;
    o.transfer.batch_packets = 1;
    o.transfer.ring_buffer_bytes = 128 * kMiB;
    return o;
  }
};

/// \brief One MG-Join after its functional host phases (histograms,
/// assignment, shuffle, local join), before any timing simulation.
///
/// Holds everything the timing layer needs and nothing it does not: the
/// untimed shuffle flows, the kernel-model times per dense GPU, the
/// functional result and the byte counts. The received tuples are
/// consumed by the local join inside MgJoin::Prepare. Times are offsets
/// from the join's start (its admission, in a service run). A
/// PreparedJoin is immutable and may be simulated any number of times,
/// alone (MgJoin::Simulate) or among other tenants on a shared engine
/// (svc::QueryScheduler).
struct PreparedJoin {
  /// Topology GPU id -> dense index (-1 = not participating).
  std::vector<int> dense;
  /// Whether the distribution overlaps the partition kernel
  /// (MgJoinOptions::overlap at preparation).
  bool overlap = true;
  /// One flow per (src, dst) pair at virtual scale, with ids 0..n-1.
  /// Timing fields, tag and priority are set by AdmitFlows.
  std::vector<net::Flow> flows;
  std::uint64_t payload_bytes = 0;  ///< summed flow bytes
  sim::SimTime hist_end = 0;        ///< histogram barrier
  // Per dense GPU.
  std::vector<sim::SimTime> gp_time;     ///< global partition kernel
  std::vector<sim::SimTime> lp_time;     ///< local partitioning passes
  std::vector<sim::SimTime> probe_time;  ///< probe kernel
  std::vector<std::uint64_t> recv_tuples;  ///< received, virtual scale
  /// One local-partition pass over the last packet (overlap only).
  sim::SimTime residual = 0;
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  /// Matched (r_id, s_id) pairs when materialize_pairs is set.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::uint64_t input_tuples = 0;
  std::uint64_t virtual_input_tuples = 0;
  std::uint64_t shuffled_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;

  /// Feeds the shuffle flows of a join admitted at `admit_at` into
  /// `engine`. Packets become available as the partition kernel emits
  /// them (overlap) or in bulk after it (DPRJ). Flow i gets id
  /// `id_base + i` and is tagged ("shuffle", `query_id`) in arbitration
  /// class `priority`.
  void AdmitFlows(net::TransferEngine* engine, sim::SimTime admit_at,
                  std::uint64_t id_base, std::uint64_t query_id,
                  int priority) const;

  /// When the probe on dense GPU `d` can start, given the last packet
  /// arrival at `d` (0 = none) and the last delivery of the whole
  /// distribution, both absolute.
  sim::SimTime ProbeStart(int d, sim::SimTime admit_at,
                          sim::SimTime last_arrival,
                          sim::SimTime last_delivery) const;

  /// End of the join: the latest probe end over all GPUs.
  sim::SimTime CompleteTime(sim::SimTime admit_at,
                            const std::vector<sim::SimTime>& last_arrival,
                            sim::SimTime last_delivery) const;
};

/// \brief The MG-Join executor: histogram generation, global
/// partitioning (assignment + distribution), local partitioning, probe.
///
/// Functional results (matches, checksum) are computed on the real
/// tuples and are independent of the timing model; simulated times come
/// from the kernel cost models and the network simulation.
///
/// \code
///   auto topo = topo::MakeDgx1V();
///   MgJoin join(topo.get(), topo::FirstNGpus(8), MgJoinOptions{});
///   auto [r, s] = data::MakeJoinInput({.tuples_per_relation = 1 << 22,
///                                      .num_gpus = 8});
///   Result<JoinResult> res = join.Execute(r, s);
/// \endcode
class MgJoin {
 public:
  MgJoin(const topo::Topology* topo, std::vector<int> gpus,
         MgJoinOptions options);

  /// Runs the join: Prepare followed by Simulate. `r` and `s` must have
  /// one shard per participating GPU (dense order).
  Result<JoinResult> Execute(const data::DistRelation& r,
                             const data::DistRelation& s) const;

  /// The functional host phases: histograms, partition assignment,
  /// shuffle and local join, plus every kernel-model time. Wall time
  /// per phase goes to the WallProfiler and, when transfer.obs.metrics
  /// is set, to `host.*.wall_us` counters. Touches no simulator.
  Result<PreparedJoin> Prepare(const data::DistRelation& r,
                               const data::DistRelation& s) const;

  /// The timing layer: simulates the distribution of `prepared` on a
  /// fresh simulator and fabric (this join's policy, transfer knobs,
  /// faults, arbitration and obs hooks) and derives the phase breakdown.
  /// `prepared` must come from Prepare on a join over the same GPUs;
  /// it is not modified, so repeated calls give identical results.
  JoinResult Simulate(const PreparedJoin& prepared) const;

  const MgJoinOptions& options() const { return options_; }
  const std::vector<int>& gpus() const { return gpus_; }

 private:
  const topo::Topology* topo_;
  std::vector<int> gpus_;
  MgJoinOptions options_;
};

}  // namespace mgjoin::join

#endif  // MGJOIN_JOIN_MG_JOIN_H_
