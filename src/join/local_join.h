#ifndef MGJOIN_JOIN_LOCAL_JOIN_H_
#define MGJOIN_JOIN_LOCAL_JOIN_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "join/join_types.h"

namespace mgjoin::join {

/// \brief One GPU's local phase: recursive partitioning of the received
/// co-partitions down to shared-memory size, then the probe.
///
/// The local partitioning is histogram-free (Sioulas et al. bucket
/// chaining, Rationale 4): sub-partitions split on hash bits so packets
/// can be processed as they arrive without a counting pass. Statistics
/// of the recursion feed the kernel cost model.
struct LocalJoinStats {
  std::uint64_t r_tuples = 0;
  std::uint64_t s_tuples = 0;
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  /// Deepest recursion level any partition needed (0 = no extra pass).
  int max_depth = 0;
  /// Tuple-passes performed: sum over levels of tuples re-partitioned.
  std::uint64_t partition_tuple_passes = 0;
  /// Matched (r_id, s_id) pairs; filled only when requested.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
};

/// How co-partitions are joined in the probe phase. The paper notes
/// both achieve similar performance once a co-partition fits in shared
/// memory and uses the nested-loop variant (Sec 3.2, "Probe").
enum class ProbeAlgorithm {
  kHash,        ///< small chained hash table on the smaller side
  kNestedLoop,  ///< the paper's choice; O(|r|x|s|) per co-partition
};

struct LocalJoinOptions {
  /// Co-partitions are split until one side fits this many tuples (the
  /// shared-memory capacity).
  std::uint64_t shared_mem_tuples = 4096;
  /// Sub-partition fanout bits per recursion level.
  int bits_per_pass = 8;
  /// Recursion stops here even if skew keeps a partition large ("unless
  /// both relations are heavily skewed").
  int max_depth = 6;
  /// Materialize the matched (r_id, s_id) pairs in LocalJoinStats::pairs
  /// (needed by the query layer; counting-only joins skip it).
  bool materialize_pairs = false;
  /// Probe implementation for the final co-partitions.
  ProbeAlgorithm probe = ProbeAlgorithm::kHash;
};

/// Runs local partitioning + probe over one GPU's received partitions
/// (indexed by global partition id; R and S aligned). Reads the inputs
/// in place. Each recursion level is a stable counting scatter, so
/// pairs come out per partition, then per sub-bucket ascending, in
/// probe order and chain order.
LocalJoinStats LocalPartitionAndProbe(const PartitionedTuples* r_parts,
                                      const PartitionedTuples* s_parts,
                                      const LocalJoinOptions& options);

/// Single-node reference hash join used as the verification oracle.
/// Returns matches and the same order-independent checksum.
LocalJoinStats ReferenceJoin(const data::DistRelation& r,
                             const data::DistRelation& s);

}  // namespace mgjoin::join

#endif  // MGJOIN_JOIN_LOCAL_JOIN_H_
