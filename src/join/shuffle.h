#ifndef MGJOIN_JOIN_SHUFFLE_H_
#define MGJOIN_JOIN_SHUFFLE_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "join/join_types.h"
#include "join/partition_assignment.h"
#include "net/packet.h"

namespace mgjoin::join {

/// \brief Functional outcome of the data-distribution step plus the flow
/// set that drives its timing simulation.
///
/// The functional layer moves real tuples to their assigned owners; the
/// timing layer replays the same movement as net::Flows whose byte
/// counts reflect the transfer compression (and the virtual scale, when
/// the experiment simulates paper-sized inputs).
struct ShuffleResult {
  /// recv[dense_gpu][partition] -> tuples of that relation now resident.
  /// Within a partition, tuples are grouped by source GPU in ascending
  /// order, each source's tuples in shard order; every owner of a
  /// broadcast partition holds the same tuples in the same order.
  std::vector<PartitionedTuples> r_recv;
  std::vector<PartitionedTuples> s_recv;
  /// One flow per (src, dst) pair with traffic; bytes are wire bytes
  /// after compression, multiplied by the virtual scale.
  std::vector<net::Flow> flows;
  /// Wire bytes before virtual scaling.
  std::uint64_t compressed_bytes = 0;
  /// What the wire bytes would have been without compression.
  std::uint64_t uncompressed_bytes = 0;
  /// Tuples that crossed GPUs (not counting local placements).
  std::uint64_t moved_tuples = 0;
};

struct ShuffleOptions {
  bool use_compression = true;
  double virtual_scale = 1.0;
};

/// Executes the distribution functionally and builds the flow set.
/// Histograms supply the radix width; the assignment supplies owners.
/// One relation at a time is counted per shard, then scattered once, in
/// parallel by source, straight into one flat buffer per destination;
/// broadcast copies are then made from the first owner's block. Every
/// shard and every destination buffer must hold fewer than 2^32 tuples.
ShuffleResult ShufflePartitions(const data::DistRelation& r,
                                const data::DistRelation& s,
                                int radix_bits,
                                const PartitionAssignment& assignment,
                                const std::vector<int>& gpus,
                                const ShuffleOptions& options);

}  // namespace mgjoin::join

#endif  // MGJOIN_JOIN_SHUFFLE_H_
