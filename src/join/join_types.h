#ifndef MGJOIN_JOIN_JOIN_TYPES_H_
#define MGJOIN_JOIN_JOIN_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace mgjoin::join {

/// Per-phase simulated times of one join execution. All values are
/// wall-clock contributions on the critical path (phases that overlap
/// contribute only their exposed part to `total`).
struct JoinBreakdown {
  sim::SimTime histogram = 0;
  sim::SimTime global_partition = 0;   ///< partition kernel (compute)
  sim::SimTime distribution = 0;       ///< network makespan
  sim::SimTime distribution_exposed = 0;  ///< not hidden behind compute
  sim::SimTime local_partition = 0;
  sim::SimTime probe = 0;
  sim::SimTime page_faults = 0;        ///< UMJ only
  sim::SimTime total = 0;

  bool operator==(const JoinBreakdown&) const = default;
};

/// Outcome of one simulated join: real matches over real tuples plus the
/// simulated timing.
struct JoinResult {
  std::uint64_t matches = 0;
  /// Order-independent verification checksum over matched id pairs.
  std::uint64_t checksum = 0;
  /// |R| + |S| actually processed (functional scale).
  std::uint64_t input_tuples = 0;
  /// |R| + |S| at the simulated (virtual) scale.
  std::uint64_t virtual_input_tuples = 0;
  JoinBreakdown timing;
  net::TransferStats net;
  /// Payload bytes shuffled between GPUs (after compression), at
  /// virtual scale.
  std::uint64_t shuffled_bytes = 0;
  /// Raw bytes the shuffle would have moved without compression.
  std::uint64_t uncompressed_bytes = 0;
  /// Matched (r_id, s_id) pairs when MgJoinOptions::materialize_pairs is
  /// set (empty otherwise). Order is unspecified.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;

  double CompressionRatio() const {
    return shuffled_bytes == 0
               ? 1.0
               : static_cast<double>(uncompressed_bytes) /
                     static_cast<double>(shuffled_bytes);
  }
  /// The paper's throughput metric: input tuples per second (Fig 11), at
  /// virtual scale.
  double Throughput() const {
    return timing.total == 0 ? 0.0
                             : static_cast<double>(virtual_input_tuples) /
                                   sim::ToSeconds(timing.total);
  }
};

/// \brief One relation's tuples at one GPU, grouped by radix partition in
/// a single flat buffer.
///
/// Partition p occupies tuples[offsets[p], offsets[p + 1]); size() is
/// the partition count and operator[](p) a read-only view of p.
struct PartitionedTuples {
  PartitionedTuples() = default;
  /// Flattens per-partition vectors, keeping their order.
  explicit PartitionedTuples(
      const std::vector<std::vector<data::Tuple>>& parts) {
    offsets.reserve(parts.size() + 1);
    offsets.push_back(0);
    for (const auto& part : parts) {
      tuples.insert(tuples.end(), part.begin(), part.end());
      offsets.push_back(tuples.size());
    }
  }

  std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const data::Tuple> operator[](std::size_t p) const {
    return {tuples.data() + offsets[p], offsets[p + 1] - offsets[p]};
  }

  std::vector<data::Tuple> tuples;
  std::vector<std::size_t> offsets;  ///< size() + 1 entries
};

/// Accumulates the order-independent match checksum.
inline void AccumulateMatch(std::uint64_t r_id, std::uint64_t s_id,
                            std::uint64_t* checksum) {
  *checksum += (r_id + 1) * 0x9E3779B97F4A7C15ull ^ (s_id + 1);
}

}  // namespace mgjoin::join

#endif  // MGJOIN_JOIN_JOIN_TYPES_H_
