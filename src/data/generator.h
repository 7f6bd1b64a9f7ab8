#ifndef MGJOIN_DATA_GENERATOR_H_
#define MGJOIN_DATA_GENERATOR_H_

#include <cstdint>
#include <utility>

#include "common/random.h"
#include "data/relation.h"

namespace mgjoin::data {

/// Parameters of the synthetic workload generator (paper Sec 5.1).
struct GenOptions {
  /// Tuples per relation (|R| = |S|).
  std::uint64_t tuples_per_relation = 1 << 20;
  /// Number of participating GPUs / shards.
  int num_gpus = 1;
  /// Zipf factor of tuple *placement* across GPUs (Figures 5b and 9:
  /// "input tuples are distributed based on a Zipf distribution among
  /// the GPUs"). 0 = balanced.
  double placement_zipf = 0.0;
  /// Zipf factor of *key frequency* in S (heavy hitters / single-value
  /// skew partitions). 0 = unique keys (the paper's default workload,
  /// 100% join selectivity).
  double key_zipf = 0.0;
  std::uint64_t seed = 42;

  /// Equal options generate identical inputs (svc keys its per-run
  /// dataset cache on this).
  bool operator==(const GenOptions&) const = default;
};

/// \brief Generates the paper's workload: R and S with sequentially
/// generated, randomly shuffled integer keys.
///
/// With key_zipf == 0 every key of [0, n) appears exactly once in each
/// relation, giving 100% join selectivity (every R tuple matches exactly
/// one S tuple). With key_zipf > 0, S draws its keys Zipf-distributed
/// over the domain while R keeps unique keys.
std::pair<DistRelation, DistRelation> MakeJoinInput(const GenOptions& opts);

/// Shard sizes for `total` tuples over `num_gpus` GPUs with the given
/// placement skew (exposed for tests and flow-size estimation).
std::vector<std::uint64_t> PlacementSizes(std::uint64_t total, int num_gpus,
                                          double placement_zipf);

}  // namespace mgjoin::data

#endif  // MGJOIN_DATA_GENERATOR_H_
