#ifndef PERFBENCH_TRACED_JOIN_H_
#define PERFBENCH_TRACED_JOIN_H_

#include <cstdint>

#include "common/status.h"
#include "data/relation.h"
#include "join/join_types.h"
#include "join/mg_join.h"
#include "spans.h"

namespace perfbench {

/// Outcome of the traced rebuild: the join result plus the layer counters
/// Execute() does not return.
struct TracedJoin {
  mgjoin::join::JoinResult result;
  std::uint64_t sim_events = 0;
  std::uint32_t split_partitions = 0;
  std::uint64_t moved_tuples = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;
};

/// \brief Rebuilds join::MgJoin::Execute from the layers' public calls,
/// wrapping each call in a span of `op`.
///
/// Spans: join.histogram (BuildHistograms), join.assignment
/// (ComputeAssignment), join.shuffle (ShufflePartitions), net.run
/// (TransferEngine::Start + Simulator::Run) and join.local
/// (LocalPartitionAndProbe, per GPU). Cost-model arithmetic stays in the
/// caller's span. On the same input the result must equal Execute()'s
/// exactly; SameAsExecute() checks that.
mgjoin::Result<TracedJoin> ExecuteTraced(const mgjoin::join::MgJoin& join,
                                         const mgjoin::topo::Topology& topo,
                                         const mgjoin::data::DistRelation& r,
                                         const mgjoin::data::DistRelation& s,
                                         SpanLog* log, std::uint64_t op);

/// True when the rebuild reproduced Execute()'s matches, checksum,
/// transfer statistics and simulated breakdown bit for bit.
bool SameAsExecute(const mgjoin::join::JoinResult& traced,
                   const mgjoin::join::JoinResult& execute);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_JOIN_H_
