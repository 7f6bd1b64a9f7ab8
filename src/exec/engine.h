#ifndef MGJOIN_EXEC_ENGINE_H_
#define MGJOIN_EXEC_ENGINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/relation.h"
#include "exec/table.h"
#include "join/mg_join.h"
#include "topo/topology.h"

namespace mgjoin::exec {

/// Options of the mini relational engine that hosts the TPC-H queries.
struct EngineOptions {
  /// Join configuration (routing policy, compression, virtual scale...).
  /// The virtual scale also scales every scan's simulated time.
  join::MgJoinOptions join;
};

/// \brief Minimal sharded relational engine: projections, MG-Join-backed
/// equi-joins, and materialization, with a simulated per-query clock.
///
/// Operators execute functionally on the real shard data and charge the
/// simulated clock via the GPU kernel cost model (scans, gathers) or the
/// full MG-Join simulation (joins). One Engine instance accumulates one
/// query's time; call elapsed() at the end.
class Engine {
 public:
  Engine(const topo::Topology* topo, std::vector<int> gpus,
         EngineOptions options);

  /// \brief Keeps `columns` of `in`, all rows, copying whole columns.
  ///
  /// Charges one scan of the output: row width x rows per shard.
  DistTable Project(const DistTable& in,
                    const std::vector<std::string>& columns);

  /// Matched global-row pairs of an equi-join.
  struct Joined {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    join::JoinResult stats;
  };

  /// \brief Equi-join on int key columns, executed through MG-Join (or
  /// whatever the options' policy/baseline dictates).
  ///
  /// Both key columns must be non-negative and fit in 32 bits at the
  /// functional scale. The join is a barrier: every GPU's clock advances
  /// by the simulated join time.
  Result<Joined> HashJoin(const DistTable& left, const std::string& left_key,
                          const DistTable& right,
                          const std::string& right_key);

  /// \brief Builds the joined intermediate table from HashJoin pairs,
  /// keeping `left_cols` and `right_cols` (prefixing neither). Output
  /// row `i` lands on shard `i % num_gpus()` (GatherPairs per shard).
  /// Charges the gather.
  DistTable MaterializeJoin(
      const DistTable& left, const DistTable& right,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
      const std::vector<std::string>& left_cols,
      const std::vector<std::string>& right_cols);

  /// Charges a sharded streaming scan of `bytes_per_shard`.
  void ChargeScan(const std::vector<std::uint64_t>& bytes_per_shard);

  /// Charges a sharded random-access gather (payload fetches during
  /// materialization and aggregation run at GpuSpec::gather_efficiency).
  void ChargeGather(const std::vector<std::uint64_t>& bytes_per_shard);

  /// Simulated elapsed time of the query so far.
  sim::SimTime elapsed() const;

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  const EngineOptions& options() const { return options_; }

 private:
  /// Fraction of bisection bandwidth the cross-GPU payload stream of a
  /// gather sustains.
  static constexpr double kFabricGatherEfficiency = 0.6;

  const topo::Topology* topo_;
  std::vector<int> gpus_;
  EngineOptions options_;
  std::vector<sim::SimTime> gpu_clock_;
  double bisection_bw_ = 0.0;
  /// Attribution counter: HashJoin stamps each join's flows with a
  /// fresh query id unless the options pin one (see MgJoinOptions).
  std::uint64_t next_query_id_ = 0;
};

}  // namespace mgjoin::exec

#endif  // MGJOIN_EXEC_ENGINE_H_
