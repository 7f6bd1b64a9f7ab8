#include "gpusim/kernel_model.h"

#include "common/bitutil.h"

namespace mgjoin::gpusim {

sim::SimTime KernelModel::StreamTime(std::uint64_t bytes) const {
  return sim::TransferTime(bytes, spec_.EffectiveHbm());
}

sim::SimTime KernelModel::HistogramTime(std::uint64_t n,
                                        std::uint32_t tuple_bytes) const {
  if (n == 0) return 0;
  // Read-only pass; shared-memory atomics hide behind the memory reads.
  return LaunchOverhead() + StreamTime(n * tuple_bytes);
}

sim::SimTime KernelModel::PartitionPassTime(std::uint64_t n,
                                            std::uint32_t tuple_bytes) const {
  if (n == 0) return 0;
  // Read + scattered write at the (calibrated) partition-pass rate.
  const std::uint64_t bytes = 2ull * n * tuple_bytes;
  return LaunchOverhead() +
         sim::TransferTime(bytes, spec_.hbm_bandwidth *
                                      spec_.partition_efficiency);
}

sim::SimTime KernelModel::ProbeTime(std::uint64_t build_tuples,
                                    std::uint64_t probe_tuples,
                                    std::uint64_t matches,
                                    std::uint32_t tuple_bytes) const {
  if (build_tuples + probe_tuples == 0) return 0;
  // Both sides stream once through shared memory; matched pairs are
  // materialized (two 4-byte ids per match).
  const std::uint64_t bytes =
      (build_tuples + probe_tuples) * tuple_bytes + matches * 8;
  return LaunchOverhead() +
         sim::TransferTime(bytes,
                           spec_.hbm_bandwidth * spec_.probe_efficiency);
}

double KernelModel::CyclesPerTuple(sim::SimTime t,
                                   std::uint64_t tuples) const {
  if (tuples == 0) return 0.0;
  return sim::ToSeconds(t) * spec_.clock_hz / static_cast<double>(tuples);
}

sim::SimTime UnifiedMemoryModel::RemoteFaultTime(std::uint64_t remote_bytes,
                                                 int num_gpus) const {
  const std::uint64_t pages =
      CeilDiv(static_cast<std::uint64_t>(
                  static_cast<double>(remote_bytes) *
                  params_.remote_amplification),
              params_.page_bytes);
  const double contention =
      1.0 + params_.contention_per_gpu * static_cast<double>(num_gpus - 1);
  const double per_page =
      sim::ToSeconds(params_.remote_fault_service) * contention;
  return sim::FromSeconds(static_cast<double>(pages) * per_page);
}

sim::SimTime UnifiedMemoryModel::LocalTouchTime(
    std::uint64_t local_bytes) const {
  const std::uint64_t pages = CeilDiv(local_bytes, params_.page_bytes);
  return static_cast<sim::SimTime>(pages) * params_.local_touch;
}

}  // namespace mgjoin::gpusim
