#ifndef MGJOIN_GPUSIM_KERNEL_MODEL_H_
#define MGJOIN_GPUSIM_KERNEL_MODEL_H_

#include <cstdint>

#include "gpusim/gpu.h"
#include "sim/simulator.h"

namespace mgjoin::gpusim {

/// \brief Cost model for the join kernels on one GPU.
///
/// All of the paper's kernels (histogram build, radix partition, local
/// partition passes, shared-memory probe) are streaming kernels; their
/// time is dominated by HBM traffic. Each kernel charges its bytes moved
/// at the effective HBM bandwidth plus a fixed launch overhead. The
/// *functional* work on real tuples happens in src/join; this class only
/// advances the simulated clock.
class KernelModel {
 public:
  explicit KernelModel(GpuSpec spec) : spec_(spec) {}

  const GpuSpec& spec() const { return spec_; }

  /// Histogram generation: one read pass over `n` tuples of
  /// `tuple_bytes`; counters live in shared memory (Rui et al.).
  sim::SimTime HistogramTime(std::uint64_t n, std::uint32_t tuple_bytes) const;

  /// One radix-partition pass: read every tuple, write it to its bucket.
  sim::SimTime PartitionPassTime(std::uint64_t n,
                                 std::uint32_t tuple_bytes) const;

  /// Probe of co-partitions that fit in shared memory: read both sides,
  /// materialize `matches` output pairs.
  sim::SimTime ProbeTime(std::uint64_t build_tuples,
                         std::uint64_t probe_tuples,
                         std::uint64_t matches,
                         std::uint32_t tuple_bytes) const;

  /// Fixed cost of launching one kernel.
  sim::SimTime LaunchOverhead() const { return 8 * sim::kMicrosecond; }

  /// Converts a duration into the paper's "GPU cycles per tuple" metric
  /// (Figure 1): elapsed cycles at the boost clock divided by tuples.
  double CyclesPerTuple(sim::SimTime t, std::uint64_t tuples) const;

 private:
  sim::SimTime StreamTime(std::uint64_t bytes) const;

  GpuSpec spec_;
};

/// \brief Cost model for the unified-memory join's page traffic (UMJ
/// baseline, Paul et al. [31]).
///
/// Remote pages fault into the accessing GPU; fault service serializes
/// on driver page-table locks, and the contention grows with the number
/// of GPUs touching the same table (the paper's explanation for UMJ on
/// 5-8 GPUs being slower than one GPU).
class UnifiedMemoryModel {
 public:
  struct Params {
    std::uint64_t page_bytes = 64 * kKiB;
    /// Service time of one remote page fault with no contention.
    sim::SimTime remote_fault_service = 1500 * sim::kNanosecond;
    /// First-touch cost of a local page (no migration, just mapping).
    sim::SimTime local_touch = 1500 * sim::kNanosecond;
    /// Lock-contention growth per additional GPU: page-table locks
    /// serialize concurrent fault handlers (Sec 5.3). Calibrated so
    /// UMJ's throughput peaks at 2-3 GPUs and falls below its 1-GPU
    /// value from ~4 GPUs, as in Figure 11.
    double contention_per_gpu = 0.5;
    /// Extra remote traffic factor from hash-table access patterns
    /// (build + probe re-faults of already-migrated pages).
    double remote_amplification = 1.0;
  };

  UnifiedMemoryModel() = default;
  explicit UnifiedMemoryModel(Params params) : params_(params) {}

  const Params& params() const { return params_; }

  /// Time one GPU spends faulting `remote_bytes` across `num_gpus`
  /// concurrently-faulting GPUs.
  sim::SimTime RemoteFaultTime(std::uint64_t remote_bytes,
                               int num_gpus) const;

  /// Time to first-touch `local_bytes` of local unified memory.
  sim::SimTime LocalTouchTime(std::uint64_t local_bytes) const;

 private:
  Params params_{};
};

}  // namespace mgjoin::gpusim

#endif  // MGJOIN_GPUSIM_KERNEL_MODEL_H_
