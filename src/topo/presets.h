#ifndef MGJOIN_TOPO_PRESETS_H_
#define MGJOIN_TOPO_PRESETS_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/name_table.h"
#include "topo/topology.h"

namespace mgjoin::topo {

/// \brief NVIDIA DGX-1V: 8 V100 GPUs on an NVLink 2.0 hybrid cube-mesh
/// (16 NVLink pairs, four of them double links per GPU budget of six
/// bricks), four shared PCIe 3.0 switches (two GPUs each) and two CPU
/// sockets joined by QPI. This is the machine in paper Figure 2.
std::unique_ptr<Topology> MakeDgx1V();

/// \brief NVIDIA DGX-Station: 4 V100 GPUs, fully connected by single
/// NVLink bricks, one CPU socket with two shared PCIe switches. Used in
/// the paper to demonstrate generality (Sec 5.1).
std::unique_ptr<Topology> MakeDgxStation();

/// \brief Degenerate single-GPU machine (PCIe to one CPU socket); the
/// 1-GPU data points of Figures 1 and 11.
std::unique_ptr<Topology> MakeSingleGpu();

/// \brief A DGX-2-style 16-GPU machine: every GPU reaches every other
/// over NVSwitch at full NVLink-2 bandwidth (modeled as a dedicated NV2
/// link per pair), PCIe/QPI host fabric underneath. The paper's intro
/// motivates scaling to 16-GPU servers; this preset lets the routing
/// experiments run beyond the DGX-1.
std::unique_ptr<Topology> MakeDgx2();

/// The machine names `mgjoin --machine` and a scenario spec's `topology`
/// accept. The scenario fuzzer draws by index, so the order is part of
/// its reproducibility.
struct MachinePreset {
  const char* name;
  std::unique_ptr<Topology> (*make)();
};
inline constexpr MachinePreset kMachinePresets[] = {
    {"dgx1", &MakeDgx1V},
    {"dgxstation", &MakeDgxStation},
    {"dgx2", &MakeDgx2},
    {"single", &MakeSingleGpu},
};

/// Builds the preset called `name`; nullptr when no preset has that name.
inline std::unique_ptr<Topology> MakeMachine(std::string_view name) {
  const MachinePreset* m = FindName(kMachinePresets, name);
  return m == nullptr ? nullptr : m->make();
}

/// \brief The dense GPU indices participating in an experiment on the
/// DGX-1, e.g. {0,3,4} in Figure 5a. Order matters for data placement.
using GpuSet = std::vector<int>;

/// All 8 DGX-1 GPUs: {0,...,7}.
GpuSet AllGpus(const Topology& topo);

/// The GPU subset the paper uses for an n-GPU experiment on DGX-1.
/// Chosen to interleave sockets the way `CUDA_VISIBLE_DEVICES=0..n-1`
/// would: {0}, {0,1}, ..., {0..7}.
GpuSet FirstNGpus(int n);

}  // namespace mgjoin::topo

#endif  // MGJOIN_TOPO_PRESETS_H_
