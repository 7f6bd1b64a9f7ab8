#ifndef MGJOIN_TOPO_TOPOLOGY_H_
#define MGJOIN_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"
#include "topo/link.h"

namespace mgjoin::topo {

enum class NodeType { kGpu, kCpu, kPcieSwitch };

/// A vertex of the fabric graph: a GPU, a CPU socket, or a PCIe switch.
struct Node {
  int id = -1;
  NodeType type = NodeType::kGpu;
  int gpu_index = -1;  ///< dense index among GPUs; -1 for non-GPU nodes
  int socket = -1;     ///< CPU socket this node hangs off
  std::string name;
};

/// \brief The physical path taken by a *direct* (single-hop) transfer
/// between an ordered pair of GPUs.
///
/// For NVLink-adjacent pairs this is the single NVLink link. For all
/// other pairs the transfer is staged through host memory: GPU -> PCIe
/// switch -> CPU [-> QPI -> CPU] -> PCIe switch -> GPU (paper Sec 2.2).
struct Channel {
  int src_gpu = -1;
  int dst_gpu = -1;
  std::vector<LinkDir> path;  ///< physical links in traversal order
  bool staged = false;        ///< passes through host memory
  int cpu_hops = 0;           ///< CPU sockets traversed
};

/// \brief A (possibly multi-hop) route at GPU granularity: the packet
/// header's "vector of GPU ids" from Sec 4.1.
struct Route {
  std::vector<int> gpus;  ///< [src, intermediates..., dst]

  int hops() const { return static_cast<int>(gpus.size()) - 1; }
  int intermediates() const { return static_cast<int>(gpus.size()) - 2; }
  std::string ToString() const;

  bool operator==(const Route&) const = default;
};

/// \brief Immutable model of one machine's GPU interconnect fabric.
///
/// Build with AddNode/AddLink then Finalize(), or use a preset from
/// presets.h. After Finalize() the topology precomputes the direct
/// channel for every ordered GPU pair and can enumerate multi-hop routes.
class Topology {
 public:
  Topology() = default;

  /// Adds a node; returns its id.
  int AddNode(NodeType type, int socket, std::string name);

  /// Adds a full-duplex link between nodes `a` and `b`; returns its id.
  int AddLink(int a, int b, LinkType type);

  /// Validates the graph and precomputes channels. Must be called once
  /// before any query; returns InvalidArgument on malformed graphs.
  Status Finalize();

  bool finalized() const { return finalized_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }
  int num_gpus() const { return static_cast<int>(gpu_nodes_.size()); }

  const Node& node(int id) const { return nodes_[id]; }
  const Link& link(int id) const { return links_[id]; }
  const std::vector<Link>& links() const { return links_; }

  /// Node id of the GPU with dense index `gpu_index`.
  int gpu_node(int gpu_index) const { return gpu_nodes_[gpu_index]; }

  /// True if the ordered pair is connected by a dedicated NVLink link.
  bool HasNvLink(int src_gpu, int dst_gpu) const;

  /// \brief Resolves a human-readable link spec to a link id (used by
  /// the fault-plan front ends).
  ///
  /// Accepted forms: `gpuA-gpuB` (the GPU-GPU NVLink between dense GPU
  /// indices A and B), `nvlinkN` / `pcieN` / `qpiN` (the Nth link of
  /// that type in link-id order), `linkN` (raw link id), or an exact
  /// Link::ToString() name such as `QPI(18<->19)`.
  Result<int> ResolveLinkSpec(const std::string& spec) const;

  /// Direct channel for an ordered GPU pair (src != dst).
  const Channel& channel(int src_gpu, int dst_gpu) const;

  /// Static effective bandwidth of a channel for a transfer of `bytes`:
  /// the bottleneck link's size-dependent bandwidth, derated by the
  /// staging efficiency for host-staged channels.
  double ChannelEffectiveBandwidth(const Channel& ch,
                                   std::uint64_t bytes) const;

  /// Static (uncongested) latency of a channel, including staging cost.
  sim::SimTime ChannelLatency(const Channel& ch) const;

  /// Bottleneck effective bandwidth over a multi-hop route.
  double RouteBottleneckBandwidth(const Route& r, std::uint64_t bytes) const;

  /// Sum of channel latencies along a route.
  sim::SimTime RouteLatency(const Route& r) const;

  /// \brief Enumerates candidate routes from src to dst.
  ///
  /// Includes the direct channel plus every simple path over NVLink
  /// channels with at most `max_intermediates` intermediate GPUs (the
  /// paper's constraint, Sec 4.2.2). Staged channels are never used as
  /// intermediate hops: any multi-hop route through host memory is
  /// dominated by the direct staged route. Results are deterministic
  /// (sorted by hop count, then lexicographically). Computed on every
  /// call; the routing policies keep their own per-pair tables.
  std::vector<Route> EnumerateRoutes(int src_gpu, int dst_gpu,
                                     int max_intermediates = 3) const;

  /// Result of a bisection computation: the limiting bandwidth plus which
  /// physical links cross the minimizing cut (used to attribute traffic
  /// to the bisection when computing Figure 8's utilization).
  struct BisectionCut {
    double bandwidth = 0.0;            ///< bytes/s, both directions
    std::vector<bool> link_crossing;   ///< indexed by link id
  };

  /// \brief Bisection bandwidth (bytes/s, summed over both directions)
  /// of the sub-fabric induced by `gpus`.
  ///
  /// Computed as the minimum over balanced bipartitions of the max-flow
  /// capacity between the halves on the physical graph (paper Fig 8's
  /// normalization).
  double BisectionBandwidth(const std::vector<int>& gpus) const;

  /// Bisection bandwidth plus the crossing-link set of the minimizing cut.
  BisectionCut MinBisectionCut(const std::vector<int>& gpus) const;

  std::string ToString() const;

 private:
  void BuildChannel(int src_gpu, int dst_gpu);
  double MaxFlowBetween(const std::vector<int>& side_a,
                        const std::vector<int>& side_b,
                        std::vector<bool>* crossing) const;

  bool finalized_ = false;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<int> gpu_nodes_;                // gpu_index -> node id
  std::vector<std::vector<int>> adjacency_;   // node id -> link ids
  std::vector<Channel> channels_;             // src*num_gpus+dst
  std::vector<std::vector<int>> nvlink_adj_;  // gpu_index -> gpu_index list
};

}  // namespace mgjoin::topo

#endif  // MGJOIN_TOPO_TOPOLOGY_H_
