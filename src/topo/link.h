#ifndef MGJOIN_TOPO_LINK_H_
#define MGJOIN_TOPO_LINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace mgjoin::topo {

/// Interconnect technologies present in the DGX-1 fabric (paper Sec 2.2).
enum class LinkType {
  kNvLink1,  ///< single NVLink 2.0 brick: 25 GB/s per direction
  kNvLink2,  ///< double NVLink 2.0 brick: 50 GB/s per direction
  kPcie3,    ///< PCIe 3.0 x16: 16 GB/s per direction, shareable
  kQpi,      ///< Intel QPI socket interconnect: 25.6 GB/s per direction
};

const char* LinkTypeName(LinkType type);

/// Peak unidirectional bandwidth in bytes/s for a link type.
double PeakBandwidth(LinkType type);

/// Static (uncongested) one-way latency of a link.
sim::SimTime LinkLatency(LinkType type);

/// \brief Effective achievable bandwidth for a transfer of `bytes` over a
/// link of `type`, in bytes/s.
///
/// Small transfers are dominated by per-transfer overheads (driver,
/// DMA-engine setup); the paper measures up to 20x degradation at 2 KB
/// and saturation near 12 MB (Figure 4). The curve is a monotone
/// log-linear interpolation over a measured-shape table calibrated to
/// that figure; packet sizes outside the table clamp to its ends.
double EffectiveBandwidth(LinkType type, std::uint64_t bytes);

/// Fraction of per-link bandwidth retained when a transfer is staged
/// through host memory (Sec 2.2: "staging fails to achieve high
/// bandwidth utilization"). The pipelining loss itself is modeled by the
/// per-link occupancy in net::LinkStateTable; this factor covers the
/// residual driver/pinning overhead.
inline constexpr double kStagingEfficiency = 0.9;

/// Extra latency charged per CPU-socket traversal of a staged transfer
/// (pinned-buffer copy in/out of host memory).
inline constexpr sim::SimTime kStagingLatency = 8 * sim::kMicrosecond;

/// \brief A physical full-duplex link between two fabric nodes.
///
/// Direction 0 is a->b, direction 1 is b->a. Bandwidth and latency are
/// per direction; the two directions never contend with each other.
struct Link {
  int id = -1;
  int node_a = -1;
  int node_b = -1;
  LinkType type = LinkType::kPcie3;

  double bandwidth() const { return PeakBandwidth(type); }
  sim::SimTime latency() const { return LinkLatency(type); }
  double effective_bandwidth(std::uint64_t bytes) const {
    return EffectiveBandwidth(type, bytes);
  }

  /// Returns the opposite endpoint, or -1 if `node` is not an endpoint.
  int OtherEnd(int node) const {
    if (node == node_a) return node_b;
    if (node == node_b) return node_a;
    return -1;
  }

  std::string ToString() const;
};

/// Reference to one direction of a physical link.
struct LinkDir {
  int link_id = -1;
  int dir = 0;  // 0: a->b, 1: b->a

  bool operator==(const LinkDir&) const = default;
};

/// Operational state of a physical link (fault model; DESIGN.md Sec 10).
/// A down link admits no new transfers in either direction; a degraded
/// link runs at a fraction of its effective bandwidth.
enum class LinkHealth { kUp, kDegraded, kDown };

const char* LinkHealthName(LinkHealth health);

/// \brief Mutable per-link availability overlay on an (immutable)
/// Topology.
///
/// The topology graph never changes at runtime; faults are expressed as
/// this separate view, owned by the link scheduler and consulted by the
/// routing policies.
class LinkAvailabilityView {
 public:
  /// Sizes the view for `num_links` links, all initially up.
  void Reset(int num_links);

  /// Transitions `link_id`. `factor` is the bandwidth multiplier kept
  /// while degraded (ignored for kUp/kDown); must be in (0, 1].
  void SetHealth(int link_id, LinkHealth health, double factor = 1.0);

  LinkHealth health(int link_id) const {
    return states_.empty() ? LinkHealth::kUp
                           : states_[static_cast<std::size_t>(link_id)].health;
  }
  bool Up(int link_id) const {
    return health(link_id) != LinkHealth::kDown;
  }
  /// Bandwidth multiplier: 1.0 up, the degrade factor while degraded,
  /// 0.0 down.
  double Factor(int link_id) const;

  /// True while no link is down (degraded links still carry traffic, so
  /// every route stays admissible).
  bool AllUp() const { return down_links_ == 0; }
  int down_links() const { return down_links_; }

 private:
  struct State {
    LinkHealth health = LinkHealth::kUp;
    double factor = 1.0;
  };
  std::vector<State> states_;
  int down_links_ = 0;
};

}  // namespace mgjoin::topo

#endif  // MGJOIN_TOPO_LINK_H_
