#include "net/routing_policy.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace mgjoin::net {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDirect:
      return "Direct";
    case PolicyKind::kBandwidth:
      return "Bandwidth";
    case PolicyKind::kHopCount:
      return "HopCount";
    case PolicyKind::kLatency:
      return "Latency";
    case PolicyKind::kAdaptive:
      return "MG-Join";
    case PolicyKind::kCentralized:
      return "MGJ-Baseline";
  }
  return "?";
}

sim::SimTime ArmValue(const topo::Route& route, std::uint64_t packet_bytes,
                      int num_packets, const LinkStateTable& state,
                      bool published) {
  const topo::Topology& topo = state.topo();
  // Transmission cost T_R (Eq 3). Packets are stored-and-forwarded at
  // intermediate GPUs (a receiver only re-sends a packet it holds in its
  // routing buffer), so each hop re-transmits the packet: the cost — and
  // the fabric capacity consumed — is the *sum* of the per-hop transfer
  // times, not the bottleneck alone. This is what keeps ARM on direct
  // NVLink routes for small well-connected GPU sets (paper Sec 5.2:
  // "all metrics end up choosing the same route") while still detouring
  // once the direct links congest.
  const std::uint64_t total =
      packet_bytes * static_cast<std::uint64_t>(num_packets);
  sim::SimTime tr = 0;
  for (std::size_t i = 0; i + 1 < route.gpus.size(); ++i) {
    const double bw = topo.ChannelEffectiveBandwidth(
        topo.channel(route.gpus[i], route.gpus[i + 1]), packet_bytes);
    tr += sim::TransferTime(total, bw);
  }

  // Dynamic delay D_R (Eq 4): queuing delay + latency of every physical
  // link constituting the route.
  sim::SimTime dr = 0;
  for (std::size_t i = 0; i + 1 < route.gpus.size(); ++i) {
    const topo::Channel& ch = topo.channel(route.gpus[i], route.gpus[i + 1]);
    // A hop over a down link makes the whole route unusable: its ARM is
    // infinite, mirroring a real scheduler that drops dead links from
    // its route table (fault model, DESIGN.md Sec 10).
    if (!state.ChannelAvailable(ch)) return kUnreachableArm;
    for (const topo::LinkDir& ld : ch.path) {
      dr += published ? state.PublishedQueueDelay(ld)
                      : state.TrueQueueDelay(ld);
      dr += topo.link(ld.link_id).latency();
    }
    dr += static_cast<sim::SimTime>(ch.cpu_hops) * topo::kStagingLatency;
  }
  return tr + dr;
}

/// \brief Lazily built per-(src, dst) candidate table (DESIGN.md Sec 7).
///
/// A pair's entry holds the participant-filtered candidates of
/// Topology::EnumerateRoutes, each route's link directions and, per
/// packet size, the fixed part of ARM: F[n] = sum of per-hop transfer
/// times of n packets + sum of link latencies + staging latency. Only
/// the queueing delays are read live, so an ARM evaluation is one table
/// load plus a sum over the route's directions. SimTime is unsigned, so
/// regrouping ArmValue's sum this way reproduces its bits exactly.
class RouteTable {
 public:
  struct Pair {
    bool built = false;
    topo::Route direct;               ///< {src, dst}, allowed or not
    std::vector<topo::Route> routes;  ///< allowed candidates, in order
    int direct_idx = -1;              ///< the 1-hop candidate, if allowed
    /// routes[i]'s directions are dirs[dir_begin[i], dir_begin[i + 1]).
    std::vector<std::uint32_t> dir_begin;
    std::vector<std::uint32_t> dirs;
    // Packet-size-dependent part, reset when packet_bytes changes.
    std::uint64_t packet_bytes = 0;
    /// fixed[n - 1][i] is F[n] of routes[i]; a row stays empty until a
    /// batch of n packets asks for it.
    std::vector<std::vector<sim::SimTime>> fixed;
    int healthy = -1;  ///< static policies' choice with every link up

    std::span<const std::uint32_t> Dirs(std::size_t i) const {
      return {dirs.data() + dir_begin[i], dirs.data() + dir_begin[i + 1]};
    }
  };

  explicit RouteTable(int max_intermediates)
      : max_intermediates_(max_intermediates) {}

  void Reset(std::vector<bool> participants) {
    participants_ = std::move(participants);
    topo_ = nullptr;
    pairs_.clear();
  }

  /// The entry for src -> dst, keyed on `packet_bytes`.
  Pair& Get(int src, int dst, std::uint64_t packet_bytes,
            const topo::Topology& topo) {
    if (topo_ == nullptr) {
      topo_ = &topo;
      pairs_.resize(static_cast<std::size_t>(topo.num_gpus()) *
                    topo.num_gpus());
    }
    MGJ_CHECK(topo_ == &topo) << "policy reused on another topology";
    Pair& p = pairs_[static_cast<std::size_t>(src) * topo.num_gpus() + dst];
    if (!p.built) Build(src, dst, &p);
    if (p.packet_bytes != packet_bytes) {
      p.packet_bytes = packet_bytes;
      p.fixed.clear();
      p.healthy = -1;
    }
    return p;
  }

  /// Row F[n] of `p` (one entry per candidate), built on first use.
  const std::vector<sim::SimTime>& Fixed(Pair& p, int n) const {
    MGJ_CHECK(n >= 1) << "empty batch";
    if (p.fixed.size() < static_cast<std::size_t>(n)) p.fixed.resize(n);
    std::vector<sim::SimTime>& row = p.fixed[n - 1];
    if (!row.empty() || p.routes.empty()) return row;
    const std::uint64_t total =
        p.packet_bytes * static_cast<std::uint64_t>(n);
    for (const topo::Route& r : p.routes) {
      sim::SimTime f = 0;
      for (std::size_t h = 0; h + 1 < r.gpus.size(); ++h) {
        const topo::Channel& ch = topo_->channel(r.gpus[h], r.gpus[h + 1]);
        f += sim::TransferTime(
            total, topo_->ChannelEffectiveBandwidth(ch, p.packet_bytes));
        f += topo_->ChannelLatency(ch);
      }
      row.push_back(f);
    }
    return row;
  }

 private:
  void Build(int src, int dst, Pair* p) const {
    p->built = true;
    p->direct = topo::Route{{src, dst}};
    p->dir_begin.push_back(0);
    for (topo::Route& r :
         topo_->EnumerateRoutes(src, dst, max_intermediates_)) {
      if (!Allowed(r)) continue;
      if (r.hops() == 1) p->direct_idx = static_cast<int>(p->routes.size());
      for (std::size_t h = 0; h + 1 < r.gpus.size(); ++h) {
        for (const topo::LinkDir& ld :
             topo_->channel(r.gpus[h], r.gpus[h + 1]).path) {
          p->dirs.push_back(LinkStateTable::DirIndex(ld));
        }
      }
      p->dir_begin.push_back(static_cast<std::uint32_t>(p->dirs.size()));
      p->routes.push_back(std::move(r));
    }
  }

  /// True if every GPU of `r` participates in the experiment.
  bool Allowed(const topo::Route& r) const {
    if (participants_.empty()) return true;
    for (int g : r.gpus) {
      if (!participants_[g]) return false;
    }
    return true;
  }

  int max_intermediates_;
  std::vector<bool> participants_;
  const topo::Topology* topo_ = nullptr;
  // src * num_gpus + dst; sized once per binding, so references into a
  // built entry stay valid until Reset.
  std::vector<Pair> pairs_;
};

RoutingPolicy::RoutingPolicy(int max_intermediates)
    : table_(std::make_unique<RouteTable>(max_intermediates)) {}

RoutingPolicy::~RoutingPolicy() = default;

void RoutingPolicy::SetParticipants(std::vector<bool> mask) {
  table_->Reset(std::move(mask));
}

namespace {

/// Shared by the two policies that pin the direct channel: with a
/// healthy fabric they return it unconditionally, but when a fault takes
/// it down they detour onto the fewest-hop surviving route
/// (EnumerateRoutes is sorted by hop count, so the first admissible
/// candidate wins). With no surviving route the direct channel is
/// returned anyway and the engine waits for a restore.
class DirectPinnedPolicy : public RoutingPolicy {
 public:
  using RoutingPolicy::RoutingPolicy;

  const topo::Route& ChooseRoute(int src, int dst,
                                 std::uint64_t packet_bytes, int,
                                 const LinkStateTable& state) override {
    const RouteTable::Pair& p =
        table().Get(src, dst, packet_bytes, state.topo());
    if (state.RouteAvailable(p.direct)) return p.direct;
    for (std::size_t i = 0; i < p.routes.size(); ++i) {
      if (state.DirsUp(p.Dirs(i))) return p.routes[i];
    }
    return p.direct;
  }
};

class DirectPolicy : public DirectPinnedPolicy {
 public:
  using DirectPinnedPolicy::DirectPinnedPolicy;
  PolicyKind kind() const override { return PolicyKind::kDirect; }
};

// The direct channel always exists, so the minimum hop count is one;
// among 1-hop options it is the only one. This is what makes the policy
// fall onto slow staged PCIe routes for non-NVLink pairs. Under faults
// it behaves exactly like DirectPolicy: fewest surviving hops.
class HopCountPolicy : public DirectPinnedPolicy {
 public:
  using DirectPinnedPolicy::DirectPinnedPolicy;
  PolicyKind kind() const override { return PolicyKind::kHopCount; }
};

/// Shared by the two static rankings (Bandwidth, Latency). On a healthy
/// fabric the choice depends only on the pair and the packet size, so it
/// is cached; while a link is down, admissible routes are ranked first
/// and, when faults leave none, the healthy-fabric choice is returned
/// and the engine waits for a restore on it.
class StaticRankPolicy : public RoutingPolicy {
 public:
  using RoutingPolicy::RoutingPolicy;

  const topo::Route& ChooseRoute(int src, int dst,
                                 std::uint64_t packet_bytes, int,
                                 const LinkStateTable& state) final {
    RouteTable::Pair& p = table().Get(src, dst, packet_bytes, state.topo());
    if (!state.availability().AllUp()) {
      const int up = Best(p, state.topo(), &state);
      if (up >= 0) return p.routes[up];
    }
    if (p.healthy < 0) p.healthy = Best(p, state.topo(), nullptr);
    MGJ_CHECK(p.healthy >= 0) << "no allowed route " << src << "->" << dst;
    return p.routes[p.healthy];
  }

 protected:
  /// Index of the best candidate of `p`, skipping routes with a down
  /// link when `up_only` is set; -1 if none qualifies.
  virtual int Best(const RouteTable::Pair& p, const topo::Topology& topo,
                   const LinkStateTable* up_only) const = 0;
};

class BandwidthPolicy : public StaticRankPolicy {
 public:
  using StaticRankPolicy::StaticRankPolicy;
  PolicyKind kind() const override { return PolicyKind::kBandwidth; }

 protected:
  int Best(const RouteTable::Pair& p, const topo::Topology& topo,
           const LinkStateTable* up_only) const override {
    int best = -1;
    double best_bw = -1;
    for (std::size_t i = 0; i < p.routes.size(); ++i) {
      if (up_only != nullptr && !up_only->DirsUp(p.Dirs(i))) continue;
      const topo::Route& r = p.routes[i];
      // "The route with the highest bandwidth" (ties -> fewer hops).
      // Deliberately ignores the capacity consumed by extra hops —
      // that blindness is exactly why the paper measures this policy
      // collapsing on larger GPU counts (Sec 4.2.1).
      const double bw = topo.RouteBottleneckBandwidth(r, p.packet_bytes);
      if (bw > best_bw * (1 + 1e-9) ||
          (bw > best_bw * (1 - 1e-9) && best >= 0 &&
           r.hops() < p.routes[best].hops())) {
        best_bw = bw;
        best = static_cast<int>(i);
      }
    }
    return best;
  }
};

class LatencyPolicy : public StaticRankPolicy {
 public:
  using StaticRankPolicy::StaticRankPolicy;
  PolicyKind kind() const override { return PolicyKind::kLatency; }

 protected:
  int Best(const RouteTable::Pair& p, const topo::Topology& topo,
           const LinkStateTable* up_only) const override {
    int best = -1;
    sim::SimTime best_lat = std::numeric_limits<sim::SimTime>::max();
    double best_bw = -1;
    for (std::size_t i = 0; i < p.routes.size(); ++i) {
      if (up_only != nullptr && !up_only->DirsUp(p.Dirs(i))) continue;
      const topo::Route& r = p.routes[i];
      const sim::SimTime lat = topo.RouteLatency(r);
      const double bw = topo.RouteBottleneckBandwidth(r, p.packet_bytes);
      if (lat < best_lat || (lat == best_lat && bw > best_bw)) {
        best_lat = lat;
        best_bw = bw;
        best = static_cast<int>(i);
      }
    }
    return best;
  }
};

/// Minimum-ARM candidate of `p` for a batch of `n` packets: ArmValue over
/// the table, with `published` selecting the delay view.
struct ArmScan {
  int best = -1;
  sim::SimTime best_arm = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime direct_arm = std::numeric_limits<sim::SimTime>::max();
};

ArmScan ScanArm(const RouteTable& table, RouteTable::Pair& p, int n,
                const LinkStateTable& state, bool published) {
  const std::vector<sim::SimTime>& fixed = table.Fixed(p, n);
  const bool all_up = state.availability().AllUp();
  ArmScan scan;
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    const std::span<const std::uint32_t> dirs = p.Dirs(i);
    const sim::SimTime arm = !all_up && !state.DirsUp(dirs)
                                 ? kUnreachableArm
                                 : fixed[i] + state.SumQueueDelay(dirs,
                                                                  published);
    if (static_cast<int>(i) == p.direct_idx) scan.direct_arm = arm;
    if (scan.best < 0 || arm < scan.best_arm) {
      scan.best_arm = arm;
      scan.best = static_cast<int>(i);
    }
  }
  MGJ_CHECK(scan.best >= 0);
  return scan;
}

class AdaptivePolicy : public RoutingPolicy {
 public:
  using RoutingPolicy::RoutingPolicy;
  PolicyKind kind() const override { return PolicyKind::kAdaptive; }

  const topo::Route& ChooseRoute(int src, int dst,
                                 std::uint64_t packet_bytes, int num_packets,
                                 const LinkStateTable& state) override {
    RouteTable::Pair& p = table().Get(src, dst, packet_bytes, state.topo());
    const ArmScan scan =
        ScanArm(table(), p, num_packets, state, /*published=*/true);
    // Hysteresis: leave the direct route only for a clear gain. Every
    // detour consumes capacity on two-plus links, and the published
    // queue delays are slightly stale, so chasing marginal gains makes
    // senders oscillate and clogs an otherwise balanced fabric. The
    // comparison is written subtraction-side to avoid overflowing when
    // arms are kUnreachableArm; a down direct route never pulls traffic
    // back (its arm is infinite, so the guard fails).
    if (p.direct_idx >= 0 && scan.best != p.direct_idx &&
        scan.direct_arm != kUnreachableArm &&
        scan.direct_arm - scan.best_arm <= scan.best_arm / 6) {
      return p.routes[p.direct_idx];
    }
    return p.routes[scan.best];
  }
};

class CentralizedPolicy : public RoutingPolicy {
 public:
  using RoutingPolicy::RoutingPolicy;
  PolicyKind kind() const override { return PolicyKind::kCentralized; }

  const topo::Route& ChooseRoute(int src, int dst,
                                 std::uint64_t packet_bytes, int num_packets,
                                 const LinkStateTable& state) override {
    // The central scheduler sees the oracle link state (that is the whole
    // point of synchronizing every GPU per batch), so its data-transfer
    // decisions are slightly better than ARM's stale-view decisions.
    RouteTable::Pair& p = table().Get(src, dst, packet_bytes, state.topo());
    return p.routes[ScanArm(table(), p, num_packets, state,
                            /*published=*/false)
                        .best];
  }

  sim::SimTime ControlOverheadPerBatch(int num_gpus) const override {
    // Global barrier + broadcast of the schedule: every GPU stops, the
    // coordinator gathers queue states and redistributes decisions. Cost
    // grows with participant count (host-flag barrier + decision
    // broadcast); calibrated so the baseline lands ~1.5x behind MG-Join
    // at 8 GPUs (paper Fig 10).
    return (2 * sim::kMicrosecond) +
           (1200 * sim::kNanosecond) * static_cast<sim::SimTime>(num_gpus);
  }
  bool SerializesGlobally() const override { return true; }
};

}  // namespace

std::unique_ptr<RoutingPolicy> MakePolicy(PolicyKind kind,
                                          int max_intermediates) {
  switch (kind) {
    case PolicyKind::kDirect:
      return std::make_unique<DirectPolicy>(max_intermediates);
    case PolicyKind::kBandwidth:
      return std::make_unique<BandwidthPolicy>(max_intermediates);
    case PolicyKind::kHopCount:
      return std::make_unique<HopCountPolicy>(max_intermediates);
    case PolicyKind::kLatency:
      return std::make_unique<LatencyPolicy>(max_intermediates);
    case PolicyKind::kAdaptive:
      return std::make_unique<AdaptivePolicy>(max_intermediates);
    case PolicyKind::kCentralized:
      return std::make_unique<CentralizedPolicy>(max_intermediates);
  }
  return nullptr;
}

}  // namespace mgjoin::net
