#ifndef MGJOIN_NET_ROUTING_POLICY_H_
#define MGJOIN_NET_ROUTING_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/name_table.h"
#include "net/link_state.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace mgjoin::net {

/// Which routing policy a TransferEngine uses (paper Sec 4.2).
enum class PolicyKind {
  kDirect,     ///< single-hop direct channel only (DPRJ-style)
  kBandwidth,  ///< static: shortest route with highest bottleneck bandwidth
  kHopCount,   ///< static: fewest hops (i.e. always the direct channel)
  kLatency,    ///< static: lowest summed static latency
  kAdaptive,   ///< MG-Join's ARM metric (Eqs 2-4)
  kCentralized ///< MGJ-Baseline: fresh global state + per-batch global sync
};

const char* PolicyKindName(PolicyKind kind);

/// The routing-policy names `mgjoin --policy` and a scenario spec's
/// `policy` accept. The scenario fuzzer draws by index, so the order is
/// part of its reproducibility.
struct PolicyName {
  const char* name;
  PolicyKind kind;
};
inline constexpr PolicyName kPolicyNames[] = {
    {"adaptive", PolicyKind::kAdaptive},
    {"direct", PolicyKind::kDirect},
    {"bandwidth", PolicyKind::kBandwidth},
    {"hopcount", PolicyKind::kHopCount},
    {"latency", PolicyKind::kLatency},
    {"centralized", PolicyKind::kCentralized},
};

/// Parses kPolicyNames' vocabulary; false on unknown input.
inline bool ParsePolicy(std::string_view text, PolicyKind* out) {
  const PolicyName* p = FindName(kPolicyNames, text);
  if (p != nullptr) *out = p->kind;
  return p != nullptr;
}

/// Per-(src, dst) candidate cache shared by every policy (defined in
/// routing_policy.cc; DESIGN.md Sec 7).
class RouteTable;

/// \brief Chooses a route for each batch of packets.
///
/// Policies see the fabric through a LinkStateTable: static policies
/// ignore it, the adaptive policy reads the *published* (broadcast,
/// possibly stale) queue delays, and the centralized baseline reads true
/// delays — which is exactly why it must pay a global synchronization per
/// batch (Figure 10).
///
/// A policy is bound to the topology of the first LinkStateTable it
/// sees after construction or SetParticipants; it is not thread-safe.
class RoutingPolicy {
 public:
  /// `max_intermediates` bounds multi-hop candidates.
  explicit RoutingPolicy(int max_intermediates);
  virtual ~RoutingPolicy();

  virtual PolicyKind kind() const = 0;
  const char* name() const { return PolicyKindName(kind()); }

  /// \brief Picks the route for a batch of `num_packets` (>= 1) packets
  /// of `packet_bytes` each from `src` to `dst`.
  ///
  /// The returned reference points into the policy's route table and
  /// stays valid until the policy's next SetParticipants or its
  /// destruction.
  virtual const topo::Route& ChooseRoute(int src, int dst,
                                         std::uint64_t packet_bytes,
                                         int num_packets,
                                         const LinkStateTable& state) = 0;

  /// Extra control-plane cost charged at the sender per batch. The
  /// centralized baseline returns its global-barrier cost here.
  virtual sim::SimTime ControlOverheadPerBatch(int num_gpus) const {
    (void)num_gpus;
    return 0;
  }

  /// True if ControlOverheadPerBatch is a *global* critical section (all
  /// GPUs stall), not just a local sender cost.
  virtual bool SerializesGlobally() const { return false; }

  /// Restricts multi-hop candidates to the experiment's participating
  /// GPUs (indexed by dense GPU index) and drops the route table. Called
  /// by the TransferEngine.
  void SetParticipants(std::vector<bool> mask);

 protected:
  RouteTable& table() { return *table_; }

 private:
  std::unique_ptr<RouteTable> table_;
};

/// Factory for the built-in policies. `max_intermediates` bounds
/// multi-hop candidates (paper: at most 3 intermediate hops).
std::unique_ptr<RoutingPolicy> MakePolicy(PolicyKind kind,
                                          int max_intermediates = 3);

/// ARM value reported for a route that crosses a down link: effectively
/// infinite, so fault-aware policies never pick it while any admissible
/// alternative exists. Callers comparing ARM values must not add margins
/// to a value this large (overflow); see AdaptivePolicy's hysteresis.
inline constexpr sim::SimTime kUnreachableArm = sim::kSimTimeMax;

/// Computes the ARM value (Eq 2): pipelined transmission cost of the
/// packet over the route plus the route's dynamic delay (queuing +
/// latency per link, Eq 4). Exposed for tests and for the centralized
/// baseline. `published` selects the stale broadcast view (true) or the
/// oracle view (false). Routes crossing a down link return
/// kUnreachableArm.
sim::SimTime ArmValue(const topo::Route& route, std::uint64_t packet_bytes,
                      int num_packets, const LinkStateTable& state,
                      bool published);

}  // namespace mgjoin::net

#endif  // MGJOIN_NET_ROUTING_POLICY_H_
