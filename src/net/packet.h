#ifndef MGJOIN_NET_PACKET_H_
#define MGJOIN_NET_PACKET_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/logging.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace mgjoin::net {

/// Size of the per-packet header MG-Join prepends (Sec 4.1): 4-byte
/// packet id + 4-byte size + up to 5 one-byte GPU ids for the route.
inline constexpr std::uint32_t kPacketHeaderBytes = 13;

/// \brief A cross-GPU data flow: `bytes` to move from `src_gpu` to
/// `dst_gpu`, becoming available for transmission at `available_at` (or
/// progressively, at `generation_rate` bytes/s, to model overlap with the
/// partitioning kernel that produces the data).
struct Flow {
  std::uint64_t id = 0;
  int src_gpu = -1;
  int dst_gpu = -1;
  std::uint64_t bytes = 0;
  sim::SimTime available_at = 0;
  double generation_rate = 0.0;  ///< 0 = all bytes ready at available_at
  /// Arbitration class under ArbitrationKind::kPriority (higher wins
  /// strictly); ignored by the other policies. Clamped to the link
  /// table's class range at registration.
  int priority = 0;
  /// Attribution: which query/phase produced this flow. The engine fills
  /// unset fields at registration (src/dst from the endpoints, phase
  /// "flow"), so telemetry and metrics always see a complete tag.
  obs::FlowTag tag;
};

/// \brief Fixed-capacity inline route, the POD counterpart of
/// topo::Route.
///
/// The wire header carries at most 5 one-byte GPU ids
/// (kPacketHeaderBytes), so routes are tiny and bounded; storing them
/// inline keeps Packet trivially copyable — no per-packet heap
/// allocation when packets move through queues, batches and event
/// closures.
class PacketRoute {
 public:
  /// Source + up to 3 intermediates + destination is 5; padded to 8 so
  /// the struct stays pow2-friendly and future topologies have slack.
  static constexpr int kMaxGpus = 8;

  PacketRoute() = default;
  explicit PacketRoute(const topo::Route& r) { Assign(r); }
  PacketRoute& operator=(const topo::Route& r) {
    Assign(r);
    return *this;
  }

  int size() const { return len_; }
  bool empty() const { return len_ == 0; }
  int operator[](int i) const { return gpus_[i]; }
  int front() const { return gpus_[0]; }
  int back() const { return gpus_[len_ - 1]; }
  void Clear() { len_ = 0; }

  bool operator==(const PacketRoute& o) const {
    if (len_ != o.len_) return false;
    for (int i = 0; i < len_; ++i) {
      if (gpus_[i] != o.gpus_[i]) return false;
    }
    return true;
  }

  /// Same format as topo::Route::ToString ("0->3->5").
  std::string ToString() const {
    std::string out;
    for (int i = 0; i < len_; ++i) {
      if (i) out += "->";
      out += std::to_string(gpus_[i]);
    }
    return out;
  }

 private:
  void Assign(const topo::Route& r) {
    MGJ_CHECK(r.gpus.size() <= static_cast<std::size_t>(kMaxGpus))
        << "route too long for packet header: " << r.ToString();
    len_ = static_cast<std::int16_t>(r.gpus.size());
    for (int i = 0; i < len_; ++i) {
      gpus_[i] = static_cast<std::int16_t>(r.gpus[i]);
    }
  }

  std::int16_t gpus_[kMaxGpus] = {};
  std::int16_t len_ = 0;
};

/// \brief One packet in flight.
///
/// `route` is fixed at the source for the packet's whole journey (Sec
/// 4.2.2: "the route ... is determined at the source node ... and will
/// not be changed at intermediate nodes"); `hop` is the index of the next
/// channel to traverse: route[hop] -> route[hop+1]. Deliberately
/// trivially copyable (48 bytes): packets live in slab queues and event
/// closures and are relocated with memcpy.
struct Packet {
  std::uint64_t id = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t flow_idx = 0;  ///< dense index into the engine's flow slabs
  std::uint32_t payload_bytes = 0;
  PacketRoute route;
  std::int32_t hop = 0;

  int final_dst() const { return route.back(); }
  int next_gpu() const { return route[hop + 1]; }
  int cur_gpu() const { return route[hop]; }
  bool last_hop() const { return hop + 2 == route.size(); }
  std::uint32_t wire_bytes() const {
    return payload_bytes + kPacketHeaderBytes;
  }
};

static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet must stay POD: queues and closures memcpy it");
static_assert(sizeof(Packet) == 48,
              "Packet should stay one cache line");

}  // namespace mgjoin::net

#endif  // MGJOIN_NET_PACKET_H_
