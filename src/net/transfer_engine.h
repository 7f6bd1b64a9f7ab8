#ifndef MGJOIN_NET_TRANSFER_ENGINE_H_
#define MGJOIN_NET_TRANSFER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/ring_deque.h"
#include "common/status.h"
#include "common/units.h"
#include "net/link_state.h"
#include "obs/obs.h"
#include "net/packet.h"
#include "net/routing_policy.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace mgjoin::net {

/// Tunables of the data-distribution machinery (paper Sec 4.1).
struct TransferOptions {
  /// Payload bytes per packet. The paper settles on 2 MB after profiling.
  std::uint64_t packet_bytes = 2 * kMiB;
  /// Packets per batch; a batch shares one route and one launch overhead.
  int batch_packets = 8;
  /// Routing-buffer capacity per (receiver, upstream) pair.
  std::uint64_t ring_buffer_bytes = 64 * kMiB;
  /// Concurrent outgoing transmissions per GPU (DMA copy engines).
  int dma_engines = 2;
  /// Maximum intermediate GPUs on a route (paper: 3).
  int max_intermediates = 3;
  /// Receiver-side cost to unpack a delivered packet before its routing
  /// slot can be reused.
  sim::SimTime unpack_delay = 3 * sim::kMicrosecond;
  /// How long a sender waits between ring-buffer re-checks when the
  /// receiver's buffer stays full.
  sim::SimTime poll_interval = 50 * sim::kMicrosecond;
  /// Ring sync completions without an accepted batch on that ring after
  /// which its queued transit packets escape to their direct route
  /// (deadlock safety valve). Completions settled at a busy sender's
  /// engine release count too, so a busy sender reaches it on rings that
  /// are not full (DESIGN.md Sec 7).
  int escape_poll_threshold = 20;
  /// For the Figure 10 breakdown: measure the centralized baseline's pure
  /// data-transfer cost by zeroing its per-batch barrier.
  bool zero_control_overhead = false;
  /// Scheduled link fault events, applied to the fabric when Start()
  /// runs (see net/fault_plan.h). Empty = healthy fabric.
  FaultPlan faults;
  /// How concurrent queries competing for a link direction are ordered
  /// (multi-tenant service; DESIGN.md Sec 15). kFifo reproduces the
  /// single-query engine byte for byte.
  ArbitrationKind arbitration = ArbitrationKind::kFifo;
  /// Observability sinks (see obs/obs.h). Null trace/metrics pointers
  /// disable those sinks; a null auditor makes the engine run its own
  /// default one (sampled invariant checks + deadlock watchdog stay on).
  obs::ObsHooks obs;
};

/// Aggregate outcome of one data-distribution run.
struct TransferStats {
  sim::SimTime first_available = 0;  ///< earliest flow availability
  sim::SimTime last_delivery = 0;    ///< final packet landed
  std::uint64_t payload_bytes = 0;   ///< delivered at final destinations
  std::uint64_t wire_bytes = 0;      ///< summed over every hop traversed
  std::uint64_t packets = 0;         ///< packets delivered
  std::uint64_t packet_hops = 0;     ///< total channel traversals
  std::uint64_t batches = 0;
  std::uint64_t ring_syncs = 0;      ///< sender<->receiver buffer syncs
  std::uint64_t escapes = 0;         ///< deadlock safety-valve reroutes
  std::uint64_t fault_reroutes = 0;  ///< packets re-pathed around down links
  std::uint64_t fault_aborts = 0;    ///< batches unwound: link died pre-wire
  std::uint64_t fault_waits = 0;     ///< retry polls while fault-blocked
  std::uint64_t arb_paces = 0;       ///< batch formations deferred by pacing
  sim::SimTime control_overhead = 0; ///< centralized barrier time, summed

  bool operator==(const TransferStats&) const = default;

  /// Wall-clock of the distribution step.
  sim::SimTime Makespan() const {
    return last_delivery > first_available ? last_delivery - first_available
                                           : 0;
  }
  /// Average intermediate GPUs per delivered packet.
  double AvgIntermediateHops() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(packet_hops - packets) /
                              static_cast<double>(packets);
  }
  /// Delivered payload bytes per second of makespan.
  double Throughput() const {
    const sim::SimTime ms = Makespan();
    return ms == 0 ? 0.0
                   : static_cast<double>(payload_bytes) / sim::ToSeconds(ms);
  }
};

/// \brief Executes a set of cross-GPU data flows on the simulated fabric.
///
/// Implements the push-based multi-hop machinery of Sec 4.1: each GPU has
/// a sender with per-peer outgoing queues served in (deterministic)
/// longest-queue-first order — our stand-in for the paper's weighted
/// round-robin — and a receiver that either unpacks or forwards. Routing
/// buffers are single-writer circular buffers whose free-slot state is
/// synchronized lazily, exactly when the sender's view runs out.
///
/// Typical use:
/// \code
///   sim::Simulator s;
///   auto policy = MakePolicy(PolicyKind::kAdaptive);
///   TransferEngine eng(&s, topo.get(), gpus, policy.get(), {});
///   eng.AddFlow({.id=0, .src_gpu=0, .dst_gpu=5, .bytes=1*kGiB});
///   eng.Start();
///   s.Run();
///   TransferStats st = eng.stats();
/// \endcode
class TransferEngine {
 public:
  /// `gpus` lists the participating dense GPU indices. All raw pointers
  /// must outlive the engine.
  TransferEngine(sim::Simulator* sim, const topo::Topology* topo,
                 std::vector<int> gpus, RoutingPolicy* policy,
                 TransferOptions options);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// \brief Registers a flow.
  ///
  /// Before Start() the flow is queued and activated by Start(); after
  /// Start() it is admitted dynamically — availability events are
  /// scheduled immediately, so a long-running service can keep feeding
  /// queries into one engine (`available_at` must not lie in the past).
  /// The flow's query (FlowTag::query_id) is auto-registered with the
  /// link table for arbitration and deregistered once its last byte
  /// lands.
  void AddFlow(const Flow& flow);

  /// Called whenever a packet reaches its final destination, with the
  /// delivery time. Used by the join layer to overlap local partitioning
  /// with the distribution (Rationale 2). It runs inline inside
  /// Simulator::Run()/RunUntil(), on the thread that called it, once per
  /// delivered packet, in non-decreasing `when` order, with
  /// `when == sim->Now()`; the callback needs no synchronisation of its
  /// own.
  using DeliverCallback =
      std::function<void(const Packet& packet, sim::SimTime when)>;
  void set_deliver_callback(DeliverCallback cb) { deliver_cb_ = std::move(cb); }

  /// Schedules flow availability events. Call once, then run the
  /// simulator to completion.
  void Start();

  /// True when every flow's bytes have been delivered.
  bool AllDone() const { return pending_payload_ == 0 && started_; }

  const TransferStats& stats() const { return stats_; }

  /// Renders queue/ring/engine state for diagnosing stalls.
  std::string DebugDump() const;
  LinkStateTable& links() { return links_; }
  const LinkStateTable& links() const { return links_; }
  const TransferOptions& options() const { return options_; }
  const std::vector<int>& gpus() const { return gpus_; }

  /// The auditor watching this engine — the one passed in via
  /// TransferOptions::obs, or the engine-owned default. Never null.
  obs::InvariantAuditor& auditor() { return *obs_.auditor; }

  /// Test-only: deliberately overclaims ring slots at (receiver,
  /// upstream) so tests can prove the auditor detects corrupted
  /// accounting. Never call outside tests.
  void CorruptRingForTest(int receiver, int upstream,
                          std::uint64_t extra_claims);

 private:
  // Logical key of a sender-side outgoing queue: transit queues are per
  // next-hop GPU (route already fixed); source queues are per final
  // destination (route chosen when a batch is formed). Queues are
  // stored as a flat per-GPU slab indexed [transit * G + dense peer];
  // the key survives as the deterministic service-order tie-break
  // ((transit, peer-gpu-id) ascending — the old std::map iteration
  // order).
  struct QueueKey {
    bool transit = false;
    int peer = -1;
    auto operator<=>(const QueueKey&) const = default;
  };

  struct QueuedPacket {
    Packet packet;
    int slot_upstream = -1;  ///< ring this transit packet occupies, or -1
  };

  // Single-writer routing ring buffer at `receiver` for packets arriving
  // from `upstream`. The sender's conservative view of free slots is
  // slots - (claimed - freed_view); it never overclaims because only the
  // receiver increments freed. One slot is reserved for packets on their
  // last hop: those always drain (the destination unpacks immediately),
  // which breaks multi-hop buffer-cycle deadlocks — any transit packet
  // eventually escapes to its direct route and becomes last-hop traffic.
  struct RingLink {
    int slots = 0;
    sim::SimTime sync_cost = 0;    // 2 x channel latency + 2 us per sync
    std::uint64_t claimed = 0;     // by the upstream sender
    std::uint64_t freed = 0;       // by the receiver
    std::uint64_t freed_view = 0;  // sender's last-synced copy of freed
    bool sync_pending = false;
    int failed_polls = 0;
    std::vector<int> suspended;  // ids of the suspended sync chains
    // The suspended chains' steps repeat every period, no poll ending a
    // chain, until a chain is suspended, starts, ends or resumes.
    bool stable = false;

    int FreeViewFor(bool last_hop) const {
      const int cap = last_hop ? slots : slots - 1;
      return cap - static_cast<int>(claimed - freed_view);
    }
  };

  // One ring-sync chain: sync completions (S) alternating with polls
  // (P) `poll_interval` later, started when a sender finds a ring's
  // free-slot view empty. Its next step is either a queued event or, while
  // the sender is busy, suspended until the sender's next engine release
  // (DESIGN.md Sec 7, "Ring syncs of a busy sender").
  struct SyncChain {
    int ring = -1;             // index into rings_
    bool poll_next = false;    // next step is a poll
    sim::SimTime next_at = 0;  // when the next step is due
  };

  struct GpuState {
    /// Flat queue slab: [0, G) are source queues by dense final
    /// destination, [G, 2G) transit queues by dense next hop.
    std::vector<RingDeque<QueuedPacket>> queues;
    /// Sync chains suspended on this sender's rings, in suspension order.
    /// Non-empty only while every DMA engine is busy and packets are
    /// queued.
    std::vector<int> suspended;
    int busy_engines = 0;
    /// Which DMA engines are mid-batch; slots give each engine a stable
    /// identity so its busy spans land on one trace track.
    std::vector<char> engine_busy;
    /// Earliest pending arbitration wake (0 = none). Dedups the events
    /// SchedulePaceWake posts when every serviceable queue head is
    /// paced into the future by QueryReleaseTime.
    sim::SimTime pace_wake_at = 0;
  };

  GpuState& gpu_state(int gpu) { return gpu_states_[dense_[gpu]]; }
  RingLink& ring(int receiver, int upstream) {
    return rings_[dense_[receiver] * gpus_.size() + dense_[upstream]];
  }
  RingDeque<QueuedPacket>& queue_at(GpuState& gs, bool transit, int peer) {
    return gs.queues[(transit ? gpus_.size() : 0) + dense_[peer]];
  }

  void RegisterAuditorChecks();
  void ResolveMetricHandles();
  void RegisterTelemetryProbes();
  /// Schedules flow `idx`'s availability events (probe registration,
  /// trace instant, packet injection). Called by Start() for pre-start
  /// flows and by AddFlow() directly for dynamically admitted ones.
  void ActivateFlow(std::uint32_t idx);
  int DmaTrack(int gpu, int slot);
  void InjectPackets(std::uint32_t flow_idx, std::uint64_t first_packet,
                     std::uint64_t num_packets);
  void TryStartSends(int gpu);
  // Returns true if a batch was started from queue `key` at `gpu`.
  bool TryStartBatch(int gpu, const QueueKey& key);
  void SendBatch(int gpu, std::vector<QueuedPacket> batch,
                 const PacketRoute& route);
  void HandleArrival(Packet packet, int slot_upstream);
  // Slab of packets on the wire: delivery events carry a 4-byte handle
  // instead of the packet itself, keeping the closure inside EventFn's
  // inline buffer. Freed handles are recycled LIFO.
  std::uint32_t InflightAlloc(const Packet& p) {
    inflight_payload_ += p.payload_bytes;
    if (!inflight_free_.empty()) {
      const std::uint32_t idx = inflight_free_.back();
      inflight_free_.pop_back();
      inflight_[idx] = p;
      return idx;
    }
    inflight_.push_back(p);
    return static_cast<std::uint32_t>(inflight_.size() - 1);
  }
  Packet InflightTake(std::uint32_t idx) {
    inflight_free_.push_back(idx);
    inflight_payload_ -= inflight_[idx].payload_bytes;
    return inflight_[idx];
  }
  void FreeRingSlot(int receiver, int upstream);
  // Ring-sync chains (DESIGN.md Sec 7, "Ring syncs of a busy sender").
  int RingIndex(int receiver, int upstream) const {
    return dense_[receiver] * static_cast<int>(gpus_.size()) +
           dense_[upstream];
  }
  int RingReceiver(int ring) const {
    return gpus_[ring / static_cast<int>(gpus_.size())];
  }
  int RingSender(int ring) const {
    return gpus_[ring % static_cast<int>(gpus_.size())];
  }
  // Counts a sync on `ring` at `when` unless one is in flight.
  bool BeginSync(int ring, sim::SimTime when);
  // Counts `n` syncs on `ring`, at `first` and then one per `period`.
  void CountSyncs(int ring, sim::SimTime first, std::uint64_t n,
                  sim::SimTime period);
  // A sender found `ring`'s view empty: starts a chain unless a sync is
  // in flight.
  void StartRingSync(int ring);
  void ScheduleStep(int id);
  // Runs chain `id`'s next step as an event, or suspends the chain if
  // its sender is busy.
  void RunChainStep(int id);
  // Applies chain `id`'s next step, at `at`, to its ring and chain: a
  // sync completion refreshes the sender's view and counts towards the
  // escape valve, a poll starts the next sync. Both a dispatched step
  // and a settled one run it. False if the chain ended.
  bool ApplyStep(int id, sim::SimTime at);
  bool HasQueuedPackets(const GpuState& gs) const;
  // Every DMA engine busy and packets queued: until an engine is
  // released, a sync step can only move the ring's counters.
  bool SenderBusy(const GpuState& gs) const {
    return gs.busy_engines >= options_.dma_engines && HasQueuedPackets(gs);
  }
  // At an engine release of `sender`, before the engine is freed: applies
  // the suspended chains' steps due by now, ring by ring.
  void SettleSyncs(int sender);
  void SettleRing(int ring);
  // Applies, by counting, the steps up to `through` of a stable ring's
  // suspended chains.
  void CountStableSteps(int ring, sim::SimTime through);
  // After the release's TryStartSends: schedules the suspended chains'
  // next steps, unless the sender is busy again.
  void ResumeSyncs(int sender);
  // Deadlock valve: re-routes `sender`'s transit packets blocked on the
  // ring at `receiver` to their direct routes.
  void EscapeBlockedPackets(int sender, int receiver, sim::SimTime when);
  // Fault handling (DESIGN.md Sec 10).
  void OnFaultEvent(const FaultEvent& ev);
  bool RemainingRouteAvailable(const Packet& p) const;
  std::uint64_t RepairTransitQueue(int gpu, int peer);
  void RepairStrandedTransit();
  void ScheduleFaultRetry(int gpu);
  // Re-runs TryStartSends(gpu) at `when` — posted when arbitration
  // pacing leaves a queue head ineligible with idle engines.
  void SchedulePaceWake(int gpu, sim::SimTime when);

  sim::Simulator* sim_;
  const topo::Topology* topo_;
  std::vector<int> gpus_;
  std::vector<int> dense_;  // gpu index -> position in gpus_
  RoutingPolicy* policy_;
  TransferOptions options_;
  obs::ObsHooks obs_;
  std::unique_ptr<obs::InvariantAuditor> owned_auditor_;
  LinkStateTable links_;

  // Pre-resolved metric handles: one registry lookup at construction,
  // none per packet/batch touch. Default-constructed (no-op) when
  // metrics are disabled.
  obs::CounterHandle m_batches_;
  obs::CounterHandle m_packet_hops_;
  obs::CounterHandle m_wire_bytes_;
  obs::CounterHandle m_packets_;
  obs::CounterHandle m_payload_bytes_;
  obs::CounterHandle m_ring_syncs_;
  obs::CounterHandle m_escapes_;
  obs::CounterHandle m_fault_aborts_;
  obs::CounterHandle m_fault_reroutes_;
  obs::CounterHandle m_fault_waits_;
  obs::GaugeHandle m_src_queue_depth_;
  obs::GaugeHandle m_ring_occupancy_;
  obs::GaugeHandle m_transit_queue_depth_;
  obs::HistogramHandle m_batch_packets_;

  // Flow bookkeeping is slab-style: `flows_` is the registry, parallel
  // arrays are indexed by the dense flow index that packets carry
  // (Packet::flow_idx). The id->index map exists only for duplicate
  // detection at registration time — no hot path touches it.
  std::vector<Flow> flows_;
  std::vector<std::uint64_t> flow_delivered_;  // parallel to flows_
  // Per-flow delivered-payload counters ("net.flow.q<id>.<phase>.
  // payload_bytes"), resolved at registration; parallel to flows_.
  std::vector<obs::CounterHandle> flow_payload_counters_;
  std::map<std::uint64_t, std::uint32_t> flow_index_;
  // Undelivered payload per query id: drives link-table tenant
  // registration (register on a query's first flow, deregister when its
  // last byte lands so fair-share stops charging for finished tenants).
  std::map<std::uint64_t, std::uint64_t> query_pending_;
  std::vector<Packet> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  std::vector<GpuState> gpu_states_;
  std::vector<RingLink> rings_;
  std::vector<SyncChain> chains_;
  std::vector<int> free_chains_;
  std::vector<sim::SimTime> first_s_scratch_;  // CountStableSteps
  std::vector<int> dma_tracks_;  // gpu-dense * dma_engines + slot
  std::vector<int> service_order_;  // TryStartSends scratch (queue idxs)
  int ring_track_ = -1;
  int fault_track_ = -1;
  int flow_track_ = -1;
  std::vector<char> fault_retry_pending_;  // per dense GPU index
  DeliverCallback deliver_cb_;

  bool started_ = false;
  bool first_available_seen_ = false;  // stats_.first_available is valid
  std::uint64_t pending_payload_ = 0;
  std::uint64_t inflight_payload_ = 0;  ///< payload bytes on the wire
  std::uint64_t next_packet_id_ = 0;
  sim::SimTime global_barrier_free_ = 0;  // centralized-policy serializer
  TransferStats stats_;
};

}  // namespace mgjoin::net

#endif  // MGJOIN_NET_TRANSFER_ENGINE_H_
