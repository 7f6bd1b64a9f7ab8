#include "net/transfer_engine.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/bitutil.h"
#include "common/logging.h"
#include "obs/telemetry.h"

namespace mgjoin::net {

namespace {

// Fixed per-batch cost of the CUDA framework (launch + descriptor).
constexpr sim::SimTime kBatchOverhead = 10 * sim::kMicrosecond;
// How long a sender blocked with no admissible route waits before
// re-checking. Only polled while further fault events are scheduled; a
// restore also re-kicks every sender immediately.
constexpr sim::SimTime kFaultRetryInterval = 200 * sim::kMicrosecond;
// Source-queue packets a tenant policy may look past a paced head when
// forming a batch (finite arbiter lookahead; mixed-tenant queues would
// otherwise head-of-line-block eligible queries). Unused under kFifo.
constexpr std::size_t kArbReorderWindow = 64;

}  // namespace

TransferEngine::TransferEngine(sim::Simulator* sim,
                               const topo::Topology* topo,
                               std::vector<int> gpus, RoutingPolicy* policy,
                               TransferOptions options)
    : sim_(sim),
      topo_(topo),
      gpus_(std::move(gpus)),
      policy_(policy),
      options_(options),
      obs_(options.obs),
      links_(sim, topo, options.obs) {
  MGJ_CHECK(!gpus_.empty());
  MGJ_CHECK(options_.packet_bytes > 0);
  MGJ_CHECK(options_.batch_packets > 0);
  dense_.assign(topo_->num_gpus(), -1);
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    MGJ_CHECK(gpus_[i] >= 0 && gpus_[i] < topo_->num_gpus());
    MGJ_CHECK(dense_[gpus_[i]] < 0) << "duplicate GPU " << gpus_[i];
    dense_[gpus_[i]] = static_cast<int>(i);
  }
  std::vector<bool> mask(topo_->num_gpus(), false);
  for (int g : gpus_) mask[g] = true;
  policy_->SetParticipants(std::move(mask));
  gpu_states_.resize(gpus_.size());
  for (GpuState& gs : gpu_states_) {
    gs.queues.resize(2 * gpus_.size());
    gs.engine_busy.assign(options_.dma_engines, 0);
  }
  rings_.resize(gpus_.size() * gpus_.size());
  // At least two slots: one general plus the reserved last-hop slot.
  const int slots = static_cast<int>(
      std::max<std::uint64_t>(2, options_.ring_buffer_bytes /
                                     options_.packet_bytes));
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    for (std::size_t j = 0; j < gpus_.size(); ++j) {
      RingLink& r = rings_[i * gpus_.size() + j];
      r.slots = slots;
      if (i != j) {
        r.sync_cost = 2 * topo_->ChannelLatency(
                              topo_->channel(gpus_[j], gpus_[i])) +
                      2 * sim::kMicrosecond;
      }
    }
  }
  // Parked ring syncs place their skipped steps against the events
  // that did run (DESIGN.md Sec 7).
  log_client_ = sim_->AddExecutionLogClient();
  dma_tracks_.assign(gpus_.size() * options_.dma_engines, -1);
  fault_retry_pending_.assign(gpus_.size(), 0);
  links_.set_arbitration(options_.arbitration);
  links_.set_fault_callback(
      [this](const FaultEvent& ev) { OnFaultEvent(ev); });
  if (obs_.auditor == nullptr) {
    owned_auditor_ = std::make_unique<obs::InvariantAuditor>();
    obs_.auditor = owned_auditor_.get();
  }
  RegisterAuditorChecks();
  ResolveMetricHandles();
  if (obs_.telemetry != nullptr) {
    obs_.telemetry->Attach(sim_);
    RegisterTelemetryProbes();
  }
}

void TransferEngine::ResolveMetricHandles() {
  obs::MetricsRegistry* m = obs_.metrics;
  m_batches_ = obs::MetricsRegistry::ResolveCounter(m, "net.batches");
  m_packet_hops_ = obs::MetricsRegistry::ResolveCounter(m, "net.packet_hops");
  m_wire_bytes_ = obs::MetricsRegistry::ResolveCounter(m, "net.wire_bytes");
  m_packets_ = obs::MetricsRegistry::ResolveCounter(m, "net.packets");
  m_payload_bytes_ =
      obs::MetricsRegistry::ResolveCounter(m, "net.payload_bytes");
  m_ring_syncs_ = obs::MetricsRegistry::ResolveCounter(m, "net.ring_syncs");
  m_escapes_ = obs::MetricsRegistry::ResolveCounter(m, "net.escapes");
  m_fault_aborts_ =
      obs::MetricsRegistry::ResolveCounter(m, "net.fault_aborts");
  m_fault_reroutes_ =
      obs::MetricsRegistry::ResolveCounter(m, "net.fault_reroutes");
  m_fault_waits_ = obs::MetricsRegistry::ResolveCounter(m, "net.fault_waits");
  m_src_queue_depth_ =
      obs::MetricsRegistry::ResolveGauge(m, "net.src_queue_depth");
  m_ring_occupancy_ =
      obs::MetricsRegistry::ResolveGauge(m, "net.ring_occupancy");
  m_transit_queue_depth_ =
      obs::MetricsRegistry::ResolveGauge(m, "net.transit_queue_depth");
  m_batch_packets_ =
      obs::MetricsRegistry::ResolveHistogram(m, "net.batch_packets");
}

void TransferEngine::RegisterTelemetryProbes() {
  obs::TelemetrySampler* t = obs_.telemetry;
  t->AddProbe("net.inflight_bytes", [this] { return inflight_payload_; });
  t->AddProbe("net.pending_bytes", [this] { return pending_payload_; });
  for (int g : gpus_) {
    t->AddProbe("net.gpu" + std::to_string(g) + ".queued_packets",
                [this, g] {
                  const GpuState& gs = gpu_states_[dense_[g]];
                  std::uint64_t n = 0;
                  for (const RingDeque<QueuedPacket>& q : gs.queues) {
                    n += q.size();
                  }
                  return n;
                });
  }
}

void TransferEngine::RegisterAuditorChecks() {
  obs::InvariantAuditor* a = obs_.auditor;
  a->set_dump_fn([this] {
    if (!catching_up_) CatchUp(-1, CurrentPos());
    return DebugDump();
  });
  a->set_done_fn([this] { return AllDone(); });
  a->set_progress_fn([this] {
    CatchUp(-1, CurrentPos());
    // Any of these moving means the fabric is not wedged. Fault-retry
    // polls count as progress: a sender waiting out a link outage with a
    // restore still scheduled is healthy, not deadlocked (the polls stop
    // once no fault event is pending, so a truly stranded fabric still
    // trips the watchdog).
    return stats_.payload_bytes + stats_.packet_hops + stats_.escapes +
           stats_.fault_waits;
  });
  a->AddCheck("ring_slot_accounting", [this]() -> std::string {
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
      for (std::size_t j = 0; j < gpus_.size(); ++j) {
        const RingLink& rl = rings_[i * gpus_.size() + j];
        if (rl.freed > rl.claimed) {
          return "ring[recv=" + std::to_string(gpus_[i]) + ",up=" +
                 std::to_string(gpus_[j]) +
                 "] freed " + std::to_string(rl.freed) + " > claimed " +
                 std::to_string(rl.claimed);
        }
        if (rl.claimed - rl.freed >
            static_cast<std::uint64_t>(rl.slots)) {
          return "ring[recv=" + std::to_string(gpus_[i]) + ",up=" +
                 std::to_string(gpus_[j]) + "] overclaimed: " +
                 std::to_string(rl.claimed - rl.freed) + " in flight > " +
                 std::to_string(rl.slots) + " slots";
        }
        if (rl.freed_view > rl.freed) {
          return "ring[recv=" + std::to_string(gpus_[i]) + ",up=" +
                 std::to_string(gpus_[j]) + "] freed_view " +
                 std::to_string(rl.freed_view) + " ahead of freed " +
                 std::to_string(rl.freed);
        }
      }
    }
    return "";
  });
  a->AddCheck("payload_conservation", [this]() -> std::string {
    std::uint64_t registered = 0;
    for (const Flow& f : flows_) registered += f.bytes;
    if (stats_.payload_bytes + pending_payload_ != registered) {
      return "delivered " + std::to_string(stats_.payload_bytes) +
             " + pending " + std::to_string(pending_payload_) +
             " != registered " + std::to_string(registered);
    }
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (flow_delivered_[i] > flows_[i].bytes) {
        return "flow " + std::to_string(flows_[i].id) + " overdelivered: " +
               std::to_string(flow_delivered_[i]) + " > " +
               std::to_string(flows_[i].bytes);
      }
    }
    return "";
  });
  a->AddCheck("wire_at_least_payload", [this]() -> std::string {
    if (stats_.wire_bytes < stats_.payload_bytes) {
      return "wire_bytes " + std::to_string(stats_.wire_bytes) +
             " < payload_bytes " + std::to_string(stats_.payload_bytes);
    }
    return "";
  });
}

int TransferEngine::DmaTrack(int gpu, int slot) {
  int& track =
      dma_tracks_[static_cast<std::size_t>(dense_[gpu]) *
                      options_.dma_engines +
                  slot];
  if (track < 0) {
    track = obs_.trace->Track("gpu" + std::to_string(gpu) + ".dma" +
                              std::to_string(slot));
  }
  return track;
}

void TransferEngine::CorruptRingForTest(int receiver, int upstream,
                                        std::uint64_t extra_claims) {
  ring(receiver, upstream).claimed += extra_claims;
}

void TransferEngine::AddFlow(const Flow& flow) {
  MGJ_CHECK(flow.src_gpu != flow.dst_gpu);
  MGJ_CHECK(dense_[flow.src_gpu] >= 0 && dense_[flow.dst_gpu] >= 0)
      << "flow endpoints must participate";
  if (flow.bytes == 0) return;
  MGJ_CHECK(flow_index_
                .emplace(flow.id, static_cast<std::uint32_t>(flows_.size()))
                .second)
      << "duplicate flow id " << flow.id;
  flows_.push_back(flow);
  // Complete the attribution tag so telemetry and metrics never see a
  // half-filled one: endpoints from the flow itself, phase "flow" when
  // the caller did not name one.
  Flow& f = flows_.back();
  if (f.tag.phase.empty()) f.tag.phase = "flow";
  if (f.tag.src < 0) f.tag.src = f.src_gpu;
  if (f.tag.dst < 0) f.tag.dst = f.dst_gpu;
  flow_delivered_.push_back(0);
  flow_payload_counters_.push_back(obs::MetricsRegistry::ResolveCounter(
      obs_.metrics,
      "net.flow." + f.tag.MetricComponent() + ".payload_bytes"));
  pending_payload_ += f.bytes;
  // Tenant bookkeeping: the query becomes an arbitration participant
  // with its first flow and stays one until its last byte is delivered.
  auto [qit, fresh_query] = query_pending_.try_emplace(f.tag.query_id, 0);
  if (fresh_query) links_.RegisterQuery(f.tag.query_id, f.priority);
  qit->second += f.bytes;
  // Dynamic admission: a service layer keeps feeding queries into a
  // running engine; their availability events schedule right away.
  if (started_) {
    MGJ_CHECK(f.available_at >= sim_->Now())
        << "post-start flow available in the past";
    ActivateFlow(static_cast<std::uint32_t>(flows_.size() - 1));
  }
}

void TransferEngine::Start() {
  MGJ_CHECK(!started_);
  started_ = true;
  if (!options_.faults.empty()) links_.ApplyFaultPlan(options_.faults);
  for (std::uint32_t idx = 0; idx < flows_.size(); ++idx) {
    ActivateFlow(idx);
  }
  if (!first_available_seen_) stats_.first_available = sim_->Now();
}

void TransferEngine::ActivateFlow(std::uint32_t idx) {
  // StartWatchdog is idempotent while armed and re-arms after an idle
  // drain, so a service admitting queries in bursts keeps deadlock
  // detection alive across the gaps.
  obs_.auditor->StartWatchdog(sim_);
  // Closures capture the dense flow index, not the Flow: flows_ only
  // grows, so indices stay valid, and the small capture fits EventFn's
  // inline buffer.
  const Flow& f = flows_[idx];
  stats_.first_available = first_available_seen_
                               ? std::min(stats_.first_available,
                                          f.available_at)
                               : f.available_at;
  first_available_seen_ = true;
  if (obs_.telemetry != nullptr) {
    obs_.telemetry->AddFlowProbe(
        f.tag, "delivered_bytes",
        [this, idx] { return flow_delivered_[idx]; });
  }
  if (obs_.trace != nullptr) {
    // One registration instant per flow maps flow_id -> FlowTag in
    // the trace, making every later net.* event (batch spans carry
    // the flow and query ids) attributable per flow and per phase.
    if (flow_track_ < 0) flow_track_ = obs_.trace->Track("net.flows");
    obs_.trace->Instant(flow_track_, "flow", f.tag.phase, f.available_at,
                        {{"flow", f.id},
                         {"query", f.tag.query_id},
                         {"src", static_cast<std::uint64_t>(f.tag.src)},
                         {"dst", static_cast<std::uint64_t>(f.tag.dst)},
                         {"bytes", f.bytes}});
  }
  const std::uint64_t num_packets = CeilDiv(f.bytes, options_.packet_bytes);
  if (f.generation_rate <= 0.0) {
    sim_->ScheduleAt(f.available_at, [this, idx, num_packets] {
      InjectPackets(idx, 0, num_packets);
    });
    return;
  }
  // Progressive generation: packets become available in batch-sized
  // groups as the producing kernel emits them.
  const std::uint64_t group =
      static_cast<std::uint64_t>(options_.batch_packets);
  for (std::uint64_t first = 0; first < num_packets; first += group) {
    const std::uint64_t count = std::min(group, num_packets - first);
    const double produced_bytes = static_cast<double>(
        std::min(f.bytes, (first + count) * options_.packet_bytes));
    const sim::SimTime when =
        f.available_at + sim::FromSeconds(produced_bytes / f.generation_rate);
    sim_->ScheduleAt(when, [this, idx, first, count] {
      InjectPackets(idx, first, count);
    });
  }
}

void TransferEngine::InjectPackets(std::uint32_t flow_idx,
                                   std::uint64_t first_packet,
                                   std::uint64_t num_packets) {
  const Flow& flow = flows_[flow_idx];
  GpuState& gs = gpu_state(flow.src_gpu);
  RingDeque<QueuedPacket>& queue = queue_at(gs, false, flow.dst_gpu);
  for (std::uint64_t i = 0; i < num_packets; ++i) {
    const std::uint64_t offset =
        (first_packet + i) * options_.packet_bytes;
    const std::uint32_t payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(options_.packet_bytes, flow.bytes - offset));
    Packet p;
    p.id = next_packet_id_++;
    p.flow_id = flow.id;
    p.flow_idx = flow_idx;
    p.payload_bytes = payload;
    p.hop = 0;
    // Route assigned when the batch is formed.
    queue.push_back(QueuedPacket{p, -1});
  }
  m_src_queue_depth_.Set(queue.size());
  TryStartSends(flow.src_gpu);
}

void TransferEngine::TryStartSends(int gpu) {
  GpuState& gs = gpu_state(gpu);
  const int g = static_cast<int>(gpus_.size());
  while (gs.busy_engines < options_.dma_engines) {
    // Deterministic longest-queue-first service order (the weighted
    // round-robin of Sec 4.1 weights queues by their backlog share; the
    // longest queue is the one WRR would serve most).
    service_order_.clear();
    for (int qi = 0; qi < 2 * g; ++qi) {
      if (!gs.queues[qi].empty()) service_order_.push_back(qi);
    }
    if (service_order_.empty()) return;
    std::sort(service_order_.begin(), service_order_.end(),
              [&](int a, int b) {
                const auto sa = gs.queues[a].size();
                const auto sb = gs.queues[b].size();
                if (sa != sb) return sa > sb;
                // Tie-break replicates the old map key order: source
                // queues before transit, then peer gpu id ascending
                // (the slab's dense order follows gpus_, which need
                // not be id-sorted).
                const bool ta = a >= g;
                const bool tb = b >= g;
                if (ta != tb) return tb;
                return gpus_[a % g] < gpus_[b % g];
              });
    bool any = false;
    for (int qi : service_order_) {
      if (TryStartBatch(gpu, QueueKey{qi >= g, gpus_[qi % g]})) {
        any = true;
        break;
      }
    }
    if (!any) return;
  }
}

bool TransferEngine::TryStartBatch(int gpu, const QueueKey& key) {
  GpuState& gs = gpu_state(gpu);
  RingDeque<QueuedPacket>& queue = queue_at(gs, key.transit, key.peer);
  if (queue.empty()) return false;

  PacketRoute route;
  if (key.transit) {
    route = queue.front().packet.route;
  } else {
    const topo::Route& chosen = policy_->ChooseRoute(
        gpu, key.peer, options_.packet_bytes,
        static_cast<int>(
            std::min<std::size_t>(queue.size(),
                                  static_cast<std::size_t>(
                                      options_.batch_packets))),
        links_);
    MGJ_CHECK(chosen.gpus.front() == gpu && chosen.gpus.back() == key.peer)
        << "policy returned foreign route " << chosen.ToString();
    for (int hop : chosen.gpus) {
      MGJ_CHECK(dense_[hop] >= 0)
          << "policy routed through non-participant GPU " << hop;
    }
    // Fault gate: the policy returns an unusable route only when faults
    // left no admissible alternative (e.g. the fabric is partitioned
    // until a restore). Hold the queue; a fault event or the retry poll
    // revisits it.
    if (!links_.RouteAvailable(chosen)) {
      ScheduleFaultRetry(gpu);
      return false;
    }
    route = chosen;
  }

  const int hop_index = key.transit ? queue.front().packet.hop : 0;
  const int first_hop = route[hop_index + 1];
  if (key.transit &&
      !links_.ChannelAvailable(topo_->channel(gpu, first_hop))) {
    // The fixed next hop is down. The fault sweep re-paths queued
    // packets when a link dies, but packets re-queued by an aborted
    // batch (or arriving after the sweep) can still face a dead hop
    // here. Repair them onto surviving routes; with none, wait.
    if (RepairTransitQueue(gpu, key.peer) > 0) {
      // The repaired packets now live in other queues of this GPU;
      // re-enter the scheduler fresh rather than mutating the service
      // order mid-iteration.
      sim_->Schedule(0, [this, gpu] { TryStartSends(gpu); });
    } else {
      ScheduleFaultRetry(gpu);
    }
    return false;
  }
  const bool last_hop = hop_index + 2 == route.size();
  // Arbitration gate (DESIGN.md Sec 15): a tenant policy may pace a
  // packet's query on the first wire of this channel. Queues mix
  // tenants, so a paced head must not head-of-line-block an eligible
  // query behind it: source queues scan a bounded reorder window (like
  // a hardware arbiter's finite lookahead) and rotate the paced prefix
  // to the back; transit queues — minority traffic, grouped by route —
  // stay strictly FIFO. When nothing in the window is eligible the
  // queue is skipped (other queues still get served) and a wake is
  // posted for the earliest release seen.
  const topo::LinkDir pace_dir = topo_->channel(gpu, first_hop).path[0];
  if (links_.arbitration() != ArbitrationKind::kFifo) {
    const sim::SimTime arb_now = sim_->Now();
    if (key.transit) {
      const sim::SimTime release = links_.QueryReleaseTime(
          flows_[queue.front().packet.flow_idx].tag.query_id, pace_dir);
      if (release > arb_now) {
        ++stats_.arb_paces;
        SchedulePaceWake(gpu, release);
        return false;
      }
    } else {
      const std::size_t window =
          std::min<std::size_t>(queue.size(), kArbReorderWindow);
      std::size_t skip = 0;
      sim::SimTime earliest = 0;
      while (skip < window) {
        const sim::SimTime release = links_.QueryReleaseTime(
            flows_[queue[skip].packet.flow_idx].tag.query_id, pace_dir);
        if (release <= arb_now) break;
        if (earliest == 0 || release < earliest) earliest = release;
        ++skip;
      }
      if (skip == window) {
        ++stats_.arb_paces;
        if (earliest != 0) SchedulePaceWake(gpu, earliest);
        return false;
      }
      for (std::size_t i = 0; i < skip; ++i) {
        queue.push_back(queue.front());
        queue.pop_front();
      }
    }
  }
  if (!ring(first_hop, gpu).parked.empty()) {
    // Parked syncs of this ring that ran before now (a release is the
    // only event that forms batches while chains are parked).
    CatchUp(gpu, CurrentPos(), RingIndex(first_hop, gpu));
  }
  RingLink& rl = ring(first_hop, gpu);
  if (rl.FreeViewFor(last_hop) < 1) {
    StartRingSync(RingIndex(first_hop, gpu));
    return false;
  }

  // Form the batch: consecutive head packets that share the route, capped
  // by the batch size and by the slots we can claim. A packet whose
  // query is paced into the future ends the batch — its wake fires when
  // the engine may inject for that query again.
  const int max_take = std::min<int>(
      options_.batch_packets, rl.FreeViewFor(last_hop));
  std::vector<QueuedPacket> batch;
  batch.reserve(max_take);
  while (!queue.empty() && static_cast<int>(batch.size()) < max_take) {
    const QueuedPacket& head = queue.front();
    if (key.transit &&
        !(head.packet.route == route && head.packet.hop == hop_index)) {
      break;
    }
    if (!batch.empty() &&
        links_.QueryReleaseTime(flows_[head.packet.flow_idx].tag.query_id,
                                pace_dir) > sim_->Now()) {
      break;
    }
    batch.push_back(head);
    queue.pop_front();
  }
  MGJ_CHECK(!batch.empty());
  if (!key.transit) {
    for (QueuedPacket& qp : batch) {
      qp.packet.route = route;
      qp.packet.hop = 0;
    }
  }
  rl.claimed += batch.size();
  rl.failed_polls = 0;  // the ring made progress
  m_ring_occupancy_.Set(rl.claimed - rl.freed);
  SendBatch(gpu, std::move(batch), route);
  return true;
}

void TransferEngine::SendBatch(int gpu, std::vector<QueuedPacket> batch,
                               const PacketRoute& route) {
  GpuState& gs = gpu_state(gpu);
  ++gs.busy_engines;
  ++stats_.batches;
  m_batches_.Add(1);
  m_batch_packets_.Observe(batch.size());
  // Pin the batch to a DMA engine slot so its busy span lands on a
  // stable per-engine trace track.
  int slot = 0;
  while (slot < options_.dma_engines && gs.engine_busy[slot]) ++slot;
  MGJ_CHECK(slot < options_.dma_engines);
  gs.engine_busy[slot] = 1;

  sim::SimTime start_at = sim_->Now() + kBatchOverhead;
  if (policy_->SerializesGlobally() && !options_.zero_control_overhead) {
    // MGJ-Baseline: every batch passes through a global barrier; the
    // whole machine serializes on the coordinator.
    const sim::SimTime cost = policy_->ControlOverheadPerBatch(
        static_cast<int>(gpus_.size()));
    global_barrier_free_ = std::max(global_barrier_free_, sim_->Now()) + cost;
    stats_.control_overhead += cost;
    start_at = std::max(start_at, global_barrier_free_);
  }

  const int hop_index = batch.front().packet.hop;
  const int next = route[hop_index + 1];
  sim_->ScheduleAt(start_at, [this, gpu, next, slot,
                              batch = std::move(batch)]() mutable {
    const topo::Channel& ch = topo_->channel(gpu, next);
    if (!links_.ChannelAvailable(ch)) {
      // The next hop died between batch formation and wire time. Unwind
      // the claim, return the packets to their queue heads and release
      // the engine; the repair/retry path re-paths them.
      CatchUp(gpu, CurrentPos());
      RingLink& rl = ring(next, gpu);
      MGJ_CHECK(rl.claimed >= batch.size());
      rl.claimed -= batch.size();
      ++stats_.fault_aborts;
      m_fault_aborts_.Add(1);
      GpuState& gs = gpu_state(gpu);
      for (auto rit = batch.rbegin(); rit != batch.rend(); ++rit) {
        QueuedPacket& qp = *rit;
        if (qp.slot_upstream < 0) {
          // Source packet: the route is re-chosen at the next batch
          // formation.
          const int dst = qp.packet.final_dst();
          qp.packet.route.Clear();
          qp.packet.hop = 0;
          queue_at(gs, false, dst).push_front(std::move(qp));
        } else {
          queue_at(gs, true, qp.packet.next_gpu())
              .push_front(std::move(qp));
        }
      }
      --gs.busy_engines;
      gs.engine_busy[slot] = 0;
      obs_.auditor->Poke();
      ScheduleFaultRetry(gpu);
      TryStartSends(gpu);
      RecheckParking(gpu, CurrentPos());
      return;
    }
    const sim::SimTime send_start = sim_->Now();
    sim::SimTime engine_free = send_start;
    for (QueuedPacket& qp : batch) {
      const LinkStateTable::Reservation res = links_.ReserveChannel(
          ch, qp.packet.wire_bytes(),
          flows_[qp.packet.flow_idx].tag.query_id);
      engine_free = res.end;
      ++stats_.packet_hops;
      stats_.wire_bytes += qp.packet.payload_bytes;
      m_packet_hops_.Add(1);
      m_wire_bytes_.Add(qp.packet.payload_bytes);
      // Transit packets release their upstream ring slot once the data
      // has left this GPU.
      if (qp.slot_upstream >= 0) {
        const int upstream = qp.slot_upstream;
        sim_->ScheduleAt(res.end, [this, gpu, upstream] {
          FreeRingSlot(gpu, upstream);
        });
      }
      // The packet rides the wire in the in-flight slab; the delivery
      // event carries only its 4-byte handle.
      const std::uint32_t pidx = InflightAlloc(qp.packet);
      sim_->ScheduleAt(res.deliver, [this, pidx, gpu] {
        HandleArrival(InflightTake(pidx), gpu);
      });
    }
    if (obs_.trace != nullptr) {
      obs_.trace->Span(
          DmaTrack(gpu, slot), "net", "batch", send_start, engine_free,
          {{"dst", static_cast<std::uint64_t>(next)},
           {"packets", batch.size()},
           {"flow", batch.front().packet.flow_id},
           {"query",
            flows_[batch.front().packet.flow_idx].tag.query_id}});
    }
    sim_->ScheduleAt(engine_free, [this, gpu, slot] {
      // Rings catch up as TryStartBatch reads them; escapes that moved
      // packets must precede the service order's queue lengths.
      CatchUpEscapes(gpu, CurrentPos(), -1);
      GpuState& gs = gpu_state(gpu);
      --gs.busy_engines;
      gs.engine_busy[slot] = 0;
      TryStartSends(gpu);
      RecheckParking(gpu, CurrentPos());
      MaybeTrimLog(CurrentPos());
    });
  });
}

void TransferEngine::HandleArrival(Packet packet, int from_gpu) {
  obs_.auditor->ObserveTime(sim_->Now());
  obs_.auditor->Poke();
  const int here = packet.route[packet.hop + 1];
  if (here == packet.final_dst()) {
    ++stats_.packets;
    ++packet.hop;  // count the completed hop
    stats_.payload_bytes += packet.payload_bytes;
    flow_delivered_[packet.flow_idx] += packet.payload_bytes;
    m_packets_.Add(1);
    m_payload_bytes_.Add(packet.payload_bytes);
    flow_payload_counters_[packet.flow_idx].Add(packet.payload_bytes);
    MGJ_CHECK(pending_payload_ >= packet.payload_bytes);
    pending_payload_ -= packet.payload_bytes;
    const std::uint64_t qid = flows_[packet.flow_idx].tag.query_id;
    const auto qit = query_pending_.find(qid);
    MGJ_CHECK(qit != query_pending_.end() &&
              qit->second >= packet.payload_bytes)
        << "per-query pending underflow, query " << qid;
    qit->second -= packet.payload_bytes;
    if (qit->second == 0) {
      // Last byte of the query landed: end its arbitration tenancy so
      // fair-share stops charging the survivors for a finished tenant.
      query_pending_.erase(qit);
      links_.UnregisterQuery(qid);
    }
    stats_.last_delivery = std::max(stats_.last_delivery, sim_->Now());
    if (pending_payload_ == 0 && obs_.telemetry != nullptr) {
      // Final snapshot: the last delivery rarely lands on a grid point,
      // so force one to capture end-of-run totals for every series.
      obs_.telemetry->SampleNow(sim_->Now());
    }
    if (deliver_cb_) {
      deliver_cb_(packet, sim_->Now());
    }
    // The routing slot frees once the payload is unpacked into the local
    // partitioning pipeline.
    sim_->Schedule(options_.unpack_delay, [this, here, from_gpu] {
      FreeRingSlot(here, from_gpu);
    });
    return;
  }
  // Forward: this GPU is an intermediate hop. The packet keeps occupying
  // the routing buffer slot (tracked via slot_upstream) until it is
  // transmitted onward.
  ++packet.hop;
  GpuState& gs = gpu_state(here);
  // A fault may have taken a later hop down while this packet was on the
  // wire; re-path it now rather than queueing it toward a dead hop.
  if (!RemainingRouteAvailable(packet)) {
    const int dst = packet.final_dst();
    const topo::Route& alt =
        policy_->ChooseRoute(here, dst, options_.packet_bytes, 1, links_);
    if (links_.RouteAvailable(alt)) {
      packet.route = alt;
      packet.hop = 0;
      ++stats_.fault_reroutes;
      m_fault_reroutes_.Add(1);
    }
  }
  const StepPos pos = CurrentPos();
  CatchUpEscapes(here, pos, RingIndex(packet.next_gpu(), here));
  RingDeque<QueuedPacket>& queue = queue_at(gs, true, packet.next_gpu());
  queue.push_back(QueuedPacket{packet, from_gpu});
  m_transit_queue_depth_.Set(queue.size());
  TryStartSends(here);
  RecheckParking(here, pos);
}

void TransferEngine::FreeRingSlot(int receiver, int upstream) {
  RingLink& rl = ring(receiver, upstream);
  if (!rl.parked.empty()) {
    const StepPos pos = CurrentPos();
    rl.late_frees.emplace_back(pos.at, pos.key);
  }
  ++rl.freed;
  MGJ_CHECK(rl.freed <= rl.claimed);
  obs_.auditor->Poke();
}

// ---------------------------------------------------------------------------
// Ring-sync chains. Each sync is a chain of two steps: the sync
// completion S (`sync_cost` after the sync starts) and a poll P
// (`poll_interval` after S), which starts the next sync while the sender
// has queued packets. While every DMA engine of the sender is busy, a
// step can only move the ring's counters, so the chain parks: its steps
// are applied lazily, in exact (time, key) order, by the next event that
// could see them (DESIGN.md Sec 7, "Parked ring syncs").

bool TransferEngine::BeginSync(int ring_idx, sim::SimTime when) {
  RingLink& rl = rings_[ring_idx];
  if (rl.sync_pending) return false;
  rl.sync_pending = true;
  ++stats_.ring_syncs;
  m_ring_syncs_.Add(1);
  if (obs_.trace != nullptr) {
    if (ring_track_ < 0) ring_track_ = obs_.trace->Track("net.rings");
    obs_.trace->Instant(
        ring_track_, "ring", "sync", when,
        {{"recv", static_cast<std::uint64_t>(RingReceiver(ring_idx))},
         {"up", static_cast<std::uint64_t>(RingSender(ring_idx))}});
  }
  return true;
}

void TransferEngine::StartRingSync(int ring_idx) {
  if (!BeginSync(ring_idx, sim_->Now())) return;
  int id;
  if (free_chains_.empty()) {
    id = static_cast<int>(chains_.size());
    chains_.emplace_back();
    chain_pos_.emplace_back();
  } else {
    id = free_chains_.back();
    free_chains_.pop_back();
  }
  chains_[id] = SyncChain{};
  chains_[id].ring = ring_idx;
  if (chain_birth_.size() < chains_.size()) chain_birth_.resize(chains_.size());
  chain_birth_[id] = sim_->next_key();
  rings_[ring_idx].stable = false;
  // The sender has a free engine here, so the first step is an event.
  ContinueChain(id, /*poll=*/false,
                sim_->Now() + rings_[ring_idx].sync_cost, CurrentPos());
}

TransferEngine::StepPos TransferEngine::CurrentPos() const {
  StepPos pos;
  pos.at = sim_->Now();
  // Outside dispatch (after Run) every step up to now is in the past.
  pos.key = sim_->in_event() ? sim_->current_key()
                             : std::numeric_limits<std::uint64_t>::max();
  return pos;
}

bool TransferEngine::PosBefore(const StepPos& a, const StepPos& b,
                               std::uint64_t* lockstep_ties) {
  if (a.at != b.at) return a.at < b.at;
  if (a.key != b.key) return a.key < b.key;
  // Same odd key at one instant: both were scheduled between the same
  // two plain pushes, so their predecessors' order decides: by time
  // (keys grow with time), then by position.
  if (a.parent_at != b.parent_at) return a.parent_at < b.parent_at;
  if (a.parent_key != b.parent_key) return a.parent_key < b.parent_key;
  if (a.grand_at != b.grand_at) return a.grand_at < b.grand_at;
  // Three equal levels: two chains in lockstep (same sync cost, same
  // phase), whose order never changes.
  // Chains of one sender carry a rank fixed when they parked; otherwise
  // the order they started in decides.
  if (a.gpu == b.gpu && a.rank != b.rank) return a.rank < b.rank;
  ++*lockstep_ties;
  return a.birth_key < b.birth_key;
}

bool TransferEngine::HasQueuedPackets(const GpuState& gs) const {
  for (const RingDeque<QueuedPacket>& q : gs.queues) {
    if (!q.empty()) return true;
  }
  return false;
}

bool TransferEngine::Parkable(int sender, int ring_idx) const {
  const GpuState& gs = gpu_states_[dense_[sender]];
  if (gs.busy_engines < options_.dma_engines || !HasQueuedPackets(gs)) {
    return false;
  }
  if (options_.faults.empty()) return true;
  // An escape that has to re-route (its direct link is down) asks the
  // policy, which reads link state at that instant: such a sync runs as
  // an event.
  const int receiver = RingReceiver(ring_idx);
  const RingDeque<QueuedPacket>& q =
      gs.queues[gpus_.size() + dense_[receiver]];
  for (std::size_t n = 0; n < q.size(); ++n) {
    const int dst = q[n].packet.final_dst();
    if (dst != receiver &&
        !links_.ChannelAvailable(topo_->channel(sender, dst))) {
      return false;
    }
  }
  return true;
}

void TransferEngine::RunChainStep(int id, const StepPos& at_pos) {
  StepPos pos = at_pos;
  const int ring_idx = chains_[id].ring;
  const bool poll = chains_[id].poll_next;
  const int sender = RingSender(ring_idx);
  if (pos.key % 2 == 0) {
    // A dispatched event: its predecessor ran one step delay earlier.
    pos.parent_at = pos.at - StepDelay(ring_idx, poll);
  }
  CatchUp(sender, pos, ring_idx);
  CatchUpEscapes(sender, pos, -1);
  // Keep polling while the sender still has queued traffic.
  if (poll && !HasQueuedPackets(gpu_state(sender))) {
    rings_[ring_idx].stable = false;
    free_chains_.push_back(id);
    return;
  }
  const bool alive = ApplyStep(id, pos.at);
  if (!poll && rings_[ring_idx].FreeViewFor(true) >= 1) TryStartSends(sender);
  if (alive) {
    ContinueChain(id, chains_[id].poll_next, chains_[id].next_at, pos);
  }
  if (poll) {
    TryStartSends(sender);
  } else if (!options_.faults.empty()) {
    RecheckParking(sender, pos);
  }
  MaybeTrimLog(pos);
}

bool TransferEngine::ApplyStep(int id, sim::SimTime at) {
  SyncChain& c = chains_[id];
  const int ring_idx = c.ring;
  RingLink& r = rings_[ring_idx];
  if (c.poll_next) {
    if (!BeginSync(ring_idx, at)) {
      // Another chain's sync is in flight.
      c.parked = false;
      r.stable = false;
      free_chains_.push_back(id);
      return false;
    }
    c.poll_next = false;
    c.next_at = at + r.sync_cost;
    return true;
  }
  // A parked step's sender is busy: its TryStartSends is a no-op, and its
  // escape moves packets only along direct routes.
  const bool kick = !c.parked;
  r.sync_pending = false;
  r.freed_view = kick ? r.freed : FreedAt(id, at);
  c.poll_next = true;
  c.next_at = at + options_.poll_interval;
  // Count the poll; TryStartBatch resets the counter when the ring
  // actually accepts a batch, so a sender that keeps waking without
  // progressing (e.g. transit traffic starved behind the reserved
  // last-hop slot) still reaches the escape valve.
  ++r.failed_polls;
  if (r.failed_polls >= options_.escape_poll_threshold) {
    r.failed_polls = 0;
    // Last: a kicked sender may start chains, moving chains_.
    EscapeBlockedPackets(RingSender(ring_idx), RingReceiver(ring_idx), at,
                         kick);
  }
  return true;
}

void TransferEngine::ContinueChain(int id, bool poll, sim::SimTime when,
                                   const StepPos& pred) {
  chains_[id].poll_next = poll;
  const int ring_idx = chains_[id].ring;
  const int sender = RingSender(ring_idx);
  if (!Parkable(sender, ring_idx)) {
    chains_[id].parked = false;
    sim_->ScheduleAt(when, [this, id] { RunChainStep(id, CurrentPos()); });
    return;
  }
  // Park: the next step's position is the one a push now would get.
  SyncChain& c = chains_[id];
  c.parked = true;
  rings_[ring_idx].stable = false;
  c.next_at = when;
  StepPos& a = chain_pos_[id].anchor;
  a = StepPos{};
  a.at = when;
  a.key = sim_->next_key() - 1;
  a.parent_at = pred.at;
  a.parent_key = pred.key;
  a.grand_at = pred.parent_at;
  a.gpu = dense_[sender];
  a.birth_key = chain_birth_[id];
  AssignRank(id, pred);
  RingLink& rl = rings_[ring_idx];
  rl.parked.push_back(id);
  if (rl.parked.size() == 1 || when < rl.parked_min_at) {
    rl.parked_min_at = when;
  }
  GpuState& gs = gpu_state(sender);
  if (gs.parked++ == 0 || when < gs.parked_min_at) gs.parked_min_at = when;
}

void TransferEngine::AssignRank(int id, const StepPos& root) {
  // Chains of one sender in lockstep with this one have a step at the
  // park instant whose predecessor ran when the park event's did. Those
  // already applied sort before the park event, the others after.
  const int sender = RingSender(chains_[id].ring);
  const std::size_t g = gpus_.size();
  const auto sender_ring = [&](std::size_t r) -> RingLink& {
    return rings_[r * g + dense_[sender]];
  };
  // A ring that has not caught up to the park event may still hold a
  // step at its instant: catch up those whose step grid meets it.
  const sim::SimTime delay = root.at - root.parent_at;
  for (std::size_t r = 0; r < g; ++r) {
    bool lagging = false;
    for (int other : sender_ring(r).parked) {
      const SyncChain& o = chains_[other];
      if (o.next_at > root.at) continue;
      const sim::SimTime period =
          rings_[o.ring].sync_cost + options_.poll_interval;
      for (const bool poll : {false, true}) {
        const sim::SimTime first =
            o.poll_next == poll ? o.next_at
                                : o.next_at + StepDelay(o.ring, o.poll_next);
        lagging |= StepDelay(o.ring, poll) == delay && first <= root.at &&
                   (root.at - first) % period == 0;
      }
    }
    if (lagging) {
      CatchUp(sender, root, static_cast<int>(r * g) + dense_[sender]);
    }
  }
  std::uint64_t lo = 0;
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t r = 0; r < g; ++r) {
      for (int other : sender_ring(r).parked) {
        const SyncChain& o = chains_[other];
        const sim::SimTime next_parent =
            o.next_at - StepDelay(o.ring, o.poll_next);
        const sim::SimTime last_parent =
            next_parent - StepDelay(o.ring, !o.poll_next);
        if (next_parent == root.at && last_parent == root.parent_at) {
          lo = std::max(lo, chain_pos_[other].anchor.rank);
        }
        if (o.next_at == root.at && next_parent == root.parent_at) {
          hi = std::min(hi, chain_pos_[other].anchor.rank);
        }
      }
    }
    if (hi - lo >= 2) break;
    MGJ_CHECK(pass == 0 && lo < hi) << "inconsistent lockstep ranks";
    // Out of room: respace this sender's ranks, keeping their order.
    std::vector<int> order;
    for (std::size_t r = 0; r < g; ++r) {
      const std::vector<int>& ids = sender_ring(r).parked;
      order.insert(order.end(), ids.begin(), ids.end());
    }
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      return chain_pos_[a].anchor.rank < chain_pos_[b].anchor.rank;
    });
    for (std::size_t i = 0; i < order.size(); ++i) {
      chain_pos_[order[i]].anchor.rank = (i + 1) << 32;
    }
    lo = 0;
    hi = std::numeric_limits<std::uint64_t>::max();
  }
  chain_pos_[id].anchor.rank = lo + (hi - lo) / 2;
}

void TransferEngine::CatchUp(int sender, const StepPos& pos, int only_ring) {
  if (sender < 0) {
    for (int g : gpus_) CatchUp(g, pos);
    return;
  }
  GpuState& gs = gpu_state(sender);
  if (gs.parked == 0 || gs.parked_min_at > pos.at) return;
  const bool nested = catching_up_;
  catching_up_ = true;
  // Rings of one busy sender do not interact (their escapes move packets
  // along direct routes only), so each ring catches up on its own.
  if (only_ring >= 0) {
    // The sender's earliest parked step stays a lower bound.
    CatchUpRing(only_ring, pos);
  } else {
    gs.parked_min_at = std::numeric_limits<sim::SimTime>::max();
    const std::size_t g = gpus_.size();
    for (std::size_t r = 0; r < g; ++r) {
      const int idx = static_cast<int>(r * g) + dense_[sender];
      CatchUpRing(idx, pos);
      const RingLink& rl = rings_[idx];
      if (!rl.parked.empty()) {
        gs.parked_min_at = std::min(gs.parked_min_at, rl.parked_min_at);
      }
    }
  }
  catching_up_ = nested;
}

std::uint64_t TransferEngine::FreedAt(int id, sim::SimTime at) const {
  const RingLink& r = rings_[chains_[id].ring];
  std::uint64_t later = 0;
  for (auto it = r.late_frees.rbegin(); it != r.late_frees.rend(); ++it) {
    if (it->first < at) break;
    if (it->first > at) {
      ++later;
      continue;
    }
    // A free at the sync's own instant: compare positions.
    StepPos free_pos;
    free_pos.at = it->first;
    free_pos.key = it->second;
    std::uint64_t ties = 0;
    if (PosBefore(ParkedPos(id, at, false), free_pos, &ties)) {
      ++later;
    }
  }
  return r.freed - later;
}

void TransferEngine::CatchUpEscapes(int sender, const StepPos& pos,
                                    int ring_idx) {
  GpuState& gs = gpu_state(sender);
  if (gs.parked == 0 || gs.parked_min_at > pos.at) return;
  const std::size_t g = gpus_.size();
  const std::uint64_t thr = static_cast<std::uint64_t>(
      std::max(1, options_.escape_poll_threshold));
  for (std::size_t r = 0; r < g; ++r) {
    const int idx = static_cast<int>(r * g) + dense_[sender];
    const RingLink& rl = rings_[idx];
    if (rl.parked.empty() || rl.parked_min_at > pos.at) continue;
    if (idx != ring_idx && gs.queues[g + r].empty()) continue;
    // The threshold completion is the (thr - failed_polls)-th to come;
    // each parked chain completes at most one sync per period.
    const sim::SimTime period = rl.sync_cost + options_.poll_interval;
    sim::SimTime first_s = std::numeric_limits<sim::SimTime>::max();
    for (int id : rl.parked) {
      const SyncChain& c = chains_[id];
      first_s = std::min(first_s,
                         c.poll_next ? c.next_at + rl.sync_cost : c.next_at);
    }
    const std::uint64_t k = thr - static_cast<std::uint64_t>(rl.failed_polls);
    const sim::SimTime earliest =
        first_s + (k - 1) / rl.parked.size() * period;
    if (earliest <= pos.at) CatchUpRing(idx, pos);
  }
}

void TransferEngine::CatchUpRing(int ring_idx, const StepPos& pos) {
  // The ring's chains go in position order; they interact only through
  // sync_pending. All have the same period, so once a whole period
  // passes without a poll ending its chain, every later period repeats
  // it (the ring is `stable` until its set of chains changes) and its
  // steps can be counted instead of run.
  RingLink& r = rings_[ring_idx];
  if (r.parked.empty() || r.parked_min_at > pos.at) return;
  const int* ids = r.parked.data();
  const std::size_t n = r.parked.size();
  const sim::SimTime period = r.sync_cost + options_.poll_interval;
  bool ended = false;
  sim::SimTime window_end = 0;
  for (;;) {
    if (r.stable) ApplyStable(ids, n, pos.at);
    int first = -1;
    for (std::size_t k = 0; k < n; ++k) {
      const int id = ids[k];
      if (!chains_[id].parked) continue;
      if (first < 0 || chains_[id].next_at < chains_[first].next_at ||
          (chains_[id].next_at == chains_[first].next_at &&
           PosBefore(NextPos(id), NextPos(first), &parking_.lockstep_ties))) {
        first = id;
      }
    }
    if (first < 0) break;
    const sim::SimTime at = chains_[first].next_at;
    if (at > pos.at) break;
    if (at == pos.at) {
      if (!PosBefore(NextPos(first), pos, &parking_.lockstep_ties)) break;
      ++parking_.same_instant;
    } else if (window_end == 0) {
      window_end = at + period;
    } else if (at >= window_end) {
      r.stable = true;
      continue;
    }
    ++parking_.parked_steps;
    if (!ApplyStep(first, at)) {
      ended = true;
      window_end = 0;
    }
  }
  if (ended) {
    const std::size_t before = r.parked.size();
    r.parked.erase(std::remove_if(r.parked.begin(), r.parked.end(),
                                  [this](int id) { return !chains_[id].parked; }),
                   r.parked.end());
    gpu_state(RingSender(ring_idx)).parked -=
        static_cast<int>(before - r.parked.size());
  }
  r.parked_min_at = std::numeric_limits<sim::SimTime>::max();
  for (int id : r.parked) {
    r.parked_min_at = std::min(r.parked_min_at, chains_[id].next_at);
  }
  // Frees before `pos` are now seen by every parked step still to come.
  if (r.parked.empty()) {
    r.late_frees.clear();
  } else {
    std::size_t k = 0;
    while (k < r.late_frees.size() &&
           (r.late_frees[k].first < pos.at ||
            (r.late_frees[k].first == pos.at &&
             r.late_frees[k].second < pos.key))) {
      ++k;
    }
    r.late_frees.erase(r.late_frees.begin(), r.late_frees.begin() + k);
  }
}

void TransferEngine::ApplyStable(const int* ids, std::size_t n,
                                 sim::SimTime until) {
  // Every poll syncs and every sync completion clears the pending flag,
  // so each chain's steps before `until` only move counters: sync
  // completion k (0-based, in time order) is that of the chain with the
  // (k % m)-th earliest phase, in its (k / m)-th period; polls likewise.
  const int ring_idx = chains_[ids[0]].ring;
  RingLink& r = rings_[ring_idx];
  const sim::SimTime period = r.sync_cost + options_.poll_interval;
  // (first sync completion, first poll, chain) of each live chain.
  std::vector<std::tuple<sim::SimTime, sim::SimTime, int>>& phases =
      phase_scratch_;
  phases.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const SyncChain& c = chains_[ids[k]];
    if (!c.parked) continue;
    phases.emplace_back(c.poll_next ? c.next_at + r.sync_cost : c.next_at,
                        c.poll_next ? c.next_at
                                    : c.next_at + options_.poll_interval,
                        ids[k]);
  }
  const auto count = [&](sim::SimTime first) -> std::uint64_t {
    // Usually zero to two steps: avoid the division.
    if (first >= until) return 0;
    if (until - first <= period) return 1;
    if (until - first <= 2 * period) return 2;
    return (until - 1 - first) / period + 1;
  };
  std::uint64_t n_s = 0;
  std::uint64_t n_p = 0;
  for (const auto& [s, p, id] : phases) {
    n_s += count(s);
    n_p += count(p);
  }
  if (n_s + n_p == 0) return;
  const std::uint64_t m = phases.size();
  parking_.parked_steps += n_s + n_p;
  sim::SimTime last_s = 0;
  // Phases sorted by first sync completion; the polls' order is the
  // same rotation, sorted separately.
  std::sort(phases.begin(), phases.end());
  if (n_s > 0) {
    const auto s_time = [&](std::uint64_t k) {
      return std::get<0>(phases[k % m]) + (k / m) * period;
    };
    const std::uint64_t thr = static_cast<std::uint64_t>(
        std::max(1, options_.escape_poll_threshold));
    const std::uint64_t fp = static_cast<std::uint64_t>(r.failed_polls);
    for (std::uint64_t k = thr - fp - 1; k < n_s; k += thr) {
      EscapeBlockedPackets(RingSender(ring_idx), RingReceiver(ring_idx),
                           s_time(k), /*kick=*/false);
    }
    r.failed_polls = static_cast<int>((fp + n_s) % thr);
    last_s = s_time(n_s - 1);
    r.freed_view = FreedAt(std::get<2>(phases[(n_s - 1) % m]), last_s);
  }
  sim::SimTime last_p = 0;
  if (n_p > 0) {
    std::vector<sim::SimTime>& p_order = poll_scratch_;
    p_order.clear();
    for (const auto& [s, p, id] : phases) p_order.push_back(p);
    std::sort(p_order.begin(), p_order.end());
    last_p = p_order[(n_p - 1) % m] + ((n_p - 1) / m) * period;
    stats_.ring_syncs += n_p;
    m_ring_syncs_.Add(n_p);
    if (obs_.trace != nullptr) {
      if (ring_track_ < 0) ring_track_ = obs_.trace->Track("net.rings");
      for (std::uint64_t k = 0; k < n_p; ++k) {
        obs_.trace->Instant(
            ring_track_, "ring", "sync", p_order[k % m] + (k / m) * period,
            {{"recv", static_cast<std::uint64_t>(RingReceiver(ring_idx))},
             {"up", static_cast<std::uint64_t>(RingSender(ring_idx))}});
      }
    }
  }
  r.sync_pending = n_p > 0 && (n_s == 0 || last_p > last_s);
  for (const auto& [s, p, id] : phases) {
    // Resume each chain after its last step before `until`.
    const std::uint64_t cs = count(s);
    const std::uint64_t cp = count(p);
    SyncChain& c = chains_[id];
    const sim::SimTime after_s = cs > 0 ? s + (cs - 1) * period : 0;
    const sim::SimTime after_p = cp > 0 ? p + (cp - 1) * period : 0;
    if (cs == 0 && cp == 0) continue;
    if (cp > 0 && (cs == 0 || after_p > after_s)) {
      c.poll_next = false;
      c.next_at = after_p + r.sync_cost;
    } else {
      c.poll_next = true;
      c.next_at = after_s + options_.poll_interval;
    }
  }
}

TransferEngine::StepPos TransferEngine::ParkedPos(int id, sim::SimTime at,
                                                  bool poll) const {
  const SyncChain& c = chains_[id];
  const StepPos& anchor = chain_pos_[id].anchor;
  if (at == anchor.at) return anchor;
  StepPos p = anchor;  // tie-break fields
  p.at = at;
  p.parent_at = at - StepDelay(c.ring, poll);
  p.grand_at = p.parent_at - StepDelay(c.ring, !poll);
  const Executed* e = LogAt(p.parent_at);
  if (e == sim_->execution_log_end() || e->when != p.parent_at) {
    // No event ran at the predecessor's instant: the key is next_key()
    // from then, whatever the predecessor's own position.
    p.key = (e == sim_->execution_log_end() ? sim_->next_key()
                                            : e->next_key_before) -
            1;
    p.parent_key = 0;
    return p;
  }
  const StepPos parent = ParkedPos(id, p.parent_at, !poll);
  p.parent_key = parent.key;
  p.key = KeyAfter(parent) - 1;
  return p;
}

const TransferEngine::Executed* TransferEngine::LogAt(sim::SimTime t) const {
  // Lookups are for recent instants: gallop back from the newest entry.
  const Executed* begin = sim_->execution_log_begin();
  const Executed* hi = sim_->execution_log_end();
  std::size_t step = 1;
  while (hi != begin && (hi - 1)->when >= t) {
    const Executed* probe =
        hi - std::min(step, static_cast<std::size_t>(hi - begin));
    if (probe->when < t) {
      return std::lower_bound(probe + 1, hi, t,
                              [](const Executed& e, sim::SimTime v) {
                                return e.when < v;
                              });
    }
    hi = probe;
    step *= 2;
  }
  return hi;
}

std::uint64_t TransferEngine::KeyAfter(const StepPos& pos) const {
  // next_key() when the step at `pos` ran = next_key() before the first
  // event that ran after it.
  const Executed* end = sim_->execution_log_end();
  const Executed* it = LogAt(pos.at);
  for (; it != end && it->when == pos.at; ++it) {
    if (it->key < pos.key) continue;
    if (it->key > pos.key) return it->next_key_before;
    // A resume group in the same gap at the same instant: find the
    // first member that ran after the step.
    for (const auto& [member, key_before] : ran_members_) {
      if (member.at == pos.at && member.key == pos.key) {
        std::uint64_t ties = 0;
        if (PosBefore(pos, member, &ties)) return key_before;
      }
    }
  }
  return it != end ? it->next_key_before : sim_->next_key();
}

void TransferEngine::Unpark(int sender, int ring_idx) {
  const std::size_t g = gpus_.size();
  for (std::size_t r = 0; r < g; ++r) {
    const int idx = static_cast<int>(r * g) + dense_[sender];
    if (ring_idx >= 0 && idx != ring_idx) continue;
    RingLink& rl = rings_[idx];
    for (int id : rl.parked) {
      // Back into the event queue at the step's exact position; steps
      // sharing a position run as one event, in PosBefore order.
      chain_pos_[id].pos = NextPos(id);
      chains_[id].parked = false;
      ++parking_.resumed_steps;
      const sim::SimTime at = chain_pos_[id].pos.at;
      const std::uint64_t key = chain_pos_[id].pos.key;
      auto [it, fresh] = resume_groups_.try_emplace({at, key});
      it->second.push_back(id);
      if (fresh) {
        sim_->ScheduleAtKey(at, key,
                            [this, at, key] { RunResumeGroup(at, key); });
      }
    }
    gpu_state(sender).parked -= static_cast<int>(rl.parked.size());
    rl.parked.clear();
    rl.late_frees.clear();
    rl.stable = false;
  }
  // The sender's parked_min_at stays a lower bound on what is left.
}

void TransferEngine::RunResumeGroup(sim::SimTime at, std::uint64_t key) {
  const auto group_key = std::make_pair(at, key);
  for (;;) {
    std::vector<int>& members = resume_groups_.at(group_key);
    if (members.empty()) break;
    auto first = std::min_element(
        members.begin(), members.end(), [this](int a, int b) {
          return PosBefore(chain_pos_[a].pos, chain_pos_[b].pos,
                           &parking_.lockstep_ties);
        });
    const int id = *first;
    members.erase(first);
    StepPos pos = chain_pos_[id].pos;
    ran_members_.emplace_back(pos, sim_->next_key());
    RunChainStep(id, pos);
  }
  resume_groups_.erase(group_key);
}

void TransferEngine::RecheckParking(int sender, const StepPos& pos) {
  GpuState& gs = gpu_state(sender);
  if (gs.parked == 0) return;
  if (gs.busy_engines < options_.dma_engines || !HasQueuedPackets(gs)) {
    CatchUp(sender, pos);
    Unpark(sender, -1);
    return;
  }
  if (options_.faults.empty()) return;
  const std::size_t g = gpus_.size();
  for (std::size_t r = 0; r < g; ++r) {
    const int idx = static_cast<int>(r * g) + dense_[sender];
    if (!rings_[idx].parked.empty() && !Parkable(sender, idx)) {
      CatchUp(sender, pos, idx);
      Unpark(sender, idx);
    }
  }
}

void TransferEngine::MaybeTrimLog(const StepPos& now_pos) {
  if (sim_->execution_log_size() < 4096) return;
  // Apply every parked step up to now and re-anchor each chain at its
  // next step; older log entries are then no longer consulted.
  CatchUp(-1, now_pos);
  for (const RingLink& rl : rings_) {
    for (int id : rl.parked) chain_pos_[id].anchor = NextPos(id);
  }
  sim_->TrimExecutionLog(log_client_, now_pos.at);
  ran_members_.erase(
      std::remove_if(ran_members_.begin(), ran_members_.end(),
                     [&](const auto& m) { return m.first.at < now_pos.at; }),
      ran_members_.end());
}

std::string TransferEngine::DebugDump() const {
  std::string out = "TransferEngine pending=" +
                    std::to_string(pending_payload_) + "\n";
  // Report queues in (src-before-transit, peer gpu id ascending) order —
  // the historical map order — independent of the slab's dense layout.
  std::vector<int> ids = gpus_;
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    const GpuState& gs = gpu_states_[i];
    bool any = gs.busy_engines > 0;
    for (const RingDeque<QueuedPacket>& q : gs.queues) any = any || !q.empty();
    if (!any) continue;
    out += "GPU " + std::to_string(gpus_[i]) +
           " engines=" + std::to_string(gs.busy_engines) + "\n";
    for (int transit = 0; transit < 2; ++transit) {
      for (int peer : ids) {
        const RingDeque<QueuedPacket>& q =
            gs.queues[(transit ? gpus_.size() : 0) + dense_[peer]];
        if (q.empty()) continue;
        out += "  queue{" + std::string(transit ? "transit" : "src") +
               "," + std::to_string(peer) + "} n=" +
               std::to_string(q.size());
        if (transit) {
          out += " head_route=" + q.front().packet.route.ToString() +
                 " hop=" + std::to_string(q.front().packet.hop) +
                 " slot_up=" + std::to_string(q.front().slot_upstream);
        }
        out += "\n";
      }
    }
    for (std::size_t j = 0; j < gpus_.size(); ++j) {
      for (int id : rings_[j * gpus_.size() + i].parked) {
        const SyncChain& c = chains_[id];
        out += "  parked ring[recv=" + std::to_string(RingReceiver(c.ring)) +
               ",up=" + std::to_string(RingSender(c.ring)) + "] next=" +
               (c.poll_next ? "poll" : "sync") + "@" +
               std::to_string(c.next_at) + "ps failed_polls=" +
               std::to_string(rings_[c.ring].failed_polls) + "\n";
      }
    }
    for (std::size_t j = 0; j < gpus_.size(); ++j) {
      const RingLink& rl = rings_[i * gpus_.size() + j];
      if (rl.claimed != rl.freed) {
        out += "  ring[recv=" + std::to_string(gpus_[i]) + ",up=" +
               std::to_string(gpus_[j]) + "] claimed=" +
               std::to_string(rl.claimed) + " freed=" +
               std::to_string(rl.freed) + " freed_view=" +
               std::to_string(rl.freed_view) +
               " sync=" + std::to_string(rl.sync_pending) + "\n";
      }
    }
  }
  const std::string health = links_.HealthReport();
  if (!health.empty()) out += "link health:\n" + health;
  if (links_.pending_fault_events() > 0) {
    out += "pending fault events=" +
           std::to_string(links_.pending_fault_events()) + "\n";
  }
  return out;
}

bool TransferEngine::RemainingRouteAvailable(const Packet& p) const {
  for (int i = p.hop; i + 1 < p.route.size(); ++i) {
    if (!links_.ChannelAvailable(
            topo_->channel(p.route[i], p.route[i + 1]))) {
      return false;
    }
  }
  return true;
}

std::uint64_t TransferEngine::RepairTransitQueue(int gpu, int peer) {
  GpuState& gs = gpu_state(gpu);
  RingDeque<QueuedPacket>& q = queue_at(gs, true, peer);
  if (q.empty()) return 0;
  // Drain the queue first: repairs may push into arbitrary queues of
  // this GPU, including this one.
  RingDeque<QueuedPacket> pending = std::move(q);
  RingDeque<QueuedPacket> keep;
  std::uint64_t moved = 0;
  for (std::size_t n = 0; n < pending.size(); ++n) {
    QueuedPacket& qp = pending[n];
    if (RemainingRouteAvailable(qp.packet)) {
      keep.push_back(qp);
      continue;
    }
    const int dst = qp.packet.final_dst();
    const topo::Route& alt =
        policy_->ChooseRoute(gpu, dst, options_.packet_bytes, 1, links_);
    if (!links_.RouteAvailable(alt)) {
      // No surviving route right now; hold the packet for a restore.
      keep.push_back(qp);
      continue;
    }
    qp.packet.route = alt;
    qp.packet.hop = 0;
    ++moved;
    if (alt.gpus[1] == peer) {
      // Only a later hop was dead; the packet stays behind this next
      // hop on its new route.
      keep.push_back(qp);
    } else {
      queue_at(gs, true, alt.gpus[1]).push_back(qp);
    }
  }
  q = std::move(keep);
  if (moved > 0) {
    stats_.fault_reroutes += moved;
    m_fault_reroutes_.Add(moved);
    if (obs_.trace != nullptr) {
      if (fault_track_ < 0) fault_track_ = obs_.trace->Track("net.faults");
      obs_.trace->Instant(fault_track_, "fault", "reroute", sim_->Now(),
                          {{"gpu", static_cast<std::uint64_t>(gpu)},
                           {"packets", moved}});
    }
  }
  return moved;
}

void TransferEngine::RepairStrandedTransit() {
  const std::size_t g = gpus_.size();
  for (std::size_t i = 0; i < g; ++i) {
    // Snapshot the non-empty transit peers in gpu-id-ascending order
    // (the historical map order): RepairTransitQueue moves packets
    // between queues while we iterate.
    std::vector<int> peers;
    for (std::size_t j = 0; j < g; ++j) {
      if (!gpu_states_[i].queues[g + j].empty()) peers.push_back(gpus_[j]);
    }
    std::sort(peers.begin(), peers.end());
    for (int peer : peers) RepairTransitQueue(gpus_[i], peer);
  }
}

void TransferEngine::OnFaultEvent(const FaultEvent& ev) {
  if (!started_) return;
  CatchUp(-1, CurrentPos());
  if (ev.kind == FaultKind::kDown) RepairStrandedTransit();
  // Capacity changed (restore/degrade) or queues were re-pathed: give
  // every sender a chance to move.
  for (int g : gpus_) TryStartSends(g);
  for (int g : gpus_) RecheckParking(g, CurrentPos());
  obs_.auditor->Poke();
}

void TransferEngine::ScheduleFaultRetry(int gpu) {
  // Without a pending fault event no restore can arrive: leave the
  // stall to the deadlock watchdog (which dumps link health) rather
  // than polling forever.
  if (links_.pending_fault_events() == 0) return;
  char& pending = fault_retry_pending_[dense_[gpu]];
  if (pending) return;
  pending = 1;
  // Counted as watchdog progress: waiting out an outage with a restore
  // scheduled is healthy, not deadlocked.
  ++stats_.fault_waits;
  m_fault_waits_.Add(1);
  sim_->Schedule(kFaultRetryInterval, [this, gpu] {
    fault_retry_pending_[dense_[gpu]] = 0;
    TryStartSends(gpu);
  });
}

void TransferEngine::SchedulePaceWake(int gpu, sim::SimTime when) {
  GpuState& gs = gpu_state(gpu);
  // One pending wake per GPU is enough: if an earlier (or equal) wake
  // is already posted, TryStartSends will rediscover any later release
  // when it fires.
  if (gs.pace_wake_at != 0 && gs.pace_wake_at <= when) return;
  gs.pace_wake_at = when;
  sim_->ScheduleAt(when, [this, gpu, when] {
    GpuState& inner = gpu_state(gpu);
    if (inner.pace_wake_at == when) inner.pace_wake_at = 0;
    TryStartSends(gpu);
  });
}

void TransferEngine::EscapeBlockedPackets(int sender, int receiver,
                                          sim::SimTime when, bool kick) {
  // Deadlock safety valve: transit packets waiting at `sender` for the
  // ring at `receiver` are re-issued on their direct route (the
  // destination ring always drains because final packets unpack
  // immediately). It does fire in normal operation: `failed_polls`
  // counts every sync completion, also while the ring has free slots
  // and the sender's DMA engines are busy, and only a batch accepted on
  // this ring resets it. A busy sender therefore escapes transit
  // packets whose ring is not full (fabric8, seed 1: ~1,600 per op).
  // The simulated results include these escapes; see DESIGN.md.
  GpuState& gs = gpu_state(sender);
  RingDeque<QueuedPacket>& q = queue_at(gs, true, receiver);
  if (q.empty()) return;
  RingDeque<QueuedPacket> pending = std::move(q);
  RingDeque<QueuedPacket> keep;
  std::uint64_t moved = 0;
  for (std::size_t n = 0; n < pending.size(); ++n) {
    QueuedPacket& qp = pending[n];
    const int dst = qp.packet.final_dst();
    if (dst == receiver) {
      keep.push_back(qp);
      continue;
    }
    topo::Route escape{{sender, dst}};
    if (!links_.RouteAvailable(escape)) {
      // The direct escape hatch is itself down (fault model): ask the
      // policy for a surviving route. With none — or one that leads
      // right back into the blocked receiver — the packet stays queued
      // until a restore.
      escape =
          policy_->ChooseRoute(sender, dst, options_.packet_bytes, 1, links_);
      if (!links_.RouteAvailable(escape) || escape.gpus[1] == receiver) {
        keep.push_back(qp);
        continue;
      }
    }
    ++stats_.escapes;
    ++moved;
    qp.packet.route = escape;
    qp.packet.hop = 0;
    queue_at(gs, true, escape.gpus[1]).push_back(qp);
  }
  q = std::move(keep);
  if (moved > 0) {
    m_escapes_.Add(moved);
    if (obs_.trace != nullptr) {
      if (ring_track_ < 0) ring_track_ = obs_.trace->Track("net.rings");
      obs_.trace->Instant(
          ring_track_, "ring", "escape", when,
          {{"sender", static_cast<std::uint64_t>(sender)},
           {"blocked_recv", static_cast<std::uint64_t>(receiver)},
           {"packets", moved}});
    }
  }
  if (kick) TryStartSends(sender);
}

}  // namespace mgjoin::net
