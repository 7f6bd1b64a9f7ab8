#include "net/transfer_engine.h"

#include <algorithm>

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
  a->set_dump_fn([this] { return DebugDump(); });
  a->set_done_fn([this] { return AllDone(); });
  a->set_progress_fn([this] {
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
      SettleSyncs(gpu);
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
      ResumeSyncs(gpu);
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
      SettleSyncs(gpu);
      GpuState& gs = gpu_state(gpu);
      --gs.busy_engines;
      gs.engine_busy[slot] = 0;
      TryStartSends(gpu);
      ResumeSyncs(gpu);
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
  RingDeque<QueuedPacket>& queue = queue_at(gs, true, packet.next_gpu());
  queue.push_back(QueuedPacket{packet, from_gpu});
  m_transit_queue_depth_.Set(queue.size());
  TryStartSends(here);
}

void TransferEngine::FreeRingSlot(int receiver, int upstream) {
  RingLink& rl = ring(receiver, upstream);
  ++rl.freed;
  MGJ_CHECK(rl.freed <= rl.claimed);
  obs_.auditor->Poke();
}

// ---------------------------------------------------------------------------
// Ring-sync chains. Each sync is a chain of two steps: the sync
// completion S (`sync_cost` after the sync starts) and a poll P
// (`poll_interval` after S), which starts the next sync while the sender
// has queued packets. While every DMA engine of the sender is busy, a
// step can only move the ring's counters, so the chain schedules no
// events: it is suspended at the step that finds the sender busy, and
// its due steps are settled at the sender's next engine release
// (DESIGN.md Sec 7, "Ring syncs of a busy sender").

bool TransferEngine::BeginSync(int ring_idx, sim::SimTime when) {
  RingLink& rl = rings_[ring_idx];
  if (rl.sync_pending) return false;
  rl.sync_pending = true;
  CountSyncs(ring_idx, when, 1, 0);
  return true;
}

void TransferEngine::CountSyncs(int ring_idx, sim::SimTime first,
                                std::uint64_t n, sim::SimTime period) {
  stats_.ring_syncs += n;
  m_ring_syncs_.Add(n);
  if (obs_.trace == nullptr) return;
  if (ring_track_ < 0) ring_track_ = obs_.trace->Track("net.rings");
  for (std::uint64_t k = 0; k < n; ++k) {
    obs_.trace->Instant(
        ring_track_, "ring", "sync", first + k * period,
        {{"recv", static_cast<std::uint64_t>(RingReceiver(ring_idx))},
         {"up", static_cast<std::uint64_t>(RingSender(ring_idx))}});
  }
}

void TransferEngine::StartRingSync(int ring_idx) {
  if (!BeginSync(ring_idx, sim_->Now())) return;
  rings_[ring_idx].stable = false;
  int id;
  if (free_chains_.empty()) {
    id = static_cast<int>(chains_.size());
    chains_.emplace_back();
  } else {
    id = free_chains_.back();
    free_chains_.pop_back();
  }
  chains_[id] = SyncChain{ring_idx, /*poll_next=*/false,
                          sim_->Now() + rings_[ring_idx].sync_cost};
  ScheduleStep(id);
}

void TransferEngine::ScheduleStep(int id) {
  sim_->ScheduleAt(chains_[id].next_at, [this, id] { RunChainStep(id); });
}

bool TransferEngine::HasQueuedPackets(const GpuState& gs) const {
  for (const RingDeque<QueuedPacket>& q : gs.queues) {
    if (!q.empty()) return true;
  }
  return false;
}

void TransferEngine::RunChainStep(int id) {
  const int ring_idx = chains_[id].ring;
  const bool poll = chains_[id].poll_next;
  const int sender = RingSender(ring_idx);
  GpuState& gs = gpu_state(sender);
  if (SenderBusy(gs)) {
    // Held back, this step included, until the sender's next release.
    RingLink& rl = rings_[ring_idx];
    rl.suspended.push_back(id);
    rl.stable = false;
    gs.suspended.push_back(id);
    return;
  }
  // Keep polling while the sender still has queued traffic.
  if (poll && !HasQueuedPackets(gs)) {
    free_chains_.push_back(id);
    return;
  }
  const bool alive = ApplyStep(id, sim_->Now());
  if (!poll && rings_[ring_idx].FreeViewFor(true) >= 1) TryStartSends(sender);
  if (alive) ScheduleStep(id);
  if (poll) TryStartSends(sender);
}

bool TransferEngine::ApplyStep(int id, sim::SimTime at) {
  SyncChain& c = chains_[id];
  const int ring_idx = c.ring;
  RingLink& r = rings_[ring_idx];
  if (c.poll_next) {
    if (!BeginSync(ring_idx, at)) {
      // Another chain's sync is in flight.
      free_chains_.push_back(id);
      return false;
    }
    c.poll_next = false;
    c.next_at = at + r.sync_cost;
    return true;
  }
  r.sync_pending = false;
  r.freed_view = r.freed;
  c.poll_next = true;
  c.next_at = at + options_.poll_interval;
  // Count the poll; TryStartBatch resets the counter when the ring
  // actually accepts a batch, so a sender that keeps waking without
  // progressing (e.g. transit traffic starved behind the reserved
  // last-hop slot) still reaches the escape valve.
  ++r.failed_polls;
  if (r.failed_polls >= options_.escape_poll_threshold) {
    r.failed_polls = 0;
    // Last: the escape's TryStartSends may start chains, moving chains_.
    EscapeBlockedPackets(RingSender(ring_idx), RingReceiver(ring_idx), at);
  }
  return true;
}

void TransferEngine::SettleSyncs(int sender) {
  if (gpu_state(sender).suspended.empty()) return;
  const std::size_t g = gpus_.size();
  for (std::size_t r = 0; r < g; ++r) {
    SettleRing(static_cast<int>(r * g) + dense_[sender]);
  }
}

void TransferEngine::SettleRing(int ring_idx) {
  // The sender's engines are all still busy, so an escape's TryStartSends
  // returns at once and no chain starts. Steps due at the release's own
  // time are settled too: a chain suspended at this picosecond ran its
  // event before the release.
  RingLink& rl = rings_[ring_idx];
  std::vector<int>& ids = rl.suspended;
  const sim::SimTime now = sim_->Now();
  const sim::SimTime period = rl.sync_cost + options_.poll_interval;
  // The ring's chains interact through sync_pending, so their steps run
  // in time order (ties in suspension order) until a whole period,
  // starting at a sync completion, passes in which no poll ends a chain.
  // Every later period repeats that one: its first step clears
  // sync_pending whatever ran before it.
  sim::SimTime window_end = 0;
  while (!rl.stable) {
    std::size_t first = ids.size();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const sim::SimTime at = chains_[ids[k]].next_at;
      if (at <= now &&
          (first == ids.size() || at < chains_[ids[first]].next_at)) {
        first = k;
      }
    }
    if (first == ids.size()) return;
    const int id = ids[first];
    const sim::SimTime at = chains_[id].next_at;
    if (window_end == 0) {
      if (!chains_[id].poll_next) window_end = at + period;
    } else if (at >= window_end) {
      rl.stable = true;
      break;
    }
    if (!ApplyStep(id, at)) {
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(first));
      std::vector<int>& all = gpu_state(RingSender(ring_idx)).suspended;
      all.erase(std::find(all.begin(), all.end(), id));
      window_end = 0;
    }
  }
  CountStableSteps(ring_idx, now);
}

void TransferEngine::CountStableSteps(int ring_idx, sim::SimTime through) {
  // Every poll syncs and every sync completion clears sync_pending, so
  // each chain's steps up to `through` only move counters. A chain's steps
  // of its next kind fall at next_at + k * period, the others one step
  // delay later.
  RingLink& rl = rings_[ring_idx];
  const sim::SimTime poll = options_.poll_interval;
  const sim::SimTime period = rl.sync_cost + poll;
  std::vector<sim::SimTime>& first_s = first_s_scratch_;
  first_s.clear();
  std::uint64_t n_s = 0;
  bool any = false;
  sim::SimTime last_at = 0;
  bool last_poll = false;
  for (int id : rl.suspended) {
    SyncChain& c = chains_[id];
    if (c.next_at > through) continue;
    const sim::SimTime other_at =
        c.next_at + (c.poll_next ? rl.sync_cost : poll);
    const std::uint64_t n_next = (through - c.next_at) / period + 1;
    const std::uint64_t n_other =
        other_at <= through ? (through - other_at) / period + 1 : 0;
    if (c.poll_next) {
      CountSyncs(ring_idx, c.next_at, n_next, period);
      if (n_other > 0) first_s.push_back(other_at);
      n_s += n_other;
    } else {
      CountSyncs(ring_idx, other_at, n_other, period);
      first_s.push_back(c.next_at);
      n_s += n_next;
    }
    // The chain's last step up to `through`, and its next one.
    sim::SimTime at;
    bool was_poll;
    if (n_other == n_next) {
      at = other_at + (n_other - 1) * period;
      was_poll = !c.poll_next;
      c.next_at += n_next * period;
    } else {
      at = c.next_at + (n_next - 1) * period;
      was_poll = c.poll_next;
      c.next_at = other_at + n_other * period;
      c.poll_next = !c.poll_next;
    }
    if (!any || at >= last_at) {
      any = true;
      last_at = at;
      last_poll = was_poll;
    }
  }
  if (!any) return;
  rl.sync_pending = last_poll;
  if (n_s == 0) return;
  rl.freed_view = rl.freed;
  const int threshold = std::max(1, options_.escape_poll_threshold);
  const std::uint64_t due =
      static_cast<std::uint64_t>(threshold - rl.failed_polls);
  rl.failed_polls = static_cast<int>(
      (static_cast<std::uint64_t>(rl.failed_polls) + n_s) % threshold);
  if (n_s < due) return;
  // The valve fires at the due-th completion in time order: completion k
  // is that of the chain with the (k % m)-th earliest first one, in its
  // (k / m)-th period. A later crossing finds nothing new to move.
  std::sort(first_s.begin(), first_s.end());
  const std::uint64_t k = due - 1;
  EscapeBlockedPackets(RingSender(ring_idx), RingReceiver(ring_idx),
                       first_s[k % first_s.size()] +
                           (k / first_s.size()) * period);
}

void TransferEngine::ResumeSyncs(int sender) {
  GpuState& gs = gpu_state(sender);
  if (gs.suspended.empty() || SenderBusy(gs)) return;
  // Every suspended step due by now was settled, so each chain's next
  // step lies ahead; same-time ones run in suspension order.
  for (int id : gs.suspended) {
    RingLink& rl = rings_[chains_[id].ring];
    rl.suspended.clear();
    rl.stable = false;
    ScheduleStep(id);
  }
  gs.suspended.clear();
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
      for (int id : rings_[j * gpus_.size() + i].suspended) {
        const SyncChain& c = chains_[id];
        out += "  suspended ring[recv=" + std::to_string(RingReceiver(c.ring)) +
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
  if (ev.kind == FaultKind::kDown) RepairStrandedTransit();
  // Capacity changed (restore/degrade) or queues were re-pathed: give
  // every sender a chance to move.
  for (int g : gpus_) TryStartSends(g);
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
                                          sim::SimTime when) {
  // Deadlock safety valve: transit packets waiting at `sender` for the
  // ring at `receiver` are re-issued on their direct route (the
  // destination ring always drains because final packets unpack
  // immediately). It does fire in normal operation: `failed_polls`
  // counts every sync completion, also while the ring has free slots
  // and the sender's DMA engines are busy (those completions are
  // settled at the sender's next engine release), and only a batch
  // accepted on this ring resets it. A busy sender therefore escapes
  // transit packets whose ring is not full. The simulated results
  // include these escapes; see DESIGN.md Sec 7.
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
  TryStartSends(sender);
}

}  // namespace mgjoin::net
