// Tests for the packet network: link state, routing policies and the
// transfer engine (multi-hop forwarding, ring buffers, congestion).

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <utility>

#include "common/units.h"
#include "net/fault_plan.h"
#include "net/link_state.h"
#include "net/packet.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::net {
namespace {

using topo::MakeDgx1V;
using topo::Route;

class LinkStateTest : public ::testing::Test {
 protected:
  LinkStateTest() : topo_(MakeDgx1V()), links_(&sim_, topo_.get()) {}
  sim::Simulator sim_;
  std::unique_ptr<topo::Topology> topo_;
  LinkStateTable links_;
};

TEST_F(LinkStateTest, ReservationsQueueOnSameChannel) {
  const topo::Channel& ch = topo_->channel(0, 1);
  const auto r1 = links_.ReserveChannel(ch, 2 * kMiB);
  const auto r2 = links_.ReserveChannel(ch, 2 * kMiB);
  EXPECT_EQ(r1.start, 0u);
  EXPECT_EQ(r2.start, r1.end);  // serialized on the same link
  EXPECT_GT(r1.deliver, r1.end);
}

TEST_F(LinkStateTest, OppositeDirectionsDoNotContend) {
  const auto r1 = links_.ReserveChannel(topo_->channel(0, 1), 2 * kMiB);
  const auto r2 = links_.ReserveChannel(topo_->channel(1, 0), 2 * kMiB);
  EXPECT_EQ(r1.start, r2.start);  // full duplex
}

TEST_F(LinkStateTest, SharedPcieSwitchCausesContention) {
  // GPU0 and GPU1 share one PCIe switch; staged flows 0->7 and 1->6 both
  // cross the sw0-cpu0 uplink and must serialize there. Compare the
  // delivery time of 1->6 with and without the competing 0->7 transfer.
  sim::Simulator fresh_sim;
  LinkStateTable fresh(&fresh_sim, topo_.get());
  const auto alone = fresh.ReserveChannel(topo_->channel(1, 6), 2 * kMiB);

  links_.ReserveChannel(topo_->channel(0, 7), 2 * kMiB);
  const auto contended = links_.ReserveChannel(topo_->channel(1, 6), 2 * kMiB);
  EXPECT_GT(contended.deliver, alone.deliver);
}

TEST_F(LinkStateTest, DisjointNvLinksDoNotContend) {
  const auto r1 = links_.ReserveChannel(topo_->channel(0, 1), 2 * kMiB);
  const auto r2 = links_.ReserveChannel(topo_->channel(2, 3), 2 * kMiB);
  EXPECT_EQ(r1.start, r2.start);
}

TEST_F(LinkStateTest, TrueQueueDelayReflectsBacklog) {
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  EXPECT_EQ(links_.TrueQueueDelay(ld), 0u);
  const auto r = links_.ReserveChannel(ch, 16 * kMiB);
  EXPECT_EQ(links_.TrueQueueDelay(ld), r.end);  // now == 0
}

TEST_F(LinkStateTest, PublishedDelayLagsTruth) {
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  links_.ReserveChannel(ch, 16 * kMiB);
  // Broadcast not yet propagated.
  EXPECT_EQ(links_.PublishedQueueDelay(ld), 0u);
  sim_.Run();  // propagation event fires
  // After the backlog drains the published value chases back toward 0,
  // but at the propagation instant it was positive; ensure a broadcast
  // happened at all.
  EXPECT_GE(links_.broadcasts(), 1u);
}

TEST_F(LinkStateTest, BusyTimeAccumulates) {
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  links_.ReserveChannel(ch, 2 * kMiB);
  links_.ReserveChannel(ch, 2 * kMiB);
  EXPECT_GT(links_.BusyTime(ld), 0u);
  EXPECT_EQ(links_.BytesMoved(ld), 4 * kMiB);
}

// ---------------------------------------------------------------------------
// Routing policies.

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : topo_(MakeDgx1V()), links_(&sim_, topo_.get()) {}
  sim::Simulator sim_;
  std::unique_ptr<topo::Topology> topo_;
  LinkStateTable links_;
};

TEST_F(PolicyTest, HopCountAlwaysDirect) {
  auto policy = MakePolicy(PolicyKind::kHopCount);
  for (int d = 1; d < 8; ++d) {
    const Route r = policy->ChooseRoute(0, d, 2 * kMiB, 8, links_);
    EXPECT_EQ(r.gpus, (std::vector<int>{0, d}));
  }
}

TEST_F(PolicyTest, BandwidthAvoidsStagedPcie) {
  auto policy = MakePolicy(PolicyKind::kBandwidth);
  // 0 and 7 are not NVLink-connected; the bandwidth policy must route
  // over NVLink hops instead of the ~9 GB/s staged path.
  const Route r = policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_);
  EXPECT_GT(r.hops(), 1);
  for (std::size_t i = 0; i + 1 < r.gpus.size(); ++i) {
    EXPECT_TRUE(topo_->HasNvLink(r.gpus[i], r.gpus[i + 1]));
  }
}

TEST_F(PolicyTest, BandwidthPrefersDoubleNvLink) {
  auto policy = MakePolicy(PolicyKind::kBandwidth);
  // 0-3 is a double link: direct is already optimal.
  const Route r = policy->ChooseRoute(0, 3, 2 * kMiB, 8, links_);
  EXPECT_EQ(r.gpus, (std::vector<int>{0, 3}));
}

TEST_F(PolicyTest, LatencyPrefersNvLinkHopsOverStaging) {
  auto policy = MakePolicy(PolicyKind::kLatency);
  const Route r = policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_);
  // Two NVLink hops (~3.8 us) beat a staged direct (~36 us).
  EXPECT_EQ(r.hops(), 2);
}

TEST_F(PolicyTest, AdaptiveReroutesAroundCongestion) {
  auto policy = MakePolicy(PolicyKind::kAdaptive);
  const Route before = policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_);
  ASSERT_GT(before.hops(), 1);

  // Congest every channel of the chosen route heavily and let the
  // queue-delay broadcasts propagate.
  for (int n = 0; n < 50; ++n) {
    for (std::size_t i = 0; i + 1 < before.gpus.size(); ++i) {
      links_.ReserveChannel(
          topo_->channel(before.gpus[i], before.gpus[i + 1]), 16 * kMiB);
    }
  }
  sim_.RunUntil(sim_.Now() + 10 * sim::kMicrosecond);

  const Route after = policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_);
  EXPECT_NE(after.gpus, before.gpus)
      << "adaptive policy failed to re-route around congestion";
}

TEST_F(PolicyTest, StaticPoliciesIgnoreCongestion) {
  auto policy = MakePolicy(PolicyKind::kBandwidth);
  const Route before = policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_);
  for (int n = 0; n < 50; ++n) {
    for (std::size_t i = 0; i + 1 < before.gpus.size(); ++i) {
      links_.ReserveChannel(
          topo_->channel(before.gpus[i], before.gpus[i + 1]), 16 * kMiB);
    }
  }
  sim_.RunUntil(sim_.Now() + 10 * sim::kMicrosecond);
  EXPECT_EQ(policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_).gpus,
            before.gpus);
}

TEST_F(PolicyTest, ArmValueGrowsWithCongestion) {
  const Route direct{{0, 1}};
  const sim::SimTime idle =
      ArmValue(direct, 2 * kMiB, 8, links_, /*published=*/false);
  links_.ReserveChannel(topo_->channel(0, 1), 16 * kMiB);
  const sim::SimTime busy =
      ArmValue(direct, 2 * kMiB, 8, links_, /*published=*/false);
  EXPECT_GT(busy, idle);
}

TEST_F(PolicyTest, ParticipantMaskRestrictsRoutes) {
  auto policy = MakePolicy(PolicyKind::kBandwidth);
  std::vector<bool> mask(8, false);
  mask[0] = mask[7] = true;  // only the endpoints participate
  policy->SetParticipants(mask);
  const Route r = policy->ChooseRoute(0, 7, 2 * kMiB, 8, links_);
  EXPECT_EQ(r.gpus, (std::vector<int>{0, 7}));  // forced direct
}

TEST_F(PolicyTest, CentralizedHasGlobalOverhead) {
  auto policy = MakePolicy(PolicyKind::kCentralized);
  EXPECT_TRUE(policy->SerializesGlobally());
  EXPECT_GT(policy->ControlOverheadPerBatch(8),
            policy->ControlOverheadPerBatch(2));
  auto adaptive = MakePolicy(PolicyKind::kAdaptive);
  EXPECT_FALSE(adaptive->SerializesGlobally());
  EXPECT_EQ(adaptive->ControlOverheadPerBatch(8), 0u);
}

// ---------------------------------------------------------------------------
// Transfer engine.

struct EngineRun {
  TransferStats stats;
  std::map<std::uint64_t, std::uint64_t> delivered_per_flow;
};

EngineRun RunFlows(PolicyKind kind, const std::vector<int>& gpus,
                   const std::vector<Flow>& flows,
                   TransferOptions options = {}) {
  sim::Simulator s;
  auto topo = MakeDgx1V();
  auto policy = MakePolicy(kind, options.max_intermediates);
  TransferEngine eng(&s, topo.get(), gpus, policy.get(), options);
  EngineRun run;
  // The DeliverCallback contract: inline on the thread that runs the
  // simulator, once per delivered packet, at the delivery instant, in
  // non-decreasing time order.
  const std::thread::id caller = std::this_thread::get_id();
  sim::SimTime last_when = 0;
  std::uint64_t deliveries = 0;
  eng.set_deliver_callback([&](const Packet& p, sim::SimTime when) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(when, s.Now());
    EXPECT_GE(when, last_when);
    last_when = when;
    ++deliveries;
    run.delivered_per_flow[p.flow_id] += p.payload_bytes;
  });
  for (const Flow& f : flows) eng.AddFlow(f);
  eng.Start();
  s.Run();
  EXPECT_TRUE(eng.AllDone());
  EXPECT_EQ(deliveries, eng.stats().packets);
  run.stats = eng.stats();
  return run;
}

TEST(TransferEngineTest, DeliversSingleFlowExactly) {
  const std::uint64_t bytes = 37 * kMiB + 12345;  // non-multiple of packet
  auto run = RunFlows(PolicyKind::kAdaptive, {0, 1, 2, 3},
                      {Flow{1, 0, 1, bytes, 0, 0.0, {}}});
  EXPECT_EQ(run.stats.payload_bytes, bytes);
  EXPECT_EQ(run.delivered_per_flow[1], bytes);
  EXPECT_GT(run.stats.Makespan(), 0u);
}

TEST(TransferEngineTest, ConservationAcrossManyFlows) {
  std::vector<Flow> flows;
  std::uint64_t total = 0, id = 0;
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (s == d) continue;
      const std::uint64_t b = 8 * kMiB + s * 1000 + d;
      flows.push_back(Flow{id++, s, d, b, 0, 0.0, {}});
      total += b;
    }
  }
  auto run = RunFlows(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows);
  EXPECT_EQ(run.stats.payload_bytes, total);
  for (const Flow& f : flows) {
    EXPECT_EQ(run.delivered_per_flow[f.id], f.bytes) << "flow " << f.id;
  }
}

TEST(TransferEngineTest, AllPoliciesDeliverEverything) {
  std::vector<Flow> flows;
  std::uint64_t id = 0;
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s != d) flows.push_back(Flow{id++, s, d, 16 * kMiB, 0, 0.0, {}});
    }
  }
  for (PolicyKind kind :
       {PolicyKind::kDirect, PolicyKind::kBandwidth, PolicyKind::kHopCount,
        PolicyKind::kLatency, PolicyKind::kAdaptive,
        PolicyKind::kCentralized}) {
    auto run = RunFlows(kind, topo::FirstNGpus(4), flows);
    EXPECT_EQ(run.stats.payload_bytes, id * 16 * kMiB)
        << PolicyKindName(kind);
  }
}

TEST(TransferEngineTest, MultiHopBeatsDirectOnCongestedStagedPairs) {
  // All-to-all among {0,1,4,5}: pairs (0,5) and (1,4) are staged
  // cross-socket; direct routing collapses onto the shared PCIe/QPI
  // fabric while multi-hop can detour over NVLink (0-4-5, 1-5-4, ...).
  std::vector<Flow> flows;
  std::uint64_t id = 0;
  const std::vector<int> gpus{0, 1, 4, 5};
  for (int s : gpus) {
    for (int d : gpus) {
      if (s != d) flows.push_back(Flow{id++, s, d, 256 * kMiB, 0, 0.0, {}});
    }
  }
  auto direct = RunFlows(PolicyKind::kDirect, gpus, flows);
  auto adaptive = RunFlows(PolicyKind::kAdaptive, gpus, flows);
  EXPECT_LT(adaptive.stats.Makespan(), direct.stats.Makespan());
  EXPECT_GT(adaptive.stats.AvgIntermediateHops(), 0.1);
}

TEST(TransferEngineTest, PacketsNeverExceedConfiguredSize) {
  TransferOptions opts;
  opts.packet_bytes = 1 * kMiB;
  auto run = RunFlows(PolicyKind::kAdaptive, {0, 1},
                      {Flow{0, 0, 1, 10 * kMiB + 7, 0, 0.0, {}}}, opts);
  EXPECT_EQ(run.stats.packets, 11u);  // 10 full + 1 tail
}

TEST(TransferEngineTest, ProgressiveGenerationDelaysCompletion) {
  // Producing at ~5 GB/s must stretch the distribution versus all-at-0.
  Flow eager{0, 0, 1, 512 * kMiB, 0, 0.0, {}};
  Flow paced{0, 0, 1, 512 * kMiB, 0, 5.0 * kGBps, {}};
  auto fast = RunFlows(PolicyKind::kAdaptive, {0, 1}, {eager});
  auto slow = RunFlows(PolicyKind::kAdaptive, {0, 1}, {paced});
  EXPECT_GT(slow.stats.last_delivery, fast.stats.last_delivery);
  EXPECT_EQ(slow.stats.payload_bytes, fast.stats.payload_bytes);
}

TEST(TransferEngineTest, CentralizedPaysControlOverhead) {
  std::vector<Flow> flows;
  std::uint64_t id = 0;
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s != d) flows.push_back(Flow{id++, s, d, 64 * kMiB, 0, 0.0, {}});
    }
  }
  auto central =
      RunFlows(PolicyKind::kCentralized, topo::FirstNGpus(4), flows);
  EXPECT_GT(central.stats.control_overhead, 0u);

  TransferOptions no_sync;
  no_sync.zero_control_overhead = true;
  auto pure = RunFlows(PolicyKind::kCentralized, topo::FirstNGpus(4), flows,
                       no_sync);
  EXPECT_EQ(pure.stats.control_overhead, 0u);
  EXPECT_LT(pure.stats.Makespan(), central.stats.Makespan());
}

TEST(TransferEngineTest, TinyRingBufferStillCompletes) {
  // Force heavy backpressure: 2 slots per ring.
  TransferOptions opts;
  opts.ring_buffer_bytes = 4 * kMiB;
  std::vector<Flow> flows;
  std::uint64_t id = 0;
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (s != d) flows.push_back(Flow{id++, s, d, 32 * kMiB, 0, 0.0, {}});
    }
  }
  auto run =
      RunFlows(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows, opts);
  EXPECT_EQ(run.stats.payload_bytes, id * 32 * kMiB);
  EXPECT_GT(run.stats.ring_syncs, 0u);
}

TEST(TransferEngineTest, DeadlockRegressionEscapeValveFires) {
  // Regression for the multi-hop buffer-cycle deadlock: shrink the
  // routing rings to the 2-slot floor (one slot of which is reserved for
  // last-hop traffic) and make senders give up after two failed polls.
  // Transit packets wedge quickly under an 8-GPU all-to-all; the run
  // must still terminate — via the escape valve — with nothing lost.
  TransferOptions opts;
  opts.ring_buffer_bytes = 2 * kMiB;  // clamped to the 2-slot minimum
  opts.escape_poll_threshold = 2;
  std::vector<Flow> flows;
  std::uint64_t id = 0;
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (s != d) flows.push_back(Flow{id++, s, d, 32 * kMiB, 0, 0.0, {}});
    }
  }
  auto run =
      RunFlows(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows, opts);
  EXPECT_GT(run.stats.escapes, 0u) << "escape valve never triggered";
  EXPECT_EQ(run.stats.payload_bytes, id * 32 * kMiB);
  for (const Flow& f : flows) {
    EXPECT_EQ(run.delivered_per_flow[f.id], f.bytes) << "flow " << f.id;
  }
}

TEST(TransferStatsTest, ZeroPacketEdgeCases) {
  TransferStats empty;
  EXPECT_EQ(empty.Makespan(), 0u);
  EXPECT_DOUBLE_EQ(empty.Throughput(), 0.0);
  EXPECT_DOUBLE_EQ(empty.AvgIntermediateHops(), 0.0);  // no 0/0
}

TEST(TransferStatsTest, MakespanClampsInvertedWindow) {
  // A flow can become available after the last (unrelated) delivery;
  // the makespan must clamp to zero instead of wrapping the uint64.
  TransferStats st;
  st.first_available = 100;
  st.last_delivery = 40;
  EXPECT_EQ(st.Makespan(), 0u);
  EXPECT_DOUBLE_EQ(st.Throughput(), 0.0);
}

TEST(TransferStatsTest, DirectTrafficHasZeroIntermediateHops) {
  TransferStats st;
  st.packets = 10;
  st.packet_hops = 10;  // every packet delivered on its first hop
  EXPECT_DOUBLE_EQ(st.AvgIntermediateHops(), 0.0);
  st.packet_hops = 25;
  EXPECT_DOUBLE_EQ(st.AvgIntermediateHops(), 1.5);
}

TEST(TransferEngineTest, WireBytesAtLeastPayload) {
  std::vector<Flow> flows{{0, 0, 7, 64 * kMiB, 0, 0.0, {}}};
  auto run = RunFlows(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows);
  // Multi-hop traffic traverses more wire than payload delivered.
  EXPECT_GE(run.stats.wire_bytes, run.stats.payload_bytes);
}

TEST(TransferEngineTest, UtilizationReportListsBusyLinks) {
  sim::Simulator s;
  auto topo = MakeDgx1V();
  auto policy = MakePolicy(PolicyKind::kAdaptive);
  TransferEngine eng(&s, topo.get(), {0, 1}, policy.get(), {});
  eng.AddFlow(Flow{0, 0, 1, 64 * kMiB, 0, 0.0, {}});
  eng.Start();
  s.Run();
  const std::string report = eng.links().UtilizationReport(
      eng.stats().Makespan());
  EXPECT_NE(report.find("NVLink"), std::string::npos);
  EXPECT_NE(report.find("util"), std::string::npos);
}

TEST(TransferEngineTest, Dgx2SixteenGpuAllToAllCompletes) {
  // On the NVSwitch-style 16-GPU machine every pair has a dedicated
  // NVLink, so adaptive routing should stay essentially direct.
  sim::Simulator s;
  auto topo = topo::MakeDgx2();
  auto policy = MakePolicy(PolicyKind::kAdaptive);
  TransferEngine eng(&s, topo.get(), topo::AllGpus(*topo), policy.get(),
                     {});
  std::uint64_t id = 0, total = 0;
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      if (a == b) continue;
      eng.AddFlow(Flow{id++, a, b, 8 * kMiB, 0, 0.0, {}});
      total += 8 * kMiB;
    }
  }
  eng.Start();
  s.Run();
  EXPECT_TRUE(eng.AllDone());
  EXPECT_EQ(eng.stats().payload_bytes, total);
  EXPECT_LT(eng.stats().AvgIntermediateHops(), 0.05);
}

TEST(TransferEngineTest, ThroughputSaneForSingleNvLinkFlow) {
  auto run = RunFlows(PolicyKind::kDirect, {0, 1},
                      {Flow{0, 0, 1, 1 * kGiB, 0, 0.0, {}}});
  const double gbps = run.stats.Throughput() / kGBps;
  // One NV1 link at 2 MiB packets: ~22 GB/s effective, minus batch
  // overheads; with 2 DMA engines the link stays saturated.
  EXPECT_GT(gbps, 15.0);
  EXPECT_LT(gbps, 25.1);
}

}  // namespace
}  // namespace mgjoin::net
