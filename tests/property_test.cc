// Property-based tests: invariants that must hold across broad parameter
// sweeps — payload conservation in the network under every policy and
// buffer configuration, route well-formedness on every fabric, ARM
// monotonicity, compression round-trips on adversarial inputs, and
// assignment completeness under skew.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "common/units.h"
#include "data/compression.h"
#include "data/generator.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "join/partition_assignment.h"
#include "net/fault_plan.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

// ---------------------------------------------------------------------------
// Network conservation: every byte injected is delivered exactly once,
// for every (policy, ring size, packet size, gpu count) combination.

struct NetCase {
  net::PolicyKind policy;
  std::uint64_t ring_bytes;
  std::uint64_t packet_bytes;
  int num_gpus;
};

class NetConservationTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetConservationTest, EveryByteDeliveredOnce) {
  const NetCase c = GetParam();
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();
  net::TransferOptions opts;
  opts.ring_buffer_bytes = c.ring_bytes;
  opts.packet_bytes = c.packet_bytes;
  auto policy = net::MakePolicy(c.policy, opts.max_intermediates);
  const auto gpus = topo::FirstNGpus(c.num_gpus);
  net::TransferEngine eng(&s, topo.get(), gpus, policy.get(), opts);

  std::map<std::uint64_t, std::uint64_t> delivered;
  eng.set_deliver_callback([&](const net::Packet& p, sim::SimTime) {
    delivered[p.flow_id] += p.payload_bytes;
  });

  Rng rng(c.num_gpus * 977 + c.packet_bytes);
  std::map<std::uint64_t, std::uint64_t> expected;
  std::uint64_t id = 0;
  for (int a = 0; a < c.num_gpus; ++a) {
    for (int b = 0; b < c.num_gpus; ++b) {
      if (a == b) continue;
      const std::uint64_t bytes = 1 + rng.Uniform(24 * kMiB);
      expected[id] = bytes;
      eng.AddFlow(net::Flow{id++, gpus[a], gpus[b], bytes, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone());
  EXPECT_EQ(delivered, expected);
  // Wire bytes never lie below payload (forwarding only adds traffic).
  EXPECT_GE(eng.stats().wire_bytes, eng.stats().payload_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetConservationTest,
    ::testing::Values(
        NetCase{net::PolicyKind::kAdaptive, 4 * kMiB, 2 * kMiB, 8},
        NetCase{net::PolicyKind::kAdaptive, 64 * kMiB, 2 * kMiB, 8},
        NetCase{net::PolicyKind::kAdaptive, 8 * kMiB, 512 * kKiB, 5},
        NetCase{net::PolicyKind::kBandwidth, 16 * kMiB, 2 * kMiB, 8},
        NetCase{net::PolicyKind::kBandwidth, 4 * kMiB, 1 * kMiB, 6},
        NetCase{net::PolicyKind::kLatency, 16 * kMiB, 2 * kMiB, 7},
        NetCase{net::PolicyKind::kHopCount, 16 * kMiB, 4 * kMiB, 8},
        NetCase{net::PolicyKind::kDirect, 64 * kMiB, 16 * kMiB, 8},
        NetCase{net::PolicyKind::kCentralized, 16 * kMiB, 2 * kMiB, 4},
        NetCase{net::PolicyKind::kAdaptive, 4 * kMiB, 256 * kKiB, 3},
        NetCase{net::PolicyKind::kAdaptive, 16 * kMiB, 2 * kMiB, 2}));

// ---------------------------------------------------------------------------
// Fault schedules: any plan whose downed links eventually come back is
// survivable. Random GPU subsets, random link faults, random policies —
// every byte must still arrive exactly once, with no payload loss and
// no deadlock-watchdog trip.

class FaultScheduleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultScheduleFuzzTest, SurvivablePlansDeliverEverything) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9ull + 17);
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();

  // Random participant subset of at least two GPUs.
  std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(&all);
  const int g = 2 + static_cast<int>(rng.Uniform(7));
  std::vector<int> gpus(all.begin(), all.begin() + g);
  std::sort(gpus.begin(), gpus.end());

  // Random survivable plan: every down is paired with a later restore
  // (degrades need no repair — the link keeps carrying traffic).
  net::FaultPlan plan;
  std::set<int> used;
  const int num_faults = 1 + static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < num_faults; ++i) {
    const int link = static_cast<int>(
        rng.Uniform(static_cast<std::uint64_t>(topo->num_links())));
    if (!used.insert(link).second) continue;
    const sim::SimTime at = rng.Uniform(2 * sim::kMillisecond);
    const sim::SimTime hold =
        100 * sim::kMicrosecond + rng.Uniform(2 * sim::kMillisecond);
    if (rng.Uniform(3) == 0) {
      plan.Degrade(link, 0.1 + 0.8 * rng.NextDouble(), at);
    } else {
      plan.Down(link, at);
      plan.Restore(link, at + hold);
    }
  }

  net::TransferOptions opts;
  opts.faults = plan;
  obs::InvariantAuditor auditor;
  std::vector<std::string> failures;
  auditor.set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  opts.obs.auditor = &auditor;
  const net::PolicyKind kinds[] = {net::PolicyKind::kAdaptive,
                                   net::PolicyKind::kBandwidth,
                                   net::PolicyKind::kDirect};
  auto policy = net::MakePolicy(kinds[rng.Uniform(3)],
                                opts.max_intermediates);
  net::TransferEngine eng(&s, topo.get(), gpus, policy.get(), opts);

  std::map<std::uint64_t, std::uint64_t> delivered, expected;
  eng.set_deliver_callback([&delivered](const net::Packet& p, sim::SimTime) {
    delivered[p.flow_id] += p.payload_bytes;
  });
  std::uint64_t id = 0;
  for (int a : gpus) {
    for (int b : gpus) {
      if (a == b) continue;
      const std::uint64_t bytes = 1 + rng.Uniform(4 * kMiB);
      expected[id] = bytes;
      eng.AddFlow(net::Flow{id++, a, b, bytes, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone()) << plan.ToString(*topo);
  EXPECT_EQ(delivered, expected) << plan.ToString(*topo);
  EXPECT_TRUE(failures.empty())
      << "auditor tripped: " << failures.front() << "\nplan:\n"
      << plan.ToString(*topo);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleFuzzTest,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Route invariants over every pair on both machines.

TEST(RoutePropertyTest, AllRoutesAreSimplePathsOverRealChannels) {
  for (auto make : {topo::MakeDgx1V, topo::MakeDgxStation}) {
    auto topo = make();
    for (int a = 0; a < topo->num_gpus(); ++a) {
      for (int b = 0; b < topo->num_gpus(); ++b) {
        if (a == b) continue;
        for (int max_int : {0, 1, 3}) {
          const auto& routes = topo->EnumerateRoutes(a, b, max_int);
          ASSERT_FALSE(routes.empty());
          for (const topo::Route& r : routes) {
            EXPECT_EQ(r.gpus.front(), a);
            EXPECT_EQ(r.gpus.back(), b);
            EXPECT_LE(r.intermediates(), max_int);
            std::set<int> uniq(r.gpus.begin(), r.gpus.end());
            EXPECT_EQ(uniq.size(), r.gpus.size()) << r.ToString();
            for (std::size_t i = 0; i + 1 < r.gpus.size(); ++i) {
              // Every hop resolves to a physical channel.
              EXPECT_FALSE(
                  topo->channel(r.gpus[i], r.gpus[i + 1]).path.empty());
            }
          }
        }
      }
    }
  }
}

TEST(RoutePropertyTest, PoliciesAlwaysReturnValidRoutes) {
  auto topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());
  for (net::PolicyKind kind :
       {net::PolicyKind::kDirect, net::PolicyKind::kBandwidth,
        net::PolicyKind::kHopCount, net::PolicyKind::kLatency,
        net::PolicyKind::kAdaptive, net::PolicyKind::kCentralized}) {
    auto policy = net::MakePolicy(kind);
    for (int a = 0; a < 8; ++a) {
      for (int b = 0; b < 8; ++b) {
        if (a == b) continue;
        for (std::uint64_t bytes : {64 * kKiB, 2 * kMiB, 16 * kMiB}) {
          const topo::Route r = policy->ChooseRoute(a, b, bytes, 8, links);
          EXPECT_EQ(r.gpus.front(), a) << net::PolicyKindName(kind);
          EXPECT_EQ(r.gpus.back(), b);
          EXPECT_LE(r.intermediates(), 3);
        }
      }
    }
  }
}

TEST(RoutePropertyTest, ArmIsMonotoneInCongestion) {
  // Adding load to any link of a route never decreases its ARM value.
  auto topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());
  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    const int a = static_cast<int>(rng.Uniform(8));
    int b = static_cast<int>(rng.Uniform(8));
    if (a == b) b = (b + 1) % 8;
    const auto& routes = topo->EnumerateRoutes(a, b, 3);
    const topo::Route& r =
        routes[static_cast<std::size_t>(rng.Uniform(routes.size()))];
    const sim::SimTime before =
        net::ArmValue(r, 2 * kMiB, 8, links, /*published=*/false);
    const std::size_t hop = rng.Uniform(r.gpus.size() - 1);
    links.ReserveChannel(topo->channel(r.gpus[hop], r.gpus[hop + 1]),
                         4 * kMiB);
    const sim::SimTime after =
        net::ArmValue(r, 2 * kMiB, 8, links, /*published=*/false);
    EXPECT_GE(after, before) << r.ToString();
  }
}

// Reference routing: the per-call algorithms written directly over
// Topology::EnumerateRoutes and ArmValue, independent of the policies'
// route tables. The policies must agree with it decision for decision.
topo::Route ReferenceRoute(net::PolicyKind kind,
                           const std::vector<bool>& mask, int src, int dst,
                           std::uint64_t packet_bytes, int num_packets,
                           const net::LinkStateTable& state) {
  const topo::Topology& topo = state.topo();
  std::vector<topo::Route> routes;
  for (const topo::Route& r : topo.EnumerateRoutes(src, dst, 3)) {
    bool allowed = true;
    for (int g : r.gpus) allowed = allowed && (mask.empty() || mask[g]);
    if (allowed) routes.push_back(r);
  }
  switch (kind) {
    case net::PolicyKind::kDirect:
    case net::PolicyKind::kHopCount: {
      const topo::Route direct{{src, dst}};
      if (state.RouteAvailable(direct)) return direct;
      for (const topo::Route& r : routes) {
        if (state.RouteAvailable(r)) return r;
      }
      return direct;
    }
    case net::PolicyKind::kBandwidth:
    case net::PolicyKind::kLatency:
      for (int pass = 0; pass < 2; ++pass) {
        const topo::Route* best = nullptr;
        double best_bw = -1;
        sim::SimTime best_lat = sim::kSimTimeMax;
        for (const topo::Route& r : routes) {
          if (pass == 0 && !state.RouteAvailable(r)) continue;
          const double bw = topo.RouteBottleneckBandwidth(r, packet_bytes);
          bool better;
          if (kind == net::PolicyKind::kBandwidth) {
            better = bw > best_bw * (1 + 1e-9) ||
                     (bw > best_bw * (1 - 1e-9) && best != nullptr &&
                      r.hops() < best->hops());
          } else {
            const sim::SimTime lat = topo.RouteLatency(r);
            better = lat < best_lat || (lat == best_lat && bw > best_bw);
            if (better) best_lat = lat;
          }
          if (better) {
            best_bw = bw;
            best = &r;
          }
        }
        if (best != nullptr) return *best;
      }
      ADD_FAILURE() << "no allowed route";
      return {};
    case net::PolicyKind::kAdaptive:
    case net::PolicyKind::kCentralized: {
      const bool published = kind == net::PolicyKind::kAdaptive;
      const topo::Route* best = nullptr;
      const topo::Route* direct = nullptr;
      sim::SimTime best_arm = sim::kSimTimeMax;
      sim::SimTime direct_arm = sim::kSimTimeMax;
      for (const topo::Route& r : routes) {
        const sim::SimTime arm =
            net::ArmValue(r, packet_bytes, num_packets, state, published);
        if (r.hops() == 1) {
          direct = &r;
          direct_arm = arm;
        }
        if (best == nullptr || arm < best_arm) {
          best_arm = arm;
          best = &r;
        }
      }
      if (best == nullptr) {
        ADD_FAILURE() << "no allowed route";
        return {};
      }
      // Adaptive's 1/6 hysteresis toward the direct route.
      if (published && direct != nullptr && best != direct &&
          direct_arm != net::kUnreachableArm &&
          direct_arm - best_arm <= best_arm / 6) {
        return *direct;
      }
      return *best;
    }
  }
  return {};
}

constexpr net::PolicyKind kAllPolicies[] = {
    net::PolicyKind::kDirect,   net::PolicyKind::kBandwidth,
    net::PolicyKind::kHopCount, net::PolicyKind::kLatency,
    net::PolicyKind::kAdaptive, net::PolicyKind::kCentralized};

// Loads the fabric: reserves random available channels, lets some
// broadcasts propagate, then reserves more so that published and true
// queue delays differ.
void LoadRandomChannels(Rng* rng, sim::Simulator* s,
                        net::LinkStateTable* links, int reservations) {
  const topo::Topology& topo = links->topo();
  const int g = topo.num_gpus();
  for (int phase = 0; phase < 2; ++phase) {
    for (int i = 0; i < reservations; ++i) {
      const int a = static_cast<int>(rng->Uniform(g));
      const int b = (a + 1 + static_cast<int>(rng->Uniform(g - 1))) % g;
      const topo::Channel& ch = topo.channel(a, b);
      if (!links->ChannelAvailable(ch)) continue;
      links->ReserveChannel(ch, 64 * kKiB + rng->Uniform(8 * kMiB));
    }
    if (phase == 0) {
      s->RunUntil(s->Now() + 10 * sim::kMicrosecond +
                  rng->Uniform(40 * sim::kMicrosecond));
    }
  }
}

// Every policy's table-driven ChooseRoute equals the reference, under
// random link load (published != true delays), downed and degraded
// links, batch sizes 1..8, three packet sizes, full and partial
// participant masks, on DGX-1V (even seeds) and DGX-2 (odd seeds). One
// policy object per mask serves every decision, so the packet-size
// keying is exercised too.
void CheckPoliciesMatchReference(int seed) {
  const bool dgx2 = seed % 2 == 1;
  Rng rng(static_cast<std::uint64_t>(seed) * 0x2545F491ull + 3);
  auto topo = dgx2 ? topo::MakeDgx2() : topo::MakeDgx1V();
  const int g = topo->num_gpus();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());

  // Faults land between load steps: downs (some restored) and degrades.
  net::FaultPlan plan;
  const int num_faults = 2 + static_cast<int>(rng.Uniform(dgx2 ? 24 : 8));
  for (int i = 0; i < num_faults; ++i) {
    const int link = static_cast<int>(rng.Uniform(topo->num_links()));
    const sim::SimTime at = rng.Uniform(300 * sim::kMicrosecond);
    if (i > 0 && rng.Uniform(3) == 0) {
      plan.Degrade(link, 0.1 + 0.8 * rng.NextDouble(), at);
    } else {
      plan.Down(link, at);
      if (rng.Uniform(2) == 0) {
        plan.Restore(link, at + rng.Uniform(200 * sim::kMicrosecond));
      }
    }
  }
  links.ApplyFaultPlan(plan);

  // Mask 0: no restriction; mask 1: a random subset of >= 3 GPUs.
  std::vector<int> order(g);
  for (int i = 0; i < g; ++i) order[i] = i;
  rng.Shuffle(&order);
  const int subset = 3 + static_cast<int>(rng.Uniform(g - 3));
  std::vector<bool> partial(g, false);
  for (int i = 0; i < subset; ++i) partial[order[i]] = true;
  const std::vector<std::vector<bool>> masks{{}, partial};

  std::vector<std::vector<std::unique_ptr<net::RoutingPolicy>>> policies(
      masks.size());
  for (std::size_t m = 0; m < masks.size(); ++m) {
    for (net::PolicyKind kind : kAllPolicies) {
      policies[m].push_back(net::MakePolicy(kind));
      policies[m].back()->SetParticipants(masks[m]);
    }
  }

  const std::uint64_t sizes[] = {64 * kKiB, 2 * kMiB, 16 * kMiB};
  int decisions = 0, faulted = 0, detours = 0;
  for (int step = 0; step < 12; ++step) {
    LoadRandomChannels(&rng, &s, &links, dgx2 ? 48 : 16);
    if (!links.availability().AllUp()) ++faulted;
    for (int q = 0; q < (dgx2 ? 3 : 24); ++q) {
      for (std::size_t m = 0; m < masks.size(); ++m) {
        const std::vector<int> members =
            m == 0 ? std::vector<int>(order.begin(), order.end())
                   : std::vector<int>(order.begin(), order.begin() + subset);
        const std::size_t si = rng.Uniform(members.size());
        const std::size_t di =
            (si + 1 + rng.Uniform(members.size() - 1)) % members.size();
        const int src = members[si];
        const int dst = members[di];
        const std::uint64_t bytes = sizes[rng.Uniform(3)];
        const int n = 1 + static_cast<int>(rng.Uniform(8));
        for (std::size_t k = 0; k < std::size(kAllPolicies); ++k) {
          const topo::Route& got =
              policies[m][k]->ChooseRoute(src, dst, bytes, n, links);
          const topo::Route want = ReferenceRoute(
              kAllPolicies[k], masks[m], src, dst, bytes, n, links);
          ASSERT_EQ(got.gpus, want.gpus)
              << net::PolicyKindName(kAllPolicies[k]) << " " << src
              << "->" << dst << " bytes=" << bytes << " n=" << n
              << " mask=" << m << " step=" << step << "\n"
              << links.HealthReport();
          ++decisions;
          if (got.hops() > 1) ++detours;
        }
      }
    }
  }
  // The sweep must have seen detours and a faulted fabric, or it proved
  // nothing about the paths that differ from the direct route.
  EXPECT_GT(decisions, 0);
  EXPECT_GT(detours, 0);
  EXPECT_GT(faulted, 0);
}

TEST(RoutePropertyTest, PoliciesMatchReferenceDecisions) {
  for (int seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckPoliciesMatchReference(seed);
  }
}

TEST(RoutePropertyTest, RouteTableFollowsParticipantsAndPacketSize) {
  // One policy re-armed across masks and packet sizes must choose
  // exactly what a freshly made policy chooses for the same inputs.
  auto topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());
  Rng rng(11);
  LoadRandomChannels(&rng, &s, &links, 24);
  std::vector<bool> full(8, true);
  std::vector<bool> partial(8, false);
  partial[0] = partial[3] = partial[7] = true;
  for (net::PolicyKind kind : kAllPolicies) {
    auto reused = net::MakePolicy(kind);
    int differs = 0;
    for (const std::vector<bool>* mask : {&full, &partial, &full}) {
      reused->SetParticipants(*mask);
      for (std::uint64_t bytes : {64 * kKiB, 16 * kMiB, 64 * kKiB}) {
        auto fresh = net::MakePolicy(kind);
        fresh->SetParticipants(*mask);
        for (int a = 0; a < 8; ++a) {
          for (int b = 0; b < 8; ++b) {
            if (a == b || !(*mask)[a] || !(*mask)[b]) continue;
            for (int n : {1, 8}) {
              const topo::Route& got =
                  reused->ChooseRoute(a, b, bytes, n, links);
              const topo::Route& want =
                  fresh->ChooseRoute(a, b, bytes, n, links);
              EXPECT_EQ(got.gpus, want.gpus)
                  << net::PolicyKindName(kind) << " " << a << "->" << b;
              if (mask == &partial && a == 0 && b == 7) {
                const topo::Route unmasked =
                    ReferenceRoute(kind, full, a, b, bytes, n, links);
                if (unmasked.gpus != got.gpus) ++differs;
              }
            }
          }
        }
      }
    }
    // Static and adaptive policies detour 0->7 over NVLink on the full
    // machine; the partial mask must force them back to direct.
    if (kind != net::PolicyKind::kDirect &&
        kind != net::PolicyKind::kHopCount) {
      EXPECT_GT(differs, 0) << net::PolicyKindName(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Compression round-trip on adversarial random inputs.

class CompressionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressionFuzzTest, RandomPartitionsRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const int domain_bits = 8 + static_cast<int>(rng.Uniform(24));
    const int radix_bits =
        1 + static_cast<int>(rng.Uniform(std::min(domain_bits, 14)));
    const std::uint32_t partition = static_cast<std::uint32_t>(
        rng.Uniform(1u << radix_bits));
    const std::size_t n = rng.Uniform(6000);
    const int suffix = domain_bits - radix_bits;
    std::vector<data::Tuple> tuples(n);
    for (auto& t : tuples) {
      t.key = (partition << suffix) |
              static_cast<std::uint32_t>(rng.Uniform(1ull << suffix));
      t.id = static_cast<std::uint32_t>(rng.Next());
    }
    auto cp = data::CompressPartition(tuples.data(), n, partition,
                                      domain_bits, radix_bits);
    ASSERT_TRUE(cp.ok());
    auto back = data::DecompressPartition(cp.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), tuples)
        << "domain=" << domain_bits << " radix=" << radix_bits
        << " n=" << n;
    // The estimator stays within a block header of the real payload.
    const std::uint64_t est = data::EstimateCompressedBytes(
        tuples.data(), n, domain_bits, radix_bits);
    if (n > 0) {
      const double rel =
          std::abs(static_cast<double>(est) -
                   static_cast<double>(cp.value().WireBytes())) /
          static_cast<double>(cp.value().WireBytes());
      EXPECT_LT(rel, 0.05);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Assignment invariants under skew sweeps.

class AssignmentPropertyTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(AssignmentPropertyTest, CoversAllPartitionsAndBoundsLoad) {
  const auto [key_z, place_z] = GetParam();
  auto topo = topo::MakeDgx1V();
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 17;
  gen.num_gpus = 8;
  gen.key_zipf = key_z;
  gen.placement_zipf = place_z;
  auto [r, s] = data::MakeJoinInput(gen);
  const auto hr = join::BuildHistograms(r, 10);
  const auto hs = join::BuildHistograms(s, 10);
  const auto pa = join::ComputeAssignment(*topo, topo::FirstNGpus(8), hr,
                                          hs, join::AssignmentOptions{});
  std::vector<std::uint64_t> load(8, 0);
  for (std::uint32_t p = 0; p < hr.num_partitions(); ++p) {
    ASSERT_FALSE(pa.owners[p].empty()) << "unassigned partition " << p;
    std::set<int> uniq(pa.owners[p].begin(), pa.owners[p].end());
    EXPECT_EQ(uniq.size(), pa.owners[p].size());
    for (int o : pa.owners[p]) {
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 8);
      load[o] += hr.PartitionTotal(p) + hs.PartitionTotal(p);
    }
  }
  // No GPU may end up with more than half the key-matching work.
  const std::uint64_t total = r.TotalTuples() + s.TotalTuples();
  for (int g = 0; g < 8; ++g) {
    EXPECT_LT(load[g], total) << "GPU " << g << " overloaded";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Skews, AssignmentPropertyTest,
    ::testing::Values(std::make_pair(0.0, 0.0), std::make_pair(0.5, 0.0),
                      std::make_pair(1.0, 0.0), std::make_pair(0.0, 1.0),
                      std::make_pair(1.0, 1.0),
                      std::make_pair(1.5, 0.5)));

// ---------------------------------------------------------------------------
// End-to-end join equivalence: every backend configuration produces the
// reference answer on the same skewed input.

class JoinEquivalenceTest
    : public ::testing::TestWithParam<net::PolicyKind> {};

TEST_P(JoinEquivalenceTest, PolicyDoesNotChangeTheAnswer) {
  auto topo = topo::MakeDgx1V();
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 16;
  gen.num_gpus = 8;
  gen.key_zipf = 0.75;
  gen.placement_zipf = 0.5;
  auto [r, s] = data::MakeJoinInput(gen);
  const join::LocalJoinStats ref = join::ReferenceJoin(r, s);

  join::MgJoinOptions opts;
  opts.policy = GetParam();
  const auto res = join::MgJoin(topo.get(), topo::FirstNGpus(8), opts)
                       .Execute(r, s)
                       .ValueOrDie();
  EXPECT_EQ(res.matches, ref.matches);
  EXPECT_EQ(res.checksum, ref.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, JoinEquivalenceTest,
    ::testing::Values(net::PolicyKind::kDirect, net::PolicyKind::kBandwidth,
                      net::PolicyKind::kHopCount, net::PolicyKind::kLatency,
                      net::PolicyKind::kAdaptive,
                      net::PolicyKind::kCentralized));

// ---------------------------------------------------------------------------
// Pair materialization matches the counting path.

TEST(MaterializePropertyTest, PairsMatchCountsAndChecksum) {
  auto topo = topo::MakeDgx1V();
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 15;
  gen.num_gpus = 4;
  gen.key_zipf = 0.9;
  auto [r, s] = data::MakeJoinInput(gen);

  join::MgJoinOptions opts;
  opts.materialize_pairs = true;
  const auto res = join::MgJoin(topo.get(), topo::FirstNGpus(4), opts)
                       .Execute(r, s)
                       .ValueOrDie();
  ASSERT_EQ(res.pairs.size(), res.matches);
  // Recompute the checksum from the materialized pairs.
  std::uint64_t checksum = 0;
  for (const auto& [a, b] : res.pairs) {
    join::AccumulateMatch(a, b, &checksum);
  }
  EXPECT_EQ(checksum, res.checksum);
}

}  // namespace
}  // namespace mgjoin
