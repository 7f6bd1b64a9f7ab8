// Tests for the multi-tenant service layer: link-arbitration semantics
// in LinkStateTable, source pacing in the transfer engine, and the
// query scheduler's admission / SLO accounting (DESIGN.md Sec 15).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/units.h"
#include "data/generator.h"
#include "join/local_join.h"
#include "net/fault_plan.h"
#include "net/link_state.h"
#include "net/packet.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "svc/service.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

using net::ArbitrationKind;
using net::Flow;
using net::LinkStateTable;
using net::Packet;
using net::TransferEngine;
using net::TransferOptions;
using topo::MakeDgx1V;

// ---------------------------------------------------------------------------
// LinkStateTable arbitration semantics.

class ArbitrationTest : public ::testing::Test {
 protected:
  ArbitrationTest() : topo_(MakeDgx1V()), links_(&sim_, topo_.get()) {}
  sim::Simulator sim_;
  std::unique_ptr<topo::Topology> topo_;
  LinkStateTable links_;
};

TEST_F(ArbitrationTest, FifoNeverPaces) {
  links_.RegisterQuery(1, 0);
  links_.RegisterQuery(2, 7);
  const topo::Channel& ch = topo_->channel(0, 1);
  links_.ReserveChannel(ch, 2 * kMiB, 1);
  links_.ReserveChannel(ch, 2 * kMiB, 2);
  EXPECT_EQ(links_.QueryReleaseTime(1, ch.path[0]), 0u);
  EXPECT_EQ(links_.QueryReleaseTime(2, ch.path[0]), 0u);
}

TEST_F(ArbitrationTest, UnregisteredQueryDegradesToFifo) {
  links_.set_arbitration(ArbitrationKind::kPriority);
  const topo::Channel& ch = topo_->channel(0, 1);
  links_.ReserveChannel(ch, 2 * kMiB, 999);
  EXPECT_EQ(links_.QueryReleaseTime(999, ch.path[0]), 0u);
  EXPECT_EQ(links_.QueryReleaseTime(LinkStateTable::kNoQuery, ch.path[0]),
            0u);
}

TEST_F(ArbitrationTest, PriorityPacesLowerClassOnly) {
  links_.set_arbitration(ArbitrationKind::kPriority);
  links_.RegisterQuery(1, 0);  // low class
  links_.RegisterQuery(2, 5);  // high class
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  links_.ReserveChannel(ch, 2 * kMiB, 2);
  links_.ReserveChannel(ch, 2 * kMiB, 1);
  // The high class has no competition above it: never paced.
  EXPECT_EQ(links_.QueryReleaseTime(2, ld), 0u);
  // The low class owes virtual time, capped at one tick past the wire
  // horizon (work conservation: an idle direction always re-opens).
  const sim::SimTime release = links_.QueryReleaseTime(1, ld);
  EXPECT_GT(release, sim_.Now());
  EXPECT_LE(release, sim_.Now() + links_.TrueQueueDelay(ld) + 1);
  // A tenant that never touched the direction has no debt there.
  EXPECT_EQ(links_.QueryReleaseTime(1, topo_->channel(2, 3).path[0]), 0u);
  // Once the high class finishes, the low class is immediately free.
  links_.UnregisterQuery(2);
  EXPECT_EQ(links_.QueryReleaseTime(1, ld), 0u);
}

TEST_F(ArbitrationTest, FairSharePacesOnlyUnderCompetition) {
  links_.set_arbitration(ArbitrationKind::kFairShare);
  links_.RegisterQuery(1);
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  links_.ReserveChannel(ch, 2 * kMiB, 1);
  // Alone on the direction: fair-share degrades to FIFO.
  EXPECT_EQ(links_.QueryReleaseTime(1, ld), 0u);
  links_.RegisterQuery(2);
  links_.ReserveChannel(ch, 2 * kMiB, 2);
  // A competitor arrived: the first tenant's debt now bites.
  EXPECT_GT(links_.QueryReleaseTime(1, ld), sim_.Now());
  links_.UnregisterQuery(2);
  EXPECT_EQ(links_.QueryReleaseTime(1, ld), 0u);
}

TEST_F(ArbitrationTest, PacingNeverExceedsWireHorizon) {
  links_.set_arbitration(ArbitrationKind::kPriority);
  links_.RegisterQuery(1, 0);
  links_.RegisterQuery(2, 5);
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  for (int i = 0; i < 4; ++i) links_.ReserveChannel(ch, 8 * kMiB, 2);
  links_.ReserveChannel(ch, 8 * kMiB, 1);
  const sim::SimTime horizon = links_.TrueQueueDelay(ld);
  ASSERT_GT(horizon, 0u);
  // However much virtual time the low class owes, the gate re-checks
  // one tick past the horizon so pacing cannot strand an idle wire.
  EXPECT_LE(links_.QueryReleaseTime(1, ld), horizon + 1);
  // Jump past the backlog: the wire is idle, so the release no longer
  // lies in the future even though the debt was never voided.
  sim_.ScheduleAt(horizon + 2, [] {});
  sim_.Run();
  EXPECT_LE(links_.QueryReleaseTime(1, ld), sim_.Now());
}

// ---------------------------------------------------------------------------
// Transfer-engine source pacing.

struct TenancyRun {
  net::TransferStats stats;
  std::map<std::uint64_t, sim::SimTime> last_delivery;  // by query id
};

// Three flows over the single 0->1 channel: a small high-class lead
// (so the high tenant touches the direction early), the low tenant's
// bulk, then the high tenant's bulk queued *behind* it. Under FIFO the
// queue order wins; under strict priority the high class must overtake
// through the arbitration gate's reorder window.
TenancyRun RunContendedPair(ArbitrationKind kind) {
  sim::Simulator s;
  auto topo = MakeDgx1V();
  auto policy = net::MakePolicy(net::PolicyKind::kDirect);
  TransferOptions options;
  options.arbitration = kind;
  options.packet_bytes = 1 * kMiB;
  TransferEngine eng(&s, topo.get(), {0, 1}, policy.get(), options);
  TenancyRun run;
  std::map<std::uint64_t, std::uint64_t> flow_query = {{1, 2}, {2, 1},
                                                       {3, 2}};
  eng.set_deliver_callback(
      [&run, &flow_query](const Packet& p, sim::SimTime when) {
        sim::SimTime& last = run.last_delivery[flow_query.at(p.flow_id)];
        last = std::max(last, when);
      });
  Flow lead{1, 0, 1, 2 * kMiB, 0, 0.0, 7, {}};
  lead.tag.query_id = 2;
  Flow low{2, 0, 1, 32 * kMiB, 0, 0.0, 0, {}};
  low.tag.query_id = 1;
  Flow bulk{3, 0, 1, 32 * kMiB, 0, 0.0, 7, {}};
  bulk.tag.query_id = 2;
  eng.AddFlow(lead);
  eng.AddFlow(low);
  eng.AddFlow(bulk);
  eng.Start();
  s.Run();
  EXPECT_TRUE(eng.AllDone());
  run.stats = eng.stats();
  return run;
}

TEST(TransferArbitrationTest, StrictPriorityOvertakesQueueOrder) {
  const TenancyRun fifo = RunContendedPair(ArbitrationKind::kFifo);
  const TenancyRun prio = RunContendedPair(ArbitrationKind::kPriority);
  // FIFO serves in queue order: the low tenant's bulk (queued first)
  // completes before the high tenant's bulk behind it.
  EXPECT_LT(fifo.last_delivery.at(1), fifo.last_delivery.at(2));
  EXPECT_EQ(fifo.stats.arb_paces, 0u);
  // Strict priority inverts that: the high class finishes first even
  // though its bulk sat behind 32 MiB of low-class packets.
  EXPECT_LT(prio.last_delivery.at(2), prio.last_delivery.at(1));
  EXPECT_GT(prio.stats.arb_paces, 0u);
  // Work conservation: reordering who goes first must not stretch the
  // overall drain of a saturated link by more than rounding.
  const double fifo_span = static_cast<double>(fifo.stats.last_delivery);
  const double prio_span = static_cast<double>(prio.stats.last_delivery);
  EXPECT_LT(prio_span, 1.10 * fifo_span);
}

TEST(TransferArbitrationTest, FairShareRemovesHeadStart) {
  const TenancyRun fifo = RunContendedPair(ArbitrationKind::kFifo);
  const TenancyRun fair = RunContendedPair(ArbitrationKind::kFairShare);
  // Under FIFO the first-queued tenant keeps a large head start; fair
  // share interleaves the two, pushing its completion later.
  EXPECT_GT(fair.last_delivery.at(1), fifo.last_delivery.at(1));
  EXPECT_GT(fair.stats.arb_paces, 0u);
  const double fifo_span = static_cast<double>(fifo.stats.last_delivery);
  const double fair_span = static_cast<double>(fair.stats.last_delivery);
  EXPECT_LT(fair_span, 1.10 * fifo_span);
}

// ---------------------------------------------------------------------------
// Query scheduler.

svc::QuerySpec SmallQuery(std::uint64_t id, int priority = 0,
                          sim::SimTime submit_at = 0) {
  svc::QuerySpec q;
  q.query_id = id;
  q.gen.tuples_per_relation = 1 << 14;
  q.gen.seed = 42 + id;
  q.priority = priority;
  q.submit_at = submit_at;
  return q;
}

TEST(QuerySchedulerTest, SingleQueryHasUnitSlowdown) {
  auto topo = MakeDgx1V();
  svc::ServiceOptions opts;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  const auto res = sched.Run({SmallQuery(1)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& out = res.value().tenancy;
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_GT(out.queries[0].matches, 0u);
  EXPECT_EQ(out.queries[0].QueueDelay(), 0u);
  // Alone on the fabric, the shared run IS the solo run.
  EXPECT_DOUBLE_EQ(out.queries[0].Slowdown(), 1.0);
}

TEST(QuerySchedulerTest, InflightLimitSerializesAdmissions) {
  auto topo = MakeDgx1V();
  svc::ServiceOptions opts;
  opts.inflight_limit = 1;
  opts.measure_solo = false;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  const auto res =
      sched.Run({SmallQuery(1), SmallQuery(2), SmallQuery(3)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& qs = res.value().tenancy.queries;
  ASSERT_EQ(qs.size(), 3u);
  // One at a time: each admission waits for the predecessor to finish.
  EXPECT_EQ(qs[0].admit_at, qs[0].submit_at);
  EXPECT_GE(qs[1].admit_at, qs[0].complete_at);
  EXPECT_GE(qs[2].admit_at, qs[1].complete_at);
  EXPECT_GT(qs[2].QueueDelay(), qs[1].QueueDelay());
}

TEST(QuerySchedulerTest, UnlimitedInflightAdmitsAtSubmit) {
  auto topo = MakeDgx1V();
  svc::ServiceOptions opts;
  opts.measure_solo = false;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  const auto res = sched.Run(
      {SmallQuery(1, 0, 0), SmallQuery(2, 1, 0),
       SmallQuery(3, 2, 5 * sim::kMicrosecond)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& out = res.value();
  ASSERT_EQ(out.tenancy.queries.size(), 3u);
  std::uint64_t payload = 0;
  for (const auto& q : out.tenancy.queries) {
    EXPECT_EQ(q.admit_at, q.submit_at);
    EXPECT_GT(q.matches, 0u);
    payload += q.payload_bytes;
  }
  EXPECT_EQ(out.tenancy.queries[2].priority, 2);
  // Per-query FlowTag attribution covers the whole shared fabric: the
  // tenants' payloads sum exactly to the engine's total.
  EXPECT_EQ(payload, out.net.payload_bytes);
  EXPECT_EQ(out.tenancy.slo.count, 3u);
  EXPECT_GE(out.tenancy.slo.p99_ns, out.tenancy.slo.p50_ns);
}

TEST(QuerySchedulerTest, ArbitrationPolicyChangesSloProfile) {
  auto topo = MakeDgx1V();
  const auto gpus = topo::FirstNGpus(4);
  std::vector<svc::QuerySpec> queries;
  for (std::uint64_t q = 1; q <= 4; ++q) {
    queries.push_back(SmallQuery(q, static_cast<int>(q % 2)));
  }
  std::map<std::string, svc::ServiceResult> by_policy;
  for (const ArbitrationKind kind :
       {ArbitrationKind::kFifo, ArbitrationKind::kFairShare,
        ArbitrationKind::kPriority}) {
    svc::ServiceOptions opts;
    opts.arbitration = kind;
    opts.measure_solo = false;
    // Simulate paper-sized flows over the smoke-sized functional input
    // so tenants actually collide on the wire (at the functional size
    // alone every flow drains before anyone owes debt).
    opts.join.virtual_scale = 2048.0;
    svc::QueryScheduler sched(topo.get(), gpus, opts);
    const auto res = sched.Run(queries);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    by_policy[net::ArbitrationKindName(kind)] = res.value();
  }
  // Identical inputs: every policy joins the same data.
  const std::uint64_t matches = by_policy["fifo"].total_matches;
  EXPECT_GT(matches, 0u);
  EXPECT_EQ(by_policy["fair"].total_matches, matches);
  EXPECT_EQ(by_policy["priority"].total_matches, matches);
  EXPECT_EQ(by_policy["fifo"].net.arb_paces, 0u);
  // The tenant policies actually pace somebody under 4-way contention.
  EXPECT_GT(by_policy["fair"].net.arb_paces, 0u);
  EXPECT_GT(by_policy["priority"].net.arb_paces, 0u);
}

// 24 tenants over 3 shared datasets (one key-skewed), one arrival
// every 150 us; priorities cycle independently of the dataset.
data::GenOptions SharedDataset(int d) {
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 14;
  gen.key_zipf = d == 2 ? 1.0 : 0.0;
  gen.seed = 7 + static_cast<std::uint64_t>(d);
  return gen;
}

std::vector<svc::QuerySpec> SharedDatasetStream() {
  std::vector<svc::QuerySpec> queries(24);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    svc::QuerySpec& q = queries[i];
    q.query_id = i + 1;
    q.gen = SharedDataset(static_cast<int>(i % 3));
    q.priority = static_cast<int>(i / 3 % 3);
    q.submit_at = static_cast<sim::SimTime>(i) * 150 * sim::kMicrosecond;
  }
  return queries;
}

TEST(QuerySchedulerTest, SharedDatasetsPrepareOnceWithExactSoloLatency) {
  auto topo = MakeDgx1V();
  const auto gpus = topo::FirstNGpus(8);
  // The faults start at once, so a solo run that kept them would differ.
  svc::ServiceOptions faulted;
  faulted.arbitration = ArbitrationKind::kFairShare;
  faulted.inflight_limit = 8;
  faulted.join.virtual_scale = 256.0;
  faulted.join.transfer.faults =
      net::FaultPlan::Parse(
          "degrade:qpi0:0.4:@0us,down:gpu0-gpu3:@0us,"
          "down:gpu4-gpu7:@100us,restore:gpu4-gpu7:@2ms,"
          "restore:gpu0-gpu3:@2ms",
          *topo)
          .ValueOrDie();
  svc::ServiceOptions with_metrics = faulted;
  obs::MetricsRegistry metrics;
  with_metrics.join.transfer.obs.metrics = &metrics;
  const std::vector<svc::QuerySpec> queries = SharedDatasetStream();
  const svc::ServiceResult res =
      svc::QueryScheduler(topo.get(), gpus, with_metrics)
          .Run(queries)
          .ValueOrDie();
  ASSERT_EQ(res.tenancy.queries.size(), queries.size());
  EXPECT_GT(res.net.arb_paces, 0u);

  // Every query over a dataset joins exactly that dataset.
  std::uint64_t matches = 0, checksum = 0;
  std::vector<sim::SimTime> solo(3);
  for (int d = 0; d < 3; ++d) {
    data::GenOptions gen = SharedDataset(d);
    gen.num_gpus = static_cast<int>(gpus.size());
    const auto [r, s] = data::MakeJoinInput(gen);
    const join::LocalJoinStats ref = join::ReferenceJoin(r, s);
    matches += 8 * ref.matches;
    checksum += 8 * ref.checksum;

    // The dataset alone, under another id and priority: its solo
    // latency is the shared one, and equals the latency of the query
    // alone on a healthy FIFO fabric.
    svc::QuerySpec alone;
    alone.query_id = 1000 + static_cast<std::uint64_t>(d);
    alone.gen = SharedDataset(d);
    alone.priority = 2 - d;
    solo[d] = svc::QueryScheduler(topo.get(), gpus, faulted)
                  .Run({alone})
                  .ValueOrDie()
                  .tenancy.queries[0]
                  .solo_latency;
    svc::ServiceOptions healthy;
    healthy.join.virtual_scale = faulted.join.virtual_scale;
    const svc::ServiceResult idle =
        svc::QueryScheduler(topo.get(), gpus, healthy)
            .Run({alone})
            .ValueOrDie();
    EXPECT_EQ(idle.tenancy.queries[0].Latency(), solo[d]) << d;
  }
  EXPECT_EQ(res.total_matches, matches);
  EXPECT_EQ(res.checksum, checksum);
  for (const obs::report::QueryOutcome& q : res.tenancy.queries) {
    EXPECT_GT(q.solo_latency, 0u);
    EXPECT_EQ(q.solo_latency, solo[(q.query_id - 1) % 3]) << q.query_id;
  }

  // The host phases' wall timers stay out of the run's metrics.
  EXPECT_FALSE(metrics.counters().empty());
  for (const auto& [name, counter] : metrics.counters()) {
    EXPECT_FALSE(name.ends_with(".wall_us")) << name;
  }
}

}  // namespace
}  // namespace mgjoin
