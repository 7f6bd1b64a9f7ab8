// Tests for the fault model (DESIGN.md Sec 10): the FaultPlan grammar,
// the link availability overlay, fault application in the link
// scheduler, and the transfer engine's repair/retry machinery. The
// engine-level tests assert the contract that matters: joins and
// shuffles stay byte-exact under any survivable fault schedule — faults
// may only change timing.
//
// When MGJ_FAULT_TRACE_DIR is set, any failing engine-level test writes
// the run's Chrome trace there (CI uploads the directory as an
// artifact).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/fault_plan.h"
#include "net/link_state.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::net {
namespace {

using topo::MakeDgx1V;
using topo::Route;

int LinkId(const topo::Topology& topo, const std::string& spec) {
  return topo.ResolveLinkSpec(spec).ValueOrDie();
}

// ---------------------------------------------------------------------------
// ParseDuration.

TEST(ParseDurationTest, AcceptsEveryUnit) {
  EXPECT_EQ(ParseDuration("5ms").ValueOrDie(), 5 * sim::kMillisecond);
  EXPECT_EQ(ParseDuration("250us").ValueOrDie(), 250 * sim::kMicrosecond);
  EXPECT_EQ(ParseDuration("2s").ValueOrDie(), 2 * sim::kSecond);
  EXPECT_EQ(ParseDuration("800ns").ValueOrDie(), 800 * sim::kNanosecond);
  EXPECT_EQ(ParseDuration("42ps").ValueOrDie(), 42u);
  EXPECT_EQ(ParseDuration("0ms").ValueOrDie(), 0u);
}

TEST(ParseDurationTest, RoundsFractionsToNearestPicosecond) {
  EXPECT_EQ(ParseDuration("1.5us").ValueOrDie(),
            sim::kMicrosecond + sim::kMicrosecond / 2);
  EXPECT_EQ(ParseDuration("0.5ps").ValueOrDie(), 1u);  // rounds half up
}

TEST(ParseDurationTest, ClampsOverflowToSimTimeMax) {
  EXPECT_EQ(ParseDuration("99999999999999999s").ValueOrDie(),
            sim::kSimTimeMax);
}

TEST(ParseDurationTest, RejectsMalformedDurations) {
  EXPECT_FALSE(ParseDuration("").ok());
  EXPECT_FALSE(ParseDuration("ms").ok());         // no number
  EXPECT_FALSE(ParseDuration("5").ok());          // no unit
  EXPECT_FALSE(ParseDuration("5min").ok());       // unknown unit
  EXPECT_FALSE(ParseDuration("-3ms").ok());       // sign is not a digit
}

// ---------------------------------------------------------------------------
// FaultPlan grammar.

class FaultPlanTest : public ::testing::Test {
 protected:
  FaultPlanTest() : topo_(MakeDgx1V()) {}
  std::unique_ptr<topo::Topology> topo_;
};

TEST_F(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::Parse("", *topo_).ValueOrDie().empty());
}

TEST_F(FaultPlanTest, ParsesDownDegradeRestoreSortedByTime) {
  // Clauses are given out of order; the plan sorts by time.
  const auto plan = FaultPlan::Parse(
                        "restore:gpu0-gpu3:@12ms,down:gpu0-gpu3:@5ms,"
                        "degrade:qpi0:0.5:@10ms",
                        *topo_)
                        .ValueOrDie();
  ASSERT_EQ(plan.size(), 3u);
  const auto& ev = plan.events();
  EXPECT_EQ(ev[0].kind, FaultKind::kDown);
  EXPECT_EQ(ev[0].at, 5 * sim::kMillisecond);
  EXPECT_EQ(ev[0].link_id, LinkId(*topo_, "gpu0-gpu3"));
  EXPECT_EQ(ev[1].kind, FaultKind::kDegraded);
  EXPECT_EQ(ev[1].at, 10 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(ev[1].factor, 0.5);
  EXPECT_EQ(ev[1].link_id, LinkId(*topo_, "qpi0"));
  EXPECT_EQ(ev[2].kind, FaultKind::kRestored);
  EXPECT_EQ(ev[2].at, 12 * sim::kMillisecond);
}

TEST_F(FaultPlanTest, FlapExpandsToAlternatingDownRestore) {
  const auto plan =
      FaultPlan::Parse("flap:gpu0-gpu3:@1ms:500usx3", *topo_).ValueOrDie();
  ASSERT_EQ(plan.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const FaultEvent& ev = plan.events()[static_cast<std::size_t>(i)];
    EXPECT_EQ(ev.kind,
              i % 2 == 0 ? FaultKind::kDown : FaultKind::kRestored);
    EXPECT_EQ(ev.at, sim::kMillisecond +
                         static_cast<sim::SimTime>(i) * 500 *
                             sim::kMicrosecond);
  }
}

TEST_F(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "explode:gpu0-gpu3:@5ms",         // unknown op
      "down:gpu0-gpu3",                 // missing time
      "down:gpu0-gpu3:5ms",             // missing '@'
      "down:gpu0-gpu9:@5ms",            // no such link
      "down:gpu0-gpu1:@5ms:extra",      // too many fields
      "degrade:qpi0:@5ms",              // missing factor
      "degrade:qpi0:0:@5ms",            // factor outside (0, 1]
      "degrade:qpi0:1.5:@5ms",          // factor outside (0, 1]
      "degrade:qpi0:fast:@5ms",         // non-numeric factor
      "flap:gpu0-gpu3:@5ms:500us",      // missing cycle count
      "flap:gpu0-gpu3:@5ms:500usx0",    // zero cycles
      "flap:gpu0-gpu3:@5ms:500usx9999", // cycle count over limit
      "down:gpu0-gpu3:@5parsecs",       // bad duration unit
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(FaultPlan::Parse(spec, *topo_).ok()) << spec;
  }
  // A bad clause anywhere poisons the whole spec.
  EXPECT_FALSE(
      FaultPlan::Parse("down:gpu0-gpu3:@5ms,bogus:qpi0:@1ms", *topo_).ok());
}

TEST_F(FaultPlanTest, ParseErrorsNameTheFailingClause) {
  // Every error — including ones surfaced by the link resolver and the
  // time parser, not just the clause splitter — must say which clause
  // of a multi-clause spec failed, so `mgjoin --faults` and the
  // scenario loader can report it directly.
  struct Case {
    const char* spec;
    const char* clause;
  };
  const Case cases[] = {
      {"down:gpu0-gpu3:@5ms,down:gpu0-gpu9:@1ms", "down:gpu0-gpu9:@1ms"},
      {"down:gpu0-gpu3:@5ms,restore:gpu0-gpu3:@5parsecs",
       "restore:gpu0-gpu3:@5parsecs"},
      {"degrade:nope0:0.5:@1ms,down:gpu0-gpu3:@5ms",
       "degrade:nope0:0.5:@1ms"},
      {"flap:gpu0-gpu3:@oops:500usx2", "flap:gpu0-gpu3:@oops:500usx2"},
      {"flap:gpu0-gpu3:@1ms:weirdx2", "flap:gpu0-gpu3:@1ms:weirdx2"},
  };
  for (const Case& c : cases) {
    const auto plan = FaultPlan::Parse(c.spec, *topo_);
    ASSERT_FALSE(plan.ok()) << c.spec;
    const std::string msg = plan.status().ToString();
    EXPECT_NE(msg.find(std::string("fault clause '") + c.clause + "'"),
              std::string::npos)
        << "error for [" << c.spec << "] does not name the clause: " << msg;
  }
}

TEST_F(FaultPlanTest, ProgrammaticEventsKeepInsertionOrderOnTies) {
  FaultPlan plan;
  const int a = LinkId(*topo_, "gpu0-gpu1");
  const int b = LinkId(*topo_, "gpu0-gpu2");
  plan.Down(a, 10);
  plan.Down(b, 10);     // same instant: must stay after `a`
  plan.Restore(a, 5);   // earlier: must sort first
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kRestored);
  EXPECT_EQ(plan.events()[1].link_id, a);
  EXPECT_EQ(plan.events()[2].link_id, b);
}

TEST_F(FaultPlanTest, ToStringNamesEveryEvent) {
  const auto plan =
      FaultPlan::Parse("down:gpu0-gpu3:@5ms,degrade:qpi0:0.5:@10ms", *topo_)
          .ValueOrDie();
  const std::string s = plan.ToString(*topo_);
  EXPECT_NE(s.find("down"), std::string::npos);
  EXPECT_NE(s.find("degrade"), std::string::npos);
  EXPECT_NE(s.find("x0.5"), std::string::npos);
  EXPECT_NE(s.find("@5000us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LinkAvailabilityView.

TEST(AvailabilityViewTest, TransitionsTrackDownLinksAndFactor) {
  topo::LinkAvailabilityView view;
  view.Reset(4);
  EXPECT_TRUE(view.AllUp());
  EXPECT_DOUBLE_EQ(view.Factor(2), 1.0);

  view.SetHealth(2, topo::LinkHealth::kDown);
  EXPECT_FALSE(view.AllUp());
  EXPECT_EQ(view.down_links(), 1);
  EXPECT_FALSE(view.Up(2));
  EXPECT_DOUBLE_EQ(view.Factor(2), 0.0);

  view.SetHealth(2, topo::LinkHealth::kDegraded, 0.25);
  EXPECT_TRUE(view.AllUp());  // degraded links still carry traffic
  EXPECT_TRUE(view.Up(2));
  EXPECT_DOUBLE_EQ(view.Factor(2), 0.25);

  view.SetHealth(2, topo::LinkHealth::kUp);
  EXPECT_DOUBLE_EQ(view.Factor(2), 1.0);
  EXPECT_EQ(view.down_links(), 0);
}

// ---------------------------------------------------------------------------
// LinkStateTable fault application.

class LinkFaultTest : public ::testing::Test {
 protected:
  LinkFaultTest() : topo_(MakeDgx1V()) {}

  /// Applies `spec` on a fresh table and runs the simulator until the
  /// schedule has drained.
  void Apply(LinkStateTable& links, const std::string& spec) {
    links.ApplyFaultPlan(FaultPlan::Parse(spec, *topo_).ValueOrDie());
    sim_.Run();
  }

  sim::Simulator sim_;
  std::unique_ptr<topo::Topology> topo_;
};

TEST_F(LinkFaultTest, DownLinkBlocksChannelsAndRoutes) {
  LinkStateTable links(&sim_, topo_.get());
  Apply(links, "down:gpu0-gpu3:@1ms");

  EXPECT_EQ(links.fault_events_applied(), 1u);
  EXPECT_EQ(links.pending_fault_events(), 0);
  EXPECT_FALSE(links.LinkUp(LinkId(*topo_, "gpu0-gpu3")));
  EXPECT_FALSE(links.ChannelAvailable(topo_->channel(0, 3)));
  EXPECT_FALSE(links.RouteAvailable(Route{{0, 3}}));
  // Unrelated pairs are untouched, and some detour around the dead link
  // must survive (the fabric is not partitioned by one NVLink).
  EXPECT_TRUE(links.ChannelAvailable(topo_->channel(0, 1)));
  bool any_alt = false;
  for (const Route& r : topo_->EnumerateRoutes(0, 3)) {
    any_alt = any_alt || (r.gpus.size() > 2 && links.RouteAvailable(r));
  }
  EXPECT_TRUE(any_alt);
  EXPECT_NE(links.HealthReport().find("down"), std::string::npos);
}

TEST_F(LinkFaultTest, DegradedLinkSlowsDelivery) {
  sim::Simulator healthy_sim;
  LinkStateTable healthy(&healthy_sim, topo_.get());
  const auto base = healthy.ReserveChannel(topo_->channel(0, 1), 2 * kMiB);

  LinkStateTable links(&sim_, topo_.get());
  Apply(links, "degrade:gpu0-gpu1:0.25:@0ms");
  EXPECT_TRUE(links.ChannelAvailable(topo_->channel(0, 1)));  // still up
  const auto slow = links.ReserveChannel(topo_->channel(0, 1), 2 * kMiB);
  EXPECT_GT(slow.deliver - slow.start, base.deliver - base.start);
}

TEST_F(LinkFaultTest, RestoreReturnsFullBandwidth) {
  sim::Simulator healthy_sim;
  LinkStateTable healthy(&healthy_sim, topo_.get());
  const auto base = healthy.ReserveChannel(topo_->channel(0, 1), 2 * kMiB);

  LinkStateTable links(&sim_, topo_.get());
  Apply(links, "degrade:gpu0-gpu1:0.25:@0ms,restore:gpu0-gpu1:@1ms");
  const auto after = links.ReserveChannel(topo_->channel(0, 1), 2 * kMiB);
  EXPECT_EQ(after.deliver - after.start, base.deliver - base.start);
}

TEST_F(LinkFaultTest, EventsEmitTraceMetricsAndCallback) {
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  LinkStateTable links(&sim_, topo_.get(), {&trace, &metrics, nullptr});
  std::vector<FaultKind> seen;
  links.set_fault_callback(
      [&seen](const FaultEvent& ev) { seen.push_back(ev.kind); });
  Apply(links, "down:gpu0-gpu3:@1ms,restore:gpu0-gpu3:@2ms");

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], FaultKind::kDown);
  EXPECT_EQ(seen[1], FaultKind::kRestored);
  EXPECT_EQ(metrics.counters().at("net.fault_events").value(), 2u);
  const std::string gauge =
      "link." + topo_->link(LinkId(*topo_, "gpu0-gpu3")).ToString() +
      ".state";
  ASSERT_TRUE(metrics.gauges().count(gauge)) << gauge;
  EXPECT_EQ(metrics.gauges().at(gauge).value(), 100u);  // restored
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("net.faults"), std::string::npos);
  EXPECT_NE(json.find("down"), std::string::npos);
}

TEST_F(LinkFaultTest, PastFaultTimesClampToNow) {
  LinkStateTable links(&sim_, topo_.get());
  sim_.ScheduleAt(5 * sim::kMillisecond, [] {});
  sim_.Run();
  ASSERT_EQ(sim_.Now(), 5 * sim::kMillisecond);
  // The event's nominal time is already in the past; it must apply at
  // the current instant instead of tripping the scheduler's time check.
  Apply(links, "down:gpu0-gpu3:@1ms");
  EXPECT_EQ(links.fault_events_applied(), 1u);
  EXPECT_FALSE(links.LinkUp(LinkId(*topo_, "gpu0-gpu3")));
}

TEST_F(LinkFaultTest, ReservingThroughDownLinkIsAnInvariantViolation) {
  LinkStateTable links(&sim_, topo_.get());
  Apply(links, "down:gpu0-gpu3:@0ms");
  EXPECT_DEATH(links.ReserveChannel(topo_->channel(0, 3), 2 * kMiB),
               "down link");
}

// ---------------------------------------------------------------------------
// Transfer engine under faults.

/// Everything a test needs to judge a faulted shuffle.
struct FaultRun {
  TransferStats stats;
  std::map<std::uint64_t, std::uint64_t> delivered_per_flow;
  std::vector<std::string> audit_failures;
  std::string trace_json;
  std::uint64_t fault_events_applied = 0;
  std::uint64_t watched_link_bytes = 0;
  bool all_done = false;

  std::uint64_t FaultActivity() const {
    return stats.fault_reroutes + stats.fault_aborts + stats.fault_waits +
           stats.escapes;
  }
};

/// Runs `flows` under `kind` with `spec` injected, capturing auditor
/// failures instead of aborting. If `watch_link` names a link, the
/// run's total wire bytes over it (both directions) are recorded.
FaultRun RunFaulted(PolicyKind kind, const std::vector<int>& gpus,
                    const std::vector<Flow>& flows, const std::string& spec,
                    TransferOptions options = {},
                    const std::string& watch_link = "") {
  sim::Simulator s;
  auto topo = MakeDgx1V();
  obs::TraceRecorder trace;
  obs::InvariantAuditor auditor;
  FaultRun run;
  auditor.set_failure_handler([&run](const std::string& m) {
    run.audit_failures.push_back(m);
  });
  options.obs.trace = &trace;
  options.obs.auditor = &auditor;
  options.faults = FaultPlan::Parse(spec, *topo).ValueOrDie();
  auto policy = MakePolicy(kind, options.max_intermediates);
  TransferEngine eng(&s, topo.get(), gpus, policy.get(), options);
  eng.set_deliver_callback([&run](const Packet& p, sim::SimTime) {
    run.delivered_per_flow[p.flow_id] += p.payload_bytes;
  });
  for (const Flow& f : flows) eng.AddFlow(f);
  eng.Start();
  s.Run();
  run.stats = eng.stats();
  run.all_done = eng.AllDone();
  run.fault_events_applied = eng.links().fault_events_applied();
  run.trace_json = trace.ToJson();
  if (!watch_link.empty()) {
    const int l = LinkId(*topo, watch_link);
    run.watched_link_bytes =
        eng.links().BytesMoved({l, 0}) + eng.links().BytesMoved({l, 1});
  }
  return run;
}

std::vector<Flow> AllToAll(int g, std::uint64_t bytes) {
  std::vector<Flow> flows;
  std::uint64_t id = 0;
  for (int a = 0; a < g; ++a) {
    for (int b = 0; b < g; ++b) {
      if (a != b) flows.push_back(Flow{id++, a, b, bytes, 0, 0.0, 0, {}});
    }
  }
  return flows;
}

void ExpectExact(const FaultRun& run, const std::vector<Flow>& flows) {
  EXPECT_TRUE(run.all_done);
  std::uint64_t total = 0;
  for (const Flow& f : flows) {
    total += f.bytes;
    EXPECT_EQ(run.delivered_per_flow.count(f.id) == 0
                  ? 0
                  : run.delivered_per_flow.at(f.id),
              f.bytes)
        << "flow " << f.id;
  }
  EXPECT_EQ(run.stats.payload_bytes, total);
  EXPECT_TRUE(run.audit_failures.empty())
      << "first auditor failure: " << run.audit_failures.front();
}

/// Fixture whose only job is the CI failure artifact: a failing test
/// dumps its run's Chrome trace to MGJ_FAULT_TRACE_DIR if set.
class EngineFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    const char* dir = std::getenv("MGJ_FAULT_TRACE_DIR");
    if (!HasFailure() || dir == nullptr || *dir == '\0' ||
        last_run_.trace_json.empty()) {
      return;
    }
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path =
        std::string(dir) + "/" + info->name() + ".trace.json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fwrite(last_run_.trace_json.data(), 1, last_run_.trace_json.size(),
                f);
    std::fclose(f);
    std::fprintf(stderr, "fault trace written to %s\n", path.c_str());
  }

  FaultRun last_run_;
};

// The acceptance scenario: an NVLink dies in the middle of an 8-GPU
// all-to-all and the adaptive policy routes around it. Delivery stays
// byte-exact and the auditor stays silent; only timing may change.
TEST_F(EngineFaultTest, NvlinkDownMidShuffleStaysExact) {
  // The healthy run takes ~4 ms, so a fault at 1 ms lands mid-stream
  // with most of each 16 MiB flow still unsent.
  const auto flows = AllToAll(8, 16 * kMiB);
  const FaultRun healthy =
      RunFaulted(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows, "", {},
                 "gpu0-gpu3");
  last_run_ = RunFaulted(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows,
                         "down:gpu0-gpu3:@1ms", {}, "gpu0-gpu3");
  ExpectExact(last_run_, flows);
  EXPECT_EQ(last_run_.fault_events_applied, 1u);
  // Traffic crossed the link before the fault but never after, so the
  // faulted run must move strictly fewer bytes over it than the healthy
  // run — the remainder detoured over surviving routes.
  EXPECT_GT(last_run_.watched_link_bytes, 0u);
  EXPECT_LT(last_run_.watched_link_bytes, healthy.watched_link_bytes);
}

TEST_F(EngineFaultTest, TwoSimultaneousLinkFailuresStayExact) {
  const auto flows = AllToAll(8, 8 * kMiB);
  last_run_ = RunFaulted(PolicyKind::kAdaptive, topo::FirstNGpus(8), flows,
                         "down:gpu0-gpu3:@1ms,down:gpu1-gpu2:@1ms");
  ExpectExact(last_run_, flows);
  EXPECT_EQ(last_run_.fault_events_applied, 2u);
}

TEST_F(EngineFaultTest, IdenticalFaultPlansReplayByteIdentically) {
  const auto flows = AllToAll(4, 8 * kMiB);
  const std::string spec = "flap:gpu0-gpu3:@500us:300usx3";
  const FaultRun a =
      RunFaulted(PolicyKind::kAdaptive, topo::FirstNGpus(4), flows, spec);
  const FaultRun b =
      RunFaulted(PolicyKind::kAdaptive, topo::FirstNGpus(4), flows, spec);
  last_run_ = a;
  ExpectExact(a, flows);
  EXPECT_EQ(a.trace_json, b.trace_json);  // byte-identical replay
  EXPECT_EQ(a.stats.Makespan(), b.stats.Makespan());
  EXPECT_EQ(a.stats.fault_reroutes, b.stats.fault_reroutes);
  EXPECT_EQ(a.stats.fault_waits, b.stats.fault_waits);
}

// With only GPUs 0 and 1 participating, the direct NVLink is the sole
// route; a down/restore forces the sender to sit out the outage on the
// fault-retry poll (watchdog-visible progress) and finish afterwards.
TEST_F(EngineFaultTest, IsolatedPairBlocksUntilRestore) {
  const std::vector<Flow> flows = {Flow{1, 0, 1, 64 * kMiB, 0, 0.0, 0, {}}};
  last_run_ = RunFaulted(PolicyKind::kAdaptive, {0, 1}, flows,
                         "down:gpu0-gpu1:@200us,restore:gpu0-gpu1:@5ms");
  ExpectExact(last_run_, flows);
  EXPECT_GT(last_run_.stats.fault_waits, 0u);
  EXPECT_GE(last_run_.stats.Makespan(), 5 * sim::kMillisecond);

  const FaultRun healthy =
      RunFaulted(PolicyKind::kAdaptive, {0, 1}, flows, "");
  EXPECT_GT(last_run_.stats.Makespan(), healthy.stats.Makespan());
}

// Static policies pin a route up front; when its link is already dead
// they must fall back to the best surviving route instead of wedging.
TEST_F(EngineFaultTest, DirectPolicyFallsBackToSurvivingRoute) {
  const std::vector<Flow> flows = {Flow{1, 0, 3, 16 * kMiB, 0, 0.0, 0, {}}};
  last_run_ = RunFaulted(PolicyKind::kDirect, {0, 1, 2, 3}, flows,
                         "down:gpu0-gpu3:@0ms");
  ExpectExact(last_run_, flows);
  // Delivery had to detour: more channel traversals than packets.
  EXPECT_GT(last_run_.stats.packet_hops, last_run_.stats.packets);
}

TEST_F(EngineFaultTest, FlappingLinkDeliversEverything) {
  const auto flows = AllToAll(4, 8 * kMiB);
  last_run_ = RunFaulted(PolicyKind::kAdaptive, topo::FirstNGpus(4), flows,
                         "flap:gpu0-gpu3:@300us:200usx5");
  ExpectExact(last_run_, flows);
  EXPECT_EQ(last_run_.fault_events_applied, 10u);
}

TEST_F(EngineFaultTest, DegradedLinkSlowsButStaysExact) {
  const std::vector<Flow> flows = {Flow{1, 0, 1, 32 * kMiB, 0, 0.0, 0, {}}};
  const FaultRun healthy =
      RunFaulted(PolicyKind::kAdaptive, {0, 1}, flows, "");
  last_run_ = RunFaulted(PolicyKind::kAdaptive, {0, 1}, flows,
                         "degrade:gpu0-gpu1:0.25:@0ms");
  ExpectExact(last_run_, flows);
  EXPECT_GT(last_run_.stats.Makespan(), healthy.stats.Makespan());
}

// A link that dies and never comes back strands the flow; the retry
// polls stop (no fault event pending), progress flatlines, and the
// deadlock watchdog must flag the run instead of spinning forever.
TEST_F(EngineFaultTest, WatchdogFlagsPermanentStrand) {
  sim::Simulator s;
  auto topo = MakeDgx1V();
  obs::AuditOptions aopts;
  aopts.watchdog_interval = sim::kMillisecond;
  aopts.watchdog_limit = 3;
  obs::InvariantAuditor auditor(aopts);
  std::vector<std::string> failures;
  auditor.set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  TransferOptions options;
  options.obs.auditor = &auditor;
  options.faults =
      FaultPlan::Parse("down:gpu0-gpu1:@100us", *topo).ValueOrDie();
  auto policy = MakePolicy(PolicyKind::kAdaptive, options.max_intermediates);
  TransferEngine eng(&s, topo.get(), {0, 1}, policy.get(), options);
  eng.AddFlow(Flow{1, 0, 1, 64 * kMiB, 0, 0.0, 0, {}});
  eng.Start();
  s.Run();  // terminates: the watchdog disarms after declaring deadlock
  EXPECT_FALSE(eng.AllDone());
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("deadlock"), std::string::npos);
  EXPECT_NE(eng.links().HealthReport().find("down"), std::string::npos);
}

}  // namespace
}  // namespace mgjoin::net
