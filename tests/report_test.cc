// Tests for the perf-report pipeline: the JSON parser, trace-event
// re-import, critical-path attribution, congestion reports (including
// fault-adjusted peak bandwidth), the mgjoin-bench/1 document and the
// bench_compare regression gate.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "data/generator.h"
#include "join/mg_join.h"
#include "net/fault_plan.h"
#include "obs/bench_json.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::obs {
namespace {

// ---------------------------------------------------------------------------
// json::Parse.

TEST(JsonTest, ParsesScalarsArraysObjects) {
  auto v = json::Parse(
      R"({"a": 1.5, "b": "x\ny", "c": [true, false, null], "d": {}})");
  ASSERT_TRUE(v.ok());
  const json::Value& root = v.value();
  ASSERT_TRUE(root.IsObject());
  EXPECT_DOUBLE_EQ(root.NumberOr("a", 0), 1.5);
  EXPECT_EQ(root.StringOr("b", ""), "x\ny");
  const json::Value* c = root.Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->IsArray());
  ASSERT_EQ(c->items.size(), 3u);
  EXPECT_TRUE(c->items[0].boolean);
  EXPECT_FALSE(c->items[1].boolean);
  EXPECT_EQ(c->items[2].kind, json::Value::Kind::kNull);
  ASSERT_NE(root.Find("d"), nullptr);
}

TEST(JsonTest, KeepsRawNumberText) {
  auto v = json::Parse(R"({"ts": "123.000456"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().Find("ts")->text, "123.000456");
}

TEST(JsonTest, RejectsGarbageWithOffset) {
  auto v = json::Parse("{\"a\": }");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().ToString().find("offset"), std::string::npos);
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("").ok());
}

TEST(JsonTest, QuotingRoundTrips) {
  std::string out;
  json::AppendQuoted(&out, "a\"b\\c\nd\te");
  auto v = json::Parse(out);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().text, "a\"b\\c\nd\te");
}

// ---------------------------------------------------------------------------
// Shared fixture: one full MG-Join run with a trace attached.

struct TracedRun {
  TraceRecorder trace;  // non-movable; runs are heap-allocated
  join::JoinResult result;
};

std::unique_ptr<TracedRun> RunJoinWithTrace(
    bool overlap, const std::string& fault_spec = "",
    net::PolicyKind policy = net::PolicyKind::kAdaptive) {
  static auto topo = topo::MakeDgx1V();
  const auto gpus = topo::FirstNGpus(8);
  data::GenOptions gen;
  gen.tuples_per_relation = 8 * (1ull << 16);
  gen.num_gpus = 8;
  auto [r, s] = data::MakeJoinInput(gen);

  auto out = std::make_unique<TracedRun>();
  join::MgJoinOptions opts;
  opts.overlap = overlap;
  opts.policy = policy;
  opts.virtual_scale = 64.0;
  opts.transfer.obs.trace = &out->trace;
  if (!fault_spec.empty()) {
    opts.transfer.faults =
        net::FaultPlan::Parse(fault_spec, *topo).ValueOrDie();
  }
  join::MgJoin j(topo.get(), gpus, opts);
  out->result = j.Execute(r, s).ValueOrDie();
  return out;
}

// ---------------------------------------------------------------------------
// EventsFromTraceJson: re-importing the serialized trace must yield the
// same events the recorder exports directly.

TEST(ReportTest, TraceJsonRoundTripsToExportedEvents) {
  auto run = RunJoinWithTrace(true);
  const std::vector<TraceEvent> direct = run->trace.ExportEvents();
  auto parsed = report::EventsFromTraceJson(run->trace.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const TraceEvent& a = direct[i];
    const TraceEvent& b = parsed.value()[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.track, b.track) << "event " << i;
    EXPECT_EQ(a.name, b.name) << "event " << i;
    EXPECT_EQ(a.ts, b.ts) << "event " << i;
    EXPECT_EQ(a.dur, b.dur) << "event " << i;
    EXPECT_EQ(a.args, b.args) << "event " << i;
  }
}

// ---------------------------------------------------------------------------
// Critical path: the phase slices tile [0, total] exactly, the total
// matches the join's own end-to-end timing, and the leading slice is the
// histogram phase with the join's own histogram duration.

void CheckCriticalPath(const TracedRun& run) {
  const report::RunReport rep =
      report::BuildRunReport(run.trace.ExportEvents());
  const report::CriticalPath& cp = rep.critical_path;
  EXPECT_EQ(cp.total, run.result.timing.total);

  ASSERT_FALSE(cp.slices.empty());
  EXPECT_EQ(cp.slices.front().begin, 0u);
  EXPECT_EQ(cp.slices.back().end, cp.total);
  sim::SimTime sum = 0;
  for (std::size_t i = 0; i < cp.slices.size(); ++i) {
    EXPECT_LT(cp.slices[i].begin, cp.slices[i].end);
    if (i > 0) {
      EXPECT_EQ(cp.slices[i].begin, cp.slices[i - 1].end);
    }
    sum += cp.slices[i].Duration();
  }
  EXPECT_EQ(sum, cp.total);

  sim::SimTime phase_sum = 0;
  for (const auto& [phase, t] : cp.phase_totals) phase_sum += t;
  EXPECT_EQ(phase_sum, cp.total);

  EXPECT_EQ(cp.slices.front().phase, "histogram");
  EXPECT_EQ(cp.slices.front().Duration(), run.result.timing.histogram);
}

TEST(ReportTest, CriticalPathTilesTotalWithOverlap) {
  CheckCriticalPath(*RunJoinWithTrace(true));
}

TEST(ReportTest, CriticalPathTilesTotalWithoutOverlap) {
  auto run = RunJoinWithTrace(false);
  CheckCriticalPath(*run);
  // Bulk transfers expose the full network time: distribution must be a
  // ranked phase on the path.
  const report::RunReport rep =
      report::BuildRunReport(run->trace.ExportEvents());
  bool has_dist = false;
  for (const auto& [phase, t] : rep.critical_path.phase_totals) {
    if (phase == "distribution") has_dist = t > 0;
  }
  EXPECT_TRUE(has_dist);
}

// ---------------------------------------------------------------------------
// Congestion report.

TEST(ReportTest, CongestionWindowMatchesDistributionPhase) {
  auto run = RunJoinWithTrace(true);
  const report::RunReport rep =
      report::BuildRunReport(run->trace.ExportEvents());
  const report::CongestionReport& cong = rep.congestion;
  EXPECT_EQ(cong.Window(), run->result.timing.distribution);
  ASSERT_FALSE(cong.links.empty());
  EXPECT_GT(cong.bisection_bps, 0.0);
  EXPECT_GT(cong.achieved_wire_bps, 0.0);

  std::uint64_t mib_total = 0;
  for (const report::LinkReport& l : cong.links) {
    EXPECT_GE(l.Utilization(cong.Window()), 0.0);
    EXPECT_LE(l.Utilization(cong.Window()), 1.0 + 1e-9);
    EXPECT_DOUBLE_EQ(l.availability, 1.0);
    EXPECT_GT(l.peak_bps, 0.0);
    EXPECT_DOUBLE_EQ(l.AdjustedPeakBps(), l.peak_bps);
    mib_total += l.bytes;
  }
  // Links are ranked by busy time.
  for (std::size_t i = 1; i < cong.links.size(); ++i) {
    EXPECT_GE(cong.links[i - 1].busy, cong.links[i].busy);
  }
  // Link-level bytes count every physical leg, so they dominate the
  // per-hop wire bytes (staged channels cross several links).
  EXPECT_GE(mib_total, run->result.net.wire_bytes);

  // Healthy fabric: no availability adjustment.
  EXPECT_DOUBLE_EQ(cong.adjusted_bisection_bps, cong.bisection_bps);

  const std::string heat = cong.AsciiHeatmap();
  EXPECT_NE(heat.find(cong.links.front().name), std::string::npos);
  const std::string text = rep.ToText();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("congestion"), std::string::npos);
}

TEST(ReportTest, FaultAdjustsAvailabilityAndPeak) {
  // Take one NVLink down mid-distribution and never restore it: the
  // congestion report must show partial availability for that link and
  // an availability-adjusted bisection peak below the healthy one.
  auto run = RunJoinWithTrace(true, "down:gpu0-gpu3:@1200us");
  const report::RunReport rep =
      report::BuildRunReport(run->trace.ExportEvents());
  const report::CongestionReport& cong = rep.congestion;

  bool saw_degraded = false;
  for (const report::LinkReport& l : cong.links) {
    EXPECT_GE(l.availability, 0.0);
    EXPECT_LE(l.availability, 1.0);
    if (l.availability < 1.0) {
      saw_degraded = true;
      EXPECT_LT(l.AdjustedPeakBps(), l.peak_bps);
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_LT(cong.adjusted_bisection_bps, cong.bisection_bps);
  EXPECT_GT(cong.adjusted_bisection_bps, 0.0);
}

// ---------------------------------------------------------------------------
// Timeline analytics (mgjoin report --timeline).

TEST(ReportTest, SummarizeEmptySampleSetIsZero) {
  std::vector<std::uint64_t> none;
  const report::DelaySummary s = report::Summarize(&none);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.p99, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(ReportTest, AnalyzeTimelineFindsFirstSaturationPerLink) {
  report::CongestionReport cong;
  cong.window_begin = sim::kMillisecond;
  // Bin width is window / 48 heatmap columns; a 48 ms window makes each
  // bin exactly 1 ms (profiles shorter than 48 bins are fine).
  cong.window_end = cong.window_begin + 48 * sim::kMillisecond;
  report::LinkReport early;
  early.name = "link.A.fwd";
  early.profile = {0.2, 0.95, 0.3, 0.1};
  report::LinkReport late;
  late.name = "link.B.rev";
  late.profile = {0.0, 0.0, 0.0, 1.0};
  report::LinkReport never;
  never.name = "link.C.fwd";
  never.profile = {0.5, 0.5, 0.5, 0.5};
  cong.links = {late, early, never};  // rank order != saturation order

  const report::TimelineAnalytics tl = report::AnalyzeTimeline(cong, 0.9);
  EXPECT_EQ(tl.bin_width, sim::kMillisecond);
  ASSERT_TRUE(tl.AnySaturation());
  ASSERT_EQ(tl.saturations.size(), 2u);  // link.C never crosses 0.9
  // Ordered by first saturation time: A saturates in bin 1, B in bin 3.
  EXPECT_EQ(tl.saturations[0].link, "link.A.fwd");
  EXPECT_EQ(tl.saturations[0].bin, 1u);
  EXPECT_EQ(tl.saturations[0].when, cong.window_begin + sim::kMillisecond);
  EXPECT_DOUBLE_EQ(tl.saturations[0].utilization, 0.95);
  EXPECT_EQ(tl.saturations[1].link, "link.B.rev");
  EXPECT_EQ(tl.saturations[1].bin, 3u);

  // A lower threshold pulls link.C in.
  const report::TimelineAnalytics all = report::AnalyzeTimeline(cong, 0.5);
  EXPECT_EQ(all.saturations.size(), 3u);

  const std::string text = report::TimelineText(cong, 0.9);
  EXPECT_NE(text.find("link.A.fwd"), std::string::npos);
  EXPECT_NE(text.find("first: link.A.fwd"), std::string::npos);
}

TEST(ReportTest, TimelineTextHandlesEmptyAndUnsaturatedWindows) {
  const report::CongestionReport empty;
  const std::string none = report::TimelineText(empty);
  EXPECT_NE(none.find("no link activity"), std::string::npos);
  EXPECT_FALSE(report::AnalyzeTimeline(empty).AnySaturation());

  report::CongestionReport idle;
  idle.window_end = 2 * sim::kMillisecond;
  report::LinkReport l;
  l.name = "link.A.fwd";
  l.profile = {0.1, 0.2};
  idle.links = {l};
  const std::string text = report::TimelineText(idle, 0.9);
  EXPECT_NE(text.find("no link reached the saturation threshold"),
            std::string::npos);
}

TEST(ReportTest, TimelineTextOnRealRunShowsHeatmapAndSaturation) {
  auto run = RunJoinWithTrace(true);
  const report::RunReport rep =
      report::BuildRunReport(run->trace.ExportEvents());
  const std::string text = report::TimelineText(rep.congestion);
  // The heatmap block and the TTFS table header both render.
  EXPECT_NE(text.find("link."), std::string::npos);
  EXPECT_NE(text.find("first_sat_ms"), std::string::npos);
  // Analytics agree with a manual scan of the busiest link's profile.
  const report::TimelineAnalytics tl =
      report::AnalyzeTimeline(rep.congestion, 0.9);
  for (const report::SaturationEvent& ev : tl.saturations) {
    EXPECT_GE(ev.utilization, 0.9);
    EXPECT_GE(ev.when, rep.congestion.window_begin);
    EXPECT_LT(ev.when, rep.congestion.window_end);
  }
}

// ---------------------------------------------------------------------------
// Determinism: identical runs produce byte-identical reports and bench
// documents (modulo the wall-time and git-commit lines).

std::string StripVolatileLines(const std::string& json) {
  std::string out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    // "wall_" covers both wall_seconds and the single-line wall_phases
    // breakdown — everything machine-dependent sits on its own line.
    if (line.find("\"wall_") == std::string::npos &&
        line.find("\"git_commit\"") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

BenchDoc DocFromRun(const TracedRun& run) {
  BenchDoc doc;
  doc.name = "determinism";
  doc.SetSeriesMeta("total_ms", "ms", false);
  doc.AddPoint("total_ms", 8.0, sim::ToMillis(run.result.timing.total));
  doc.runs.push_back(
      DigestRun(report::BuildRunReport(run.trace.ExportEvents()), "run0",
                run.result.Throughput()));
  return doc;
}

TEST(ReportTest, IdenticalRunsProduceIdenticalReports) {
  auto a = RunJoinWithTrace(true, "down:gpu0-gpu3:@200us");
  auto b = RunJoinWithTrace(true, "down:gpu0-gpu3:@200us");

  const report::RunReport ra =
      report::BuildRunReport(a->trace.ExportEvents());
  const report::RunReport rb =
      report::BuildRunReport(b->trace.ExportEvents());
  EXPECT_EQ(ra.ToText(), rb.ToText());
  ASSERT_EQ(ra.critical_path.phase_totals.size(),
            rb.critical_path.phase_totals.size());
  for (std::size_t i = 0; i < ra.critical_path.phase_totals.size(); ++i) {
    EXPECT_EQ(ra.critical_path.phase_totals[i],
              rb.critical_path.phase_totals[i]);
  }

  BenchDoc da = DocFromRun(*a);
  BenchDoc db = DocFromRun(*b);
  da.wall_seconds = 1.25;
  db.wall_seconds = 99.5;
  da.wall_phases = {{"host.local_join", 0.5}, {"host.shuffle", 0.1}};
  db.wall_phases = {{"host.local_join", 9.9}};
  da.git_commit = "aaaa";
  db.git_commit = "bbbb";
  EXPECT_NE(da.ToJson(), db.ToJson());
  EXPECT_EQ(StripVolatileLines(da.ToJson()),
            StripVolatileLines(db.ToJson()));
}

// ---------------------------------------------------------------------------
// BenchDoc serialization.

BenchDoc MakeDoc() {
  BenchDoc doc;
  doc.name = "fig_test";
  doc.figure = "Figure T";
  doc.description = "throughput (GB/s) vs \"gpus\"";
  doc.topology = "8 GPUs / 29 links";
  doc.gpus = 8;
  doc.git_commit = "cafef00d";
  doc.wall_seconds = 1.5;
  doc.SetSeriesMeta("MG-Join", "GB/s", true);
  doc.AddPoint("MG-Join", 2.0, 10.0);
  doc.AddPoint("MG-Join", 4.0, 20.5);
  doc.SetSeriesMeta("latency", "ms", false);
  doc.AddPoint("latency", std::string("Q3"), 3.25);
  doc.wall_phases = {{"host.local_join", 0.75}, {"host.shuffle", 0.25}};
  return doc;
}

TEST(BenchJsonTest, DocumentRoundTrips) {
  const BenchDoc doc = MakeDoc();
  auto back = BenchDoc::FromJson(doc.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const BenchDoc& d = back.value();
  EXPECT_EQ(d.name, doc.name);
  EXPECT_EQ(d.figure, doc.figure);
  EXPECT_EQ(d.description, doc.description);
  EXPECT_EQ(d.topology, doc.topology);
  EXPECT_EQ(d.gpus, doc.gpus);
  EXPECT_EQ(d.git_commit, doc.git_commit);
  ASSERT_EQ(d.wall_phases.size(), 2u);
  EXPECT_EQ(d.wall_phases[0].first, "host.local_join");
  EXPECT_DOUBLE_EQ(d.wall_phases[0].second, 0.75);
  ASSERT_EQ(d.series.size(), 2u);
  EXPECT_EQ(d.series[0].name, "MG-Join");
  EXPECT_EQ(d.series[0].unit, "GB/s");
  EXPECT_TRUE(d.series[0].higher_is_better);
  ASSERT_EQ(d.series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(d.series[0].points[1].y, 20.5);
  EXPECT_FALSE(d.series[1].higher_is_better);
  EXPECT_EQ(d.series[1].points[0].xlabel, "Q3");
  // Re-serializing the parsed document is byte-stable.
  EXPECT_EQ(d.ToJson(), doc.ToJson());
}

TEST(BenchJsonTest, RejectsWrongSchema) {
  EXPECT_FALSE(BenchDoc::FromJson("{\"schema\": \"other/9\"}").ok());
  EXPECT_FALSE(BenchDoc::FromJson("not json").ok());
}

// ---------------------------------------------------------------------------
// Regression gate.

TEST(BenchCompareTest, FlagsRegressionsByDirection) {
  BenchDoc base = MakeDoc();
  BenchDoc cand = MakeDoc();
  // Higher-is-better series drops 10%: regression.
  cand.series[0].points[0].y = 9.0;
  // Lower-is-better series drops 10%: improvement.
  cand.series[1].points[0].y = 2.925;
  CompareOptions opts;
  opts.threshold = 0.05;
  const CompareReport rep = CompareBenchDocs(base, cand, opts);
  EXPECT_EQ(rep.points_compared, 3);
  EXPECT_EQ(rep.regressions, 1);
  EXPECT_EQ(rep.improvements, 1);
  EXPECT_TRUE(rep.HasRegression());
  EXPECT_NE(rep.text.find("REGRESSION"), std::string::npos);

  opts.threshold = 0.15;
  EXPECT_FALSE(CompareBenchDocs(base, cand, opts).HasRegression());
}

TEST(BenchCompareTest, WallClockSeriesNeverGate) {
  // Series whose unit mentions "wall" measure the host machine, not the
  // simulation; they are reported but must not fail the build.
  BenchDoc base = MakeDoc();
  BenchDoc cand = MakeDoc();
  base.SetSeriesMeta("speedup", "x (wall)", true);
  base.AddPoint("speedup", 8.0, 4.0);
  cand.SetSeriesMeta("speedup", "x (wall)", true);
  cand.AddPoint("speedup", 8.0, 1.0);  // -75%: would gate if simulated
  CompareOptions opts;
  opts.threshold = 0.05;
  const CompareReport rep = CompareBenchDocs(base, cand, opts);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_FALSE(rep.HasRegression());
  EXPECT_NE(rep.text.find("wall-clock, not gating"), std::string::npos);

  // A simulated-time regression in the same document still gates.
  cand.series[0].points[0].y = 1.0;
  EXPECT_TRUE(CompareBenchDocs(base, cand, opts).HasRegression());
}

TEST(BenchCompareTest, CountsMissingPoints) {
  BenchDoc base = MakeDoc();
  BenchDoc cand = MakeDoc();
  cand.series[0].points.pop_back();
  const CompareReport rep = CompareBenchDocs(base, cand, {});
  EXPECT_EQ(rep.missing, 1);
  EXPECT_FALSE(rep.HasRegression());
}

TEST(BenchCompareTest, MainExitCodesAndThresholdFlag) {
  const std::string dir = ::testing::TempDir();
  const std::string base_path = dir + "/base.json";
  const std::string cand_path = dir + "/cand.json";
  BenchDoc base = MakeDoc();
  BenchDoc cand = MakeDoc();
  cand.series[0].points[0].y = 9.0;  // -10% on higher-is-better

  ASSERT_TRUE(WriteTextFile(base_path, base.ToJson()).ok());
  ASSERT_TRUE(WriteTextFile(cand_path, cand.ToJson()).ok());

  std::string out;
  EXPECT_EQ(BenchCompareMain({base_path, cand_path, "--threshold=5%"},
                             &out),
            1);
  EXPECT_NE(out.find("REGRESSION"), std::string::npos);
  EXPECT_EQ(BenchCompareMain({base_path, cand_path, "--threshold=15%"},
                             &out),
            0);
  EXPECT_EQ(BenchCompareMain(
                {base_path, cand_path, "--threshold=5%", "--warn-only"},
                &out),
            0);
  // 0% gates on any harmful change and passes identical documents.
  EXPECT_EQ(BenchCompareMain({base_path, cand_path, "--threshold=0%"},
                             &out),
            1);
  EXPECT_EQ(BenchCompareMain({base_path, base_path, "--threshold=0%"},
                             &out),
            0);
  EXPECT_EQ(BenchCompareMain({base_path, cand_path, "--threshold=-1%"},
                             &out),
            2);
  EXPECT_EQ(BenchCompareMain({base_path}, &out), 2);
  EXPECT_EQ(BenchCompareMain({base_path, dir + "/missing.json"}, &out), 2);
  out.clear();
  EXPECT_EQ(BenchCompareMain({dir + "/missing.json", cand_path}, &out), 2);
  EXPECT_NE(out.find("missing.json"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// DigestRun.

TEST(BenchJsonTest, DigestRunCarriesReportFacts) {
  auto run = RunJoinWithTrace(true);
  const report::RunReport rep =
      report::BuildRunReport(run->trace.ExportEvents());
  const BenchDoc::Run digest = DigestRun(rep, "r0", 1e9, 4);
  EXPECT_EQ(digest.label, "r0");
  EXPECT_DOUBLE_EQ(digest.tuples_per_s, 1e9);
  EXPECT_DOUBLE_EQ(digest.sim_total_ms,
                   sim::ToMillis(rep.critical_path.total));
  ASSERT_FALSE(digest.phase_ms.empty());
  double phase_sum = 0;
  for (const auto& [name, ms] : digest.phase_ms) phase_sum += ms;
  EXPECT_NEAR(phase_sum, digest.sim_total_ms, 1e-6);
  EXPECT_LE(digest.top_links.size(), 4u);
  ASSERT_FALSE(digest.top_links.empty());
  EXPECT_EQ(digest.top_links[0].name, rep.congestion.links[0].name);
  EXPECT_GT(digest.bisection_bps, 0.0);
}

}  // namespace
}  // namespace mgjoin::obs
