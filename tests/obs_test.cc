// Tests for the observability subsystem: Chrome-trace export, the
// metrics registry, the invariant auditor, and their wiring into the
// transfer engine and the join driver.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.h"
#include "data/generator.h"
#include "join/mg_join.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser covering the subset the exporter emits (objects,
// arrays, strings with escapes, non-negative numbers). Parsing the real
// output — instead of grepping it — is what makes the "well-formed and
// replayable" guarantee a tested property.

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  std::string scalar;  // raw text for numbers, decoded text for strings
  std::vector<Json> items;                           // arrays
  std::vector<std::pair<std::string, Json>> members;  // objects

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool Parse(Json* out) {
    const bool ok = Value(out);
    Ws();
    return ok && pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    Ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Value(Json* out) {
    Ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"':
        out->kind = Json::kString;
        return String(&out->scalar);
      case 't':
      case 'f':
      case 'n':
        return Literal(out);
      default:
        return Number(out);
    }
  }

  bool Literal(Json* out) {
    for (const char* word : {"true", "false", "null"}) {
      const std::string_view w(word);
      if (s_.substr(pos_, w.size()) == w) {
        pos_ += w.size();
        out->kind = w == "null" ? Json::kNull : Json::kBool;
        out->scalar = w;
        return true;
      }
    }
    return false;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'u':
          if (pos_ + 4 > s_.size()) return false;
          out->push_back('?');  // exact code point is irrelevant here
          pos_ += 4;
          break;
        default:
          return false;
      }
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }

  bool Number(Json* out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::kNumber;
    out->scalar = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  bool Array(Json* out) {
    if (!Eat('[')) return false;
    out->kind = Json::kArray;
    if (Eat(']')) return true;
    do {
      Json item;
      if (!Value(&item)) return false;
      out->items.push_back(std::move(item));
    } while (Eat(','));
    return Eat(']');
  }

  bool Object(Json* out) {
    if (!Eat('{')) return false;
    out->kind = Json::kObject;
    if (Eat('}')) return true;
    do {
      Ws();
      std::string key;
      if (!String(&key)) return false;
      if (!Eat(':')) return false;
      Json value;
      if (!Value(&value)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
    } while (Eat(','));
    return Eat('}');
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Converts the exporter's fixed-point microsecond text ("12.345678")
/// back to picoseconds, exactly.
std::uint64_t PicosFromMicros(const std::string& num) {
  const std::size_t dot = num.find('.');
  const std::uint64_t whole = std::stoull(num.substr(0, dot));
  std::uint64_t frac = 0;
  if (dot != std::string::npos) {
    std::string f = num.substr(dot + 1);
    EXPECT_LE(f.size(), 6u) << "more than picosecond precision: " << num;
    f.resize(6, '0');
    frac = std::stoull(f);
  }
  return whole * 1000000 + frac;
}

/// Replays a parsed trace: metadata must lead, timestamps must be
/// globally monotonic, and on every track spans must either nest or be
/// disjoint (a stack machine can reconstruct the hierarchy).
void ValidateReplay(const Json& root) {
  ASSERT_EQ(root.kind, Json::kObject);
  const Json* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::kArray);

  struct OpenSpan {
    std::uint64_t ts;
    std::uint64_t end;
  };
  std::map<std::string, std::vector<OpenSpan>> stacks;  // keyed by tid
  std::uint64_t last_ts = 0;
  bool seen_payload = false;
  for (const Json& e : events->items) {
    ASSERT_EQ(e.kind, Json::kObject);
    const Json* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    if (ph->scalar == "M") {
      EXPECT_FALSE(seen_payload) << "metadata must precede payload events";
      continue;
    }
    seen_payload = true;
    const Json* ts_field = e.Find("ts");
    ASSERT_NE(ts_field, nullptr);
    const std::uint64_t ts = PicosFromMicros(ts_field->scalar);
    EXPECT_GE(ts, last_ts) << "timestamps must be monotonic";
    last_ts = ts;

    std::uint64_t end = ts;
    if (ph->scalar == "X") {
      const Json* dur = e.Find("dur");
      ASSERT_NE(dur, nullptr);
      end = ts + PicosFromMicros(dur->scalar);
    } else {
      ASSERT_TRUE(ph->scalar == "i" || ph->scalar == "C")
          << "unexpected phase " << ph->scalar;
    }
    auto& stack = stacks[e.Find("tid")->scalar];
    while (!stack.empty() && stack.back().end <= ts) stack.pop_back();
    if (!stack.empty()) {
      EXPECT_LE(end, stack.back().end)
          << "event overlaps but does not nest within the enclosing span";
    }
    if (ph->scalar == "X") stack.push_back({ts, end});
  }
  EXPECT_TRUE(seen_payload) << "trace has no payload events";
}

/// Track names declared via thread_name metadata.
std::vector<std::string> TrackNames(const Json& root) {
  std::vector<std::string> names;
  const Json* events = root.Find("traceEvents");
  if (events == nullptr) return names;
  for (const Json& e : events->items) {
    const Json* ph = e.Find("ph");
    if (ph == nullptr || ph->scalar != "M") continue;
    if (const Json* args = e.Find("args")) {
      if (const Json* name = args->Find("name")) names.push_back(name->scalar);
    }
  }
  return names;
}

bool AnyStartsWith(const std::vector<std::string>& names,
                   const std::string& prefix) {
  for (const std::string& n : names) {
    if (n.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Runs a small all-to-all shuffle with the given sinks attached.
net::TransferStats RunShuffle(ObsHooks hooks, int g = 4,
                              net::TransferOptions opts = {}) {
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();
  opts.obs = hooks;
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive,
                                opts.max_intermediates);
  net::TransferEngine eng(&s, topo.get(), topo::FirstNGpus(g), policy.get(),
                          opts);
  std::uint64_t id = 0;
  for (int a = 0; a < g; ++a) {
    for (int b = 0; b < g; ++b) {
      if (a == b) continue;
      eng.AddFlow(net::Flow{id++, a, b, 8 * kMiB + a * 64 + b, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  EXPECT_TRUE(eng.AllDone());
  return eng.stats();
}

std::uint64_t CounterValue(const MetricsRegistry& reg,
                           const std::string& name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second.value();
}

// ---------------------------------------------------------------------------
// TraceRecorder.

TEST(TraceTest, TrackIdsFollowRegistrationOrder) {
  TraceRecorder tr;
  EXPECT_EQ(tr.Track("alpha"), 0);
  EXPECT_EQ(tr.Track("beta"), 1);
  EXPECT_EQ(tr.Track("alpha"), 0);
  EXPECT_EQ(tr.num_tracks(), 2u);
}

TEST(TraceTest, SpanClampsReversedInterval) {
  TraceRecorder tr;
  tr.Span(tr.Track("t"), "test", "backwards", 100, 40);
  EXPECT_NE(tr.ToJson().find("\"dur\":0.000000"), std::string::npos);
}

TEST(TraceTest, EscapesSpecialCharactersInNames) {
  TraceRecorder tr;
  tr.Instant(tr.Track("t"), "test", "quote\" slash\\ nl\n", 5);
  Json root;
  ASSERT_TRUE(JsonParser(tr.ToJson()).Parse(&root))
      << "escaped output must still parse";
  const Json& events = *root.Find("traceEvents");
  // Metadata event + the instant; the decoded name round-trips.
  ASSERT_EQ(events.items.size(), 2u);
  EXPECT_EQ(events.items[1].Find("name")->scalar, "quote\" slash\\ nl\n");
}

TEST(TraceTest, ExportPreservesPicosecondResolution) {
  TraceRecorder tr;
  // 1 us + 1 ps: a double-based exporter would lose the tail.
  tr.Instant(tr.Track("t"), "test", "tick", sim::kMicrosecond + 1);
  Json root;
  ASSERT_TRUE(JsonParser(tr.ToJson()).Parse(&root));
  const Json& e = root.Find("traceEvents")->items[1];
  EXPECT_EQ(PicosFromMicros(e.Find("ts")->scalar), sim::kMicrosecond + 1);
}

TEST(TraceTest, EqualStartSpansOrderEnclosingFirst) {
  TraceRecorder tr;
  const int t = tr.Track("t");
  tr.Span(t, "test", "inner", 0, 10);
  tr.Span(t, "test", "outer", 0, 100);  // recorded second, must sort first
  Json root;
  ASSERT_TRUE(JsonParser(tr.ToJson()).Parse(&root));
  const Json& events = *root.Find("traceEvents");
  ASSERT_EQ(events.items.size(), 3u);
  EXPECT_EQ(events.items[1].Find("name")->scalar, "outer");
  ValidateReplay(root);
}

TEST(TraceTest, ShuffleTraceIsWellFormedAndReplayable) {
  TraceRecorder trace;
  const net::TransferStats stats = RunShuffle({.trace = &trace});
  ASSERT_GT(stats.packets, 0u);
  ASSERT_GT(trace.num_events(), 0u);

  Json root;
  ASSERT_TRUE(JsonParser(trace.ToJson()).Parse(&root));
  ValidateReplay(root);

  const auto names = TrackNames(root);
  EXPECT_TRUE(AnyStartsWith(names, "gpu0.dma"))
      << "per-GPU DMA-engine tracks missing";
  EXPECT_TRUE(AnyStartsWith(names, "link."))
      << "per-link occupancy tracks missing";
}

TEST(TraceTest, JoinTraceCarriesPhaseSpans) {
  data::GenOptions gen;
  gen.tuples_per_relation = 4 << 14;
  gen.num_gpus = 4;
  auto [r, s] = data::MakeJoinInput(gen);

  TraceRecorder trace;
  join::MgJoinOptions opts;
  opts.transfer.obs.trace = &trace;
  auto topo = topo::MakeDgx1V();
  join::MgJoin join(topo.get(), topo::FirstNGpus(4), opts);
  ASSERT_TRUE(join.Execute(r, s).ok());

  const std::string json = trace.ToJson();
  for (const char* phase :
       {"histogram", "distribution", "global_partition", "local_partition",
        "probe", "join_total"}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  Json root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  ValidateReplay(root);
  EXPECT_TRUE(AnyStartsWith(TrackNames(root), "join.phases"));
}

TEST(TraceTest, WriteFileRejectsBadPath) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.WriteFile("/nonexistent-dir/trace.json").ok());
}

TEST(TraceTest, WriteFileReportsFailedFlush) {
  // /dev/full accepts the open and the buffered write; only the flush at
  // close fails, and that failure must reach the caller.
  TraceRecorder tr;
  tr.Instant(tr.Track("t"), "test", "x", 0);
  EXPECT_FALSE(tr.WriteFile("/dev/full").ok());
}

TEST(TextFileTest, RoundTripsEveryByteAndReportsFailures) {
  const std::string path = ::testing::TempDir() + "/bytes.bin";
  std::string text = "a\x80\xff";
  text.push_back('\0');
  text += "b\n";
  ASSERT_TRUE(WriteTextFile(path, text).ok());
  auto read = ReadTextFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), text);
  std::remove(path.c_str());

  const std::string missing = ::testing::TempDir() + "/no-such-file.json";
  auto none = ReadTextFile(missing);
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().ToString().find(missing), std::string::npos);

  // Larger than the stdio buffer: fwrite itself comes up short.
  EXPECT_FALSE(WriteTextFile("/dev/full", std::string(1 << 20, 'x')).ok());
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(MetricsTest, GaugeTracksHighWater) {
  Gauge g;
  g.Set(5);
  g.Set(2);
  EXPECT_EQ(g.value(), 2u);
  EXPECT_EQ(g.high_water(), 5u);
}

TEST(MetricsTest, HistogramAggregates) {
  Histogram h;
  EXPECT_EQ(h.min(), 0u);  // empty histogram
  h.Observe(1);
  h.Observe(4);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1005u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 335.0);
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : h.buckets()) bucketed += b;
  EXPECT_EQ(bucketed, h.count());
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // empty
  for (std::uint64_t v = 1; v <= 100; ++v) h.Observe(v);
  // Power-of-two buckets bound the error by the bucket width; the
  // interpolated estimates must land in the right neighborhood and be
  // monotone in q.
  EXPECT_EQ(h.P50(), h.ValueAtQuantile(0.5));
  EXPECT_GE(h.P50(), 33u);
  EXPECT_LE(h.P50(), 64u);
  EXPECT_GE(h.P95(), 65u);
  EXPECT_LE(h.P95(), 100u);
  EXPECT_GE(h.P99(), h.P95());
  EXPECT_LE(h.P99(), h.max());
  EXPECT_GE(h.P95(), h.P50());
  // Quantiles clamp to the observed range.
  EXPECT_EQ(h.ValueAtQuantile(0.0), h.min());
  EXPECT_EQ(h.ValueAtQuantile(1.0), h.max());

  Histogram single;
  single.Observe(42);
  EXPECT_EQ(single.P50(), 42u);
  EXPECT_EQ(single.P99(), 42u);
}

TEST(MetricsTest, SummaryIncludesQuantiles) {
  MetricsRegistry reg;
  for (std::uint64_t v = 1; v <= 64; ++v) {
    reg.histogram("queue_ns").Observe(v);
  }
  const std::string summary = reg.Summary(sim::kMillisecond);
  EXPECT_NE(summary.find("p50"), std::string::npos);
  EXPECT_NE(summary.find("p99"), std::string::npos);
  EXPECT_NE(summary.find("queue_ns"), std::string::npos);
}

TEST(MetricsTest, TimelineBinsBusyTime) {
  Timeline tl;  // 1 ms bins
  tl.AddBusy(0, 500 * sim::kMicrosecond);
  tl.AddBusy(1500 * sim::kMicrosecond, 2500 * sim::kMicrosecond);
  EXPECT_EQ(tl.busy(), 1500 * sim::kMicrosecond);
  EXPECT_EQ(tl.last_end(), 2500 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(tl.Utilization(3 * sim::kMillisecond), 0.5);
  const auto profile = tl.Profile();
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_DOUBLE_EQ(profile[0], 0.5);
  EXPECT_DOUBLE_EQ(profile[1], 0.5);
  EXPECT_DOUBLE_EQ(profile[2], 0.5);
  EXPECT_LE(tl.Sparkline(2).size(), 2u);
}

TEST(MetricsTest, HistogramEmptyIsFullyGuarded) {
  // Regression: every accessor of an empty histogram must return a
  // defined value (0), not read past empty buckets or divide by zero.
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P95(), 0u);
  EXPECT_EQ(h.P99(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 0u);
  // Out-of-range q is clamped, not UB — still 0 when empty.
  EXPECT_EQ(h.ValueAtQuantile(-3.0), 0u);
  EXPECT_EQ(h.ValueAtQuantile(7.5), 0u);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(MetricsTest, HandlesTouchTheSameMetricAsNames) {
  MetricsRegistry reg;
  CounterHandle c = reg.counter_handle("net.payload_bytes");
  GaugeHandle g = reg.gauge_handle("net.ring_occupancy");
  HistogramHandle h = reg.histogram_handle("net.batch_packets");
  EXPECT_TRUE(static_cast<bool>(c));
  c.Add(64);
  c.Add(36);
  g.Set(9);
  h.Observe(7);
  EXPECT_EQ(reg.counter("net.payload_bytes").value(), 100u);
  EXPECT_EQ(reg.gauge("net.ring_occupancy").value(), 9u);
  EXPECT_EQ(reg.histogram("net.batch_packets").count(), 1u);
  // Handles alias the registry nodes: later by-name touches are visible
  // through previously resolved handles (std::map nodes never move).
  reg.counter("net.payload_bytes").Add(1);
  c.Add(1);
  EXPECT_EQ(reg.counter("net.payload_bytes").value(), 102u);
}

TEST(MetricsTest, EmptyHandlesAreInertNoOps) {
  // Resolve against a null registry (metrics disabled): every touch
  // must be a safe no-op, so hot paths need no branching.
  CounterHandle c =
      MetricsRegistry::ResolveCounter(nullptr, "net.payload_bytes");
  GaugeHandle g =
      MetricsRegistry::ResolveGauge(nullptr, "net.ring_occupancy");
  HistogramHandle h =
      MetricsRegistry::ResolveHistogram(nullptr, "net.batch_packets");
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  c.Add(64);
  g.Set(9);
  h.Observe(7);  // must not crash
  CounterHandle def;
  def.Add(1);
  EXPECT_FALSE(static_cast<bool>(def));
}

TEST(MetricsTest, TimelineEmptyProfileAndSparkline) {
  const Timeline tl;
  EXPECT_EQ(tl.busy(), 0u);
  EXPECT_EQ(tl.last_end(), 0u);
  EXPECT_DOUBLE_EQ(tl.Utilization(0), 0.0);  // zero window guarded
  EXPECT_DOUBLE_EQ(tl.Utilization(sim::kMillisecond), 0.0);
  EXPECT_TRUE(tl.Profile().empty());
  EXPECT_EQ(tl.Sparkline(), "");
  EXPECT_EQ(tl.Sparkline(0), "");  // zero columns guarded
}

TEST(MetricsTest, TimelineSingleBinAndZeroWidthIntervals) {
  Timeline tl;  // 1 ms bins
  tl.AddBusy(100, 100);  // zero-width: ignored
  tl.AddBusy(200, 100);  // reversed: ignored
  EXPECT_EQ(tl.busy(), 0u);
  tl.AddBusy(250 * sim::kMicrosecond, 750 * sim::kMicrosecond);
  ASSERT_EQ(tl.Profile().size(), 1u);
  EXPECT_DOUBLE_EQ(tl.Profile()[0], 0.5);
  EXPECT_EQ(tl.Sparkline(), "5");
}

TEST(MetricsTest, TimelineExactBinBoundaries) {
  Timeline tl;  // 1 ms bins
  // [1 ms, 2 ms) lands wholly in bin 1: a busy interval ending exactly
  // on a bin edge must not bleed into the next bin.
  tl.AddBusy(sim::kMillisecond, 2 * sim::kMillisecond);
  const auto profile = tl.Profile();
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_DOUBLE_EQ(profile[0], 0.0);
  EXPECT_DOUBLE_EQ(profile[1], 1.0);
  EXPECT_EQ(tl.Sparkline(), "0X");
}

TEST(MetricsTest, TimelineAcceptsNonMonotoneIntervals) {
  // Reservations land out of order (adaptive rerouting books future
  // slots, then earlier ones); accumulation must not depend on order.
  Timeline fwd;
  fwd.AddBusy(0, sim::kMillisecond);
  fwd.AddBusy(2 * sim::kMillisecond, 3 * sim::kMillisecond);
  Timeline rev;
  rev.AddBusy(2 * sim::kMillisecond, 3 * sim::kMillisecond);
  rev.AddBusy(0, sim::kMillisecond);
  EXPECT_EQ(fwd.busy(), rev.busy());
  EXPECT_EQ(fwd.last_end(), rev.last_end());
  EXPECT_EQ(fwd.Profile(), rev.Profile());
  EXPECT_EQ(fwd.Sparkline(), rev.Sparkline());
  EXPECT_EQ(fwd.Sparkline(), "X0X");
}

TEST(MetricsTest, ShuffleCountersMatchTransferStats) {
  MetricsRegistry reg;
  const net::TransferStats stats = RunShuffle({.metrics = &reg});
  EXPECT_EQ(CounterValue(reg, "net.packets"), stats.packets);
  EXPECT_EQ(CounterValue(reg, "net.payload_bytes"), stats.payload_bytes);
  EXPECT_EQ(CounterValue(reg, "net.wire_bytes"), stats.wire_bytes);
  EXPECT_EQ(CounterValue(reg, "net.packet_hops"), stats.packet_hops);
  EXPECT_EQ(CounterValue(reg, "net.batches"), stats.batches);
  EXPECT_EQ(CounterValue(reg, "net.ring_syncs"), stats.ring_syncs);
  EXPECT_EQ(CounterValue(reg, "net.escapes"), stats.escapes);

  const auto it = reg.histograms().find("net.batch_packets");
  ASSERT_NE(it, reg.histograms().end());
  EXPECT_EQ(it->second.count(), stats.batches);

  // At least one link timeline accumulated busy time.
  bool busy_link = false;
  for (const auto& [name, tl] : reg.timelines()) {
    if (name.rfind("link.", 0) == 0 && tl.busy() > 0) busy_link = true;
  }
  EXPECT_TRUE(busy_link);

  const std::string summary = reg.Summary(stats.Makespan());
  EXPECT_NE(summary.find("net.packets"), std::string::npos);
  EXPECT_NE(summary.find("link."), std::string::npos);
}

// ---------------------------------------------------------------------------
// InvariantAuditor.

TEST(AuditTest, HealthyEngineRunPassesAllChecks) {
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  net::TransferEngine eng(&s, topo.get(), topo::FirstNGpus(4), policy.get(),
                          {});
  std::uint64_t id = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) eng.AddFlow(net::Flow{id++, a, b, 16 * kMiB, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone());
  // The engine-owned default auditor was active throughout.
  EXPECT_GT(eng.auditor().pokes(), 0u);
  EXPECT_GT(eng.auditor().checks_run(), 0u);
  EXPECT_EQ(eng.auditor().violations(), 0u);
  EXPECT_TRUE(eng.auditor().RunChecks());
}

TEST(AuditTest, DetectsInjectedRingOverclaim) {
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  net::TransferEngine eng(&s, topo.get(), topo::FirstNGpus(4), policy.get(),
                          {});
  std::vector<std::string> failures;
  eng.auditor().set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  eng.AddFlow(net::Flow{0, 0, 1, 16 * kMiB, 0, 0.0, 0, {}});
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone());
  ASSERT_TRUE(failures.empty());

  // Overclaim far past any plausible slot count; the next check cycle
  // must flag the corrupted ring accounting and attach the debug dump.
  eng.CorruptRingForTest(1, 0, 1u << 20);
  EXPECT_FALSE(eng.auditor().RunChecks());
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("ring_slot_accounting"), std::string::npos);
  EXPECT_NE(failures[0].find("InvariantAuditor"), std::string::npos);
  EXPECT_GT(eng.auditor().violations(), 0u);
}

TEST(AuditTest, WatchdogFlagsStalledRun) {
  sim::Simulator s;
  AuditOptions opts;
  opts.watchdog_interval = sim::kMillisecond;
  opts.watchdog_limit = 3;
  InvariantAuditor auditor(opts);
  std::vector<std::string> failures;
  auditor.set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  auditor.set_progress_fn([] { return std::uint64_t{7}; });  // stuck
  auditor.set_done_fn([] { return false; });
  auditor.StartWatchdog(&s);
  s.Run();  // terminates: the watchdog disarms after declaring deadlock
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("deadlock"), std::string::npos);
  EXPECT_EQ(s.Now(), 3 * sim::kMillisecond);
}

TEST(AuditTest, WatchdogDisarmsWhenDone) {
  sim::Simulator s;
  AuditOptions opts;
  opts.watchdog_interval = sim::kMillisecond;
  InvariantAuditor auditor(opts);
  std::vector<std::string> failures;
  auditor.set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  auditor.set_done_fn([] { return true; });
  auditor.StartWatchdog(&s);
  s.Run();
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(s.Now(), sim::kMillisecond);  // single tick, then queue drains
}

TEST(AuditTest, FlagsBackwardsClock) {
  InvariantAuditor auditor;
  std::vector<std::string> failures;
  auditor.set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  auditor.ObserveTime(10);
  auditor.ObserveTime(5);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("backwards"), std::string::npos);
}

TEST(AuditTest, DisabledAuditorIsInert) {
  AuditOptions opts;
  opts.enabled = false;
  InvariantAuditor auditor(opts);
  auditor.AddCheck("always_fails", [] { return std::string("boom"); });
  for (int i = 0; i < 1000; ++i) auditor.Poke();
  EXPECT_TRUE(auditor.RunChecks());
  EXPECT_EQ(auditor.violations(), 0u);
  sim::Simulator s;
  auditor.StartWatchdog(&s);
  EXPECT_TRUE(s.Empty());
}

TEST(AuditTest, PokeSamplesChecks) {
  InvariantAuditor auditor;  // sample_every = 64
  int runs = 0;
  auditor.AddCheck("count", [&runs] {
    ++runs;
    return std::string();
  });
  for (int i = 0; i < 128; ++i) auditor.Poke();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(auditor.pokes(), 128u);
}

}  // namespace
}  // namespace mgjoin::obs
