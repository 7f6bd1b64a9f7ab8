#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "obs/export.h"
#include "obs/json.h"

namespace mgjoin::obs {

namespace {

/// Chrome traces use microsecond timestamps; SimTime is picoseconds.
/// Emitting fixed-point microseconds with 6 decimals preserves the full
/// picosecond resolution and keeps the output byte-deterministic (no
/// double formatting is involved).
void AppendMicros(std::string* out, sim::SimTime ps) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64, ps / 1000000,
                ps % 1000000);
  *out += buf;
}

void AppendArgs(std::string* out, const TraceRecorder::Args& args) {
  *out += "\"args\":{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) out->push_back(',');
    first = false;
    json::AppendQuoted(out, k);
    *out += ":" + std::to_string(v);
  }
  out->push_back('}');
}

}  // namespace

int TraceRecorder::Track(const std::string& name) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const int id = static_cast<int>(tracks_.size());
  track_ids_.emplace(name, id);
  tracks_.push_back(name);
  return id;
}

void TraceRecorder::Span(int track, const char* category, std::string name,
                         sim::SimTime start, sim::SimTime end, Args args) {
  Event e;
  e.phase = Phase::kSpan;
  e.track = track;
  e.category = category;
  e.name = std::move(name);
  e.ts = start;
  e.dur = end > start ? end - start : 0;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::Instant(int track, const char* category,
                            std::string name, sim::SimTime when, Args args) {
  Event e;
  e.phase = Phase::kInstant;
  e.track = track;
  e.category = category;
  e.name = std::move(name);
  e.ts = when;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::Counter(std::string name, sim::SimTime when,
                            std::uint64_t value) {
  Event e;
  e.phase = Phase::kCounter;
  e.track = 0;
  e.category = "counter";
  e.name = std::move(name);
  e.ts = when;
  e.value = value;
  events_.push_back(std::move(e));
}

std::vector<TraceEvent> TraceRecorder::ExportEvents(
    std::size_t from) const {
  std::vector<TraceEvent> out;
  if (from >= events_.size()) return out;
  // Same canonical order as ToJson (ts, then longest-first, then
  // recording order): a report built from the recorder is structurally
  // identical to one re-imported from the written trace file.
  std::vector<std::size_t> order(events_.size() - from);
  std::iota(order.begin(), order.end(), from);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (events_[a].ts != events_[b].ts) {
                       return events_[a].ts < events_[b].ts;
                     }
                     return events_[a].dur > events_[b].dur;
                   });
  out.reserve(order.size());
  for (std::size_t i : order) {
    const Event& e = events_[i];
    TraceEvent t;
    switch (e.phase) {
      case Phase::kSpan:
        t.kind = TraceEvent::Kind::kSpan;
        break;
      case Phase::kInstant:
        t.kind = TraceEvent::Kind::kInstant;
        break;
      case Phase::kCounter:
        t.kind = TraceEvent::Kind::kCounter;
        break;
    }
    // Counters are trackless (recorded against tid 0, which may never
    // have been registered as a named track).
    if (static_cast<std::size_t>(e.track) < tracks_.size()) {
      t.track = tracks_[static_cast<std::size_t>(e.track)];
    }
    t.category = e.category;
    t.name = e.name;
    t.ts = e.ts;
    t.dur = e.dur;
    t.value = e.value;
    t.args = e.args;
    out.push_back(std::move(t));
  }
  return out;
}

std::string TraceRecorder::ToJson() const {
  // Stable sort by timestamp, longest span first on ties (an enclosing
  // span must precede the spans it contains for stack-based replay);
  // remaining ties keep recording order. Spans carry their *start*
  // time, so the exported stream is monotonic in ts — required by the
  // replay validation in obs_test.
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (events_[a].ts != events_[b].ts) {
                       return events_[a].ts < events_[b].ts;
                     }
                     return events_[a].dur > events_[b].dur;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Track-name metadata first (ts-less, viewers expect them early).
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(t) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    json::AppendQuoted(&out, tracks_[t]);
    out += "}}";
  }
  for (std::size_t i : order) {
    const Event& e = events_[i];
    if (!first) out.push_back(',');
    first = false;
    out += "{\"pid\":1,\"tid\":" + std::to_string(e.track) + ",\"name\":";
    json::AppendQuoted(&out, e.name);
    out += ",\"cat\":";
    json::AppendQuoted(&out, e.category);
    out += ",\"ts\":";
    AppendMicros(&out, e.ts);
    switch (e.phase) {
      case Phase::kSpan:
        out += ",\"ph\":\"X\",\"dur\":";
        AppendMicros(&out, e.dur);
        out.push_back(',');
        AppendArgs(&out, e.args);
        break;
      case Phase::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\",";
        AppendArgs(&out, e.args);
        break;
      case Phase::kCounter:
        out += ",\"ph\":\"C\",\"args\":{\"value\":" +
               std::to_string(e.value) + "}";
        break;
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

Status TraceRecorder::WriteFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace mgjoin::obs
