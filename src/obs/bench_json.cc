#include "obs/bench_json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/export.h"
#include "obs/json.h"

namespace mgjoin::obs {

namespace {

constexpr const char kSchema[] = "mgjoin-bench/1";

void AppendKV(std::string* out, const char* key, const std::string& v) {
  json::AppendQuoted(out, key);
  *out += ": ";
  json::AppendQuoted(out, v);
}

void AppendKV(std::string* out, const char* key, double v) {
  json::AppendQuoted(out, key);
  *out += ": " + json::FormatNumber(v);
}

}  // namespace

std::string BenchDoc::Point::Key() const {
  return xlabel.empty() ? json::FormatNumber(x) : xlabel;
}

BenchDoc::Series& BenchDoc::GetSeries(const std::string& name) {
  for (Series& s : series) {
    if (s.name == name) return s;
  }
  series.push_back(Series{name, "", true, {}});
  return series.back();
}

void BenchDoc::AddPoint(const std::string& series_name, double x,
                        double y) {
  GetSeries(series_name).points.push_back(Point{x, "", y});
}

void BenchDoc::AddPoint(const std::string& series_name,
                        const std::string& xlabel, double y) {
  Series& s = GetSeries(series_name);
  s.points.push_back(
      Point{static_cast<double>(s.points.size()), xlabel, y});
}

void BenchDoc::SetSeriesMeta(const std::string& series_name,
                             const std::string& unit,
                             bool higher_is_better) {
  Series& s = GetSeries(series_name);
  s.unit = unit;
  s.higher_is_better = higher_is_better;
}

std::string BenchDoc::ToJson() const {
  std::string out = "{\n";
  out += "  ";
  AppendKV(&out, "schema", std::string(kSchema));
  out += ",\n  ";
  AppendKV(&out, "name", name);
  out += ",\n  ";
  AppendKV(&out, "figure", figure);
  out += ",\n  ";
  AppendKV(&out, "description", description);
  out += ",\n  ";
  AppendKV(&out, "topology", topology);
  out += ",\n  ";
  AppendKV(&out, "gpus", static_cast<double>(gpus));
  out += ",\n  ";
  AppendKV(&out, "git_commit", git_commit);
  out += ",\n  ";
  AppendKV(&out, "wall_seconds", wall_seconds);
  // Single line on purpose: wall data is machine-dependent, and one
  // line is what lets StripVolatileLines-style checks drop it.
  out += ",\n  \"wall_phases\": [";
  for (std::size_t i = 0; i < wall_phases.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{";
    AppendKV(&out, "name", wall_phases[i].first);
    out += ", ";
    AppendKV(&out, "s", wall_phases[i].second);
    out += "}";
  }
  out += "]";
  out += ",\n  \"series\": [";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    AppendKV(&out, "name", s.name);
    out += ", ";
    AppendKV(&out, "unit", s.unit);
    out += ", \"higher_is_better\": ";
    out += s.higher_is_better ? "true" : "false";
    out += ", \"points\": [";
    for (std::size_t p = 0; p < s.points.size(); ++p) {
      const Point& pt = s.points[p];
      out += p == 0 ? "\n" : ",\n";
      out += "      {";
      if (!pt.xlabel.empty()) {
        AppendKV(&out, "xlabel", pt.xlabel);
        out += ", ";
      }
      AppendKV(&out, "x", pt.x);
      out += ", ";
      AppendKV(&out, "y", pt.y);
      out += "}";
    }
    out += s.points.empty() ? "]}" : "\n    ]}";
  }
  out += series.empty() ? "],\n" : "\n  ],\n";
  out += "  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    AppendKV(&out, "label", r.label);
    out += ", ";
    AppendKV(&out, "sim_total_ms", r.sim_total_ms);
    out += ", ";
    AppendKV(&out, "tuples_per_s", r.tuples_per_s);
    out += ", ";
    AppendKV(&out, "bisection_bps", r.bisection_bps);
    out += ", ";
    AppendKV(&out, "achieved_wire_bps", r.achieved_wire_bps);
    out += ", \"phases\": [";
    for (std::size_t p = 0; p < r.phase_ms.size(); ++p) {
      if (p > 0) out += ", ";
      out += "{";
      AppendKV(&out, "name", r.phase_ms[p].first);
      out += ", ";
      AppendKV(&out, "ms", r.phase_ms[p].second);
      out += "}";
    }
    out += "], \"links\": [";
    for (std::size_t l = 0; l < r.top_links.size(); ++l) {
      const Run::Link& ln = r.top_links[l];
      out += l == 0 ? "\n" : ",\n";
      out += "      {";
      AppendKV(&out, "name", ln.name);
      out += ", ";
      AppendKV(&out, "busy_ms", ln.busy_ms);
      out += ", ";
      AppendKV(&out, "util", ln.utilization);
      out += ", ";
      AppendKV(&out, "mib", ln.mib);
      out += ", ";
      AppendKV(&out, "availability", ln.availability);
      out += ", ";
      AppendKV(&out, "queue_p99_ns", ln.queue_p99_ns);
      out += "}";
    }
    out += r.top_links.empty() ? "]}" : "\n    ]}";
  }
  out += runs.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Result<BenchDoc> BenchDoc::FromJson(const std::string& text) {
  auto parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const json::Value& root = parsed.value();
  if (!root.IsObject()) {
    return Status::InvalidArgument("bench json: not an object");
  }
  if (root.StringOr("schema", "") != kSchema) {
    return Status::InvalidArgument("bench json: unknown schema \"" +
                                   root.StringOr("schema", "") + "\"");
  }
  BenchDoc doc;
  doc.name = root.StringOr("name", "");
  doc.figure = root.StringOr("figure", "");
  doc.description = root.StringOr("description", "");
  doc.topology = root.StringOr("topology", "");
  doc.gpus = static_cast<int>(root.NumberOr("gpus", 0));
  doc.git_commit = root.StringOr("git_commit", "unknown");
  doc.wall_seconds = root.NumberOr("wall_seconds", 0);
  if (const json::Value* wall = root.Find("wall_phases");
      wall != nullptr && wall->IsArray()) {
    for (const json::Value& p : wall->items) {
      doc.wall_phases.emplace_back(p.StringOr("name", ""),
                                   p.NumberOr("s", 0));
    }
  }
  if (const json::Value* series = root.Find("series");
      series != nullptr && series->IsArray()) {
    for (const json::Value& s : series->items) {
      Series out;
      out.name = s.StringOr("name", "");
      out.unit = s.StringOr("unit", "");
      out.higher_is_better = s.BoolOr("higher_is_better", true);
      if (const json::Value* points = s.Find("points");
          points != nullptr && points->IsArray()) {
        for (const json::Value& p : points->items) {
          out.points.push_back(Point{p.NumberOr("x", 0),
                                     p.StringOr("xlabel", ""),
                                     p.NumberOr("y", 0)});
        }
      }
      doc.series.push_back(std::move(out));
    }
  }
  if (const json::Value* runs = root.Find("runs");
      runs != nullptr && runs->IsArray()) {
    for (const json::Value& r : runs->items) {
      Run out;
      out.label = r.StringOr("label", "");
      out.sim_total_ms = r.NumberOr("sim_total_ms", 0);
      out.tuples_per_s = r.NumberOr("tuples_per_s", 0);
      out.bisection_bps = r.NumberOr("bisection_bps", 0);
      out.achieved_wire_bps = r.NumberOr("achieved_wire_bps", 0);
      if (const json::Value* phases = r.Find("phases");
          phases != nullptr && phases->IsArray()) {
        for (const json::Value& p : phases->items) {
          out.phase_ms.emplace_back(p.StringOr("name", ""),
                                    p.NumberOr("ms", 0));
        }
      }
      if (const json::Value* links = r.Find("links");
          links != nullptr && links->IsArray()) {
        for (const json::Value& l : links->items) {
          out.top_links.push_back(Run::Link{
              l.StringOr("name", ""), l.NumberOr("busy_ms", 0),
              l.NumberOr("util", 0), l.NumberOr("mib", 0),
              l.NumberOr("availability", 1), l.NumberOr("queue_p99_ns", 0)});
        }
      }
      doc.runs.push_back(std::move(out));
    }
  }
  return doc;
}

BenchDoc::Run DigestRun(const report::RunReport& report, std::string label,
                        double tuples_per_s, std::size_t max_links) {
  BenchDoc::Run run;
  run.label = std::move(label);
  run.sim_total_ms = sim::ToMillis(report.critical_path.total);
  run.tuples_per_s = tuples_per_s;
  for (const auto& [phase, t] : report.critical_path.phase_totals) {
    run.phase_ms.emplace_back(phase, sim::ToMillis(t));
  }
  const sim::SimTime window = report.congestion.Window();
  const std::size_t n = std::min(max_links, report.congestion.links.size());
  for (std::size_t i = 0; i < n; ++i) {
    const report::LinkReport& l = report.congestion.links[i];
    run.top_links.push_back(BenchDoc::Run::Link{
        l.name, sim::ToMillis(l.busy), l.Utilization(window),
        static_cast<double>(l.bytes) / (1024.0 * 1024.0), l.availability,
        static_cast<double>(l.queue_ns.p99)});
  }
  run.bisection_bps = report.congestion.bisection_bps;
  run.achieved_wire_bps = report.congestion.achieved_wire_bps;
  return run;
}

CompareReport CompareBenchDocs(const BenchDoc& baseline,
                               const BenchDoc& candidate,
                               const CompareOptions& options) {
  CompareReport out;
  char line[256];
  for (const BenchDoc::Series& bs : baseline.series) {
    const BenchDoc::Series* cs = nullptr;
    for (const BenchDoc::Series& s : candidate.series) {
      if (s.name == bs.name) {
        cs = &s;
        break;
      }
    }
    if (cs == nullptr) {
      out.missing += static_cast<int>(bs.points.size());
      out.text += "series \"" + bs.name + "\": missing from candidate\n";
      continue;
    }
    // Wall-clock series measure the host machine, not the simulation;
    // they are reported but never gate (simulated-time series do).
    const bool wall_series =
        bs.unit.find("wall") != std::string::npos;
    std::snprintf(line, sizeof(line), "series \"%s\" (%s is better%s):\n",
                  bs.name.c_str(),
                  bs.higher_is_better ? "higher" : "lower",
                  wall_series ? ", wall-clock: informational" : "");
    out.text += line;
    for (const BenchDoc::Point& bp : bs.points) {
      const BenchDoc::Point* cp = nullptr;
      for (const BenchDoc::Point& p : cs->points) {
        if (p.Key() == bp.Key()) {
          cp = &p;
          break;
        }
      }
      if (cp == nullptr) {
        ++out.missing;
        out.text += "  x=" + bp.Key() + ": missing from candidate\n";
        continue;
      }
      ++out.points_compared;
      double delta = 0.0;
      if (bp.y != 0.0) {
        delta = (cp->y - bp.y) / std::fabs(bp.y);
      } else if (cp->y != 0.0) {
        delta = cp->y > 0 ? 1.0 : -1.0;
      }
      const double harm = bs.higher_is_better ? -delta : delta;
      const char* verdict = "ok";
      if (harm > options.threshold) {
        if (wall_series) {
          verdict = "slower (wall-clock, not gating)";
        } else {
          verdict = "REGRESSION";
          ++out.regressions;
        }
      } else if (harm < -options.threshold) {
        verdict = "improvement";
        if (!wall_series) ++out.improvements;
      }
      std::snprintf(line, sizeof(line),
                    "  x=%-12s %13.6g -> %13.6g  (%+.2f%%)  %s\n",
                    bp.Key().c_str(), bp.y, cp->y, 100.0 * delta, verdict);
      out.text += line;
    }
  }
  std::snprintf(line, sizeof(line),
                "%d points compared (threshold %.1f%%): %d regressions, "
                "%d improvements, %d missing\n",
                out.points_compared, 100.0 * options.threshold,
                out.regressions, out.improvements, out.missing);
  out.text += line;
  return out;
}

int BenchCompareMain(const std::vector<std::string>& args,
                     std::string* out) {
  CompareOptions options;
  bool warn_only = false;
  std::vector<std::string> files;
  for (const std::string& a : args) {
    if (a.rfind("--threshold=", 0) == 0) {
      const std::string v = a.substr(12);
      char* end = nullptr;
      double t = std::strtod(v.c_str(), &end);
      if (end != nullptr && *end == '%') t /= 100.0;
      // 0% is valid: any harmful delta at all is a regression.
      if (!(t >= 0.0)) {
        *out += "bad --threshold value: " + v + "\n";
        return 2;
      }
      options.threshold = t;
    } else if (a == "--warn-only") {
      warn_only = true;
    } else if (a.rfind("--", 0) == 0) {
      *out += "unknown flag: " + a + "\n";
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    *out +=
        "usage: bench_compare <baseline.json> <candidate.json> "
        "[--threshold=5%] [--warn-only]\n";
    return 2;
  }
  std::vector<BenchDoc> docs;
  for (const std::string& path : files) {
    auto text = ReadTextFile(path);
    if (!text.ok()) {
      *out += text.status().ToString() + "\n";
      return 2;
    }
    auto doc = BenchDoc::FromJson(text.value());
    if (!doc.ok()) {
      *out += path + ": " + doc.status().ToString() + "\n";
      return 2;
    }
    docs.push_back(std::move(doc).value());
  }
  const CompareReport report = CompareBenchDocs(docs[0], docs[1], options);
  *out += report.text;
  if (report.HasRegression()) {
    *out += warn_only ? "regressions found (warn-only mode)\n"
                      : "regressions found\n";
    return warn_only ? 0 : 1;
  }
  return 0;
}

}  // namespace mgjoin::obs
