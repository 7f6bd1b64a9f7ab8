#include "obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "sim/sim_time.h"

namespace mgjoin::obs {

namespace {

/// "net.flow.q0.shuffle" -> "mgj_net_flow_q0_shuffle".
std::string OmName(const std::string& name) {
  std::string out = "mgj_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string EscapeLabel(const std::string& v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Simulated picoseconds as an OpenMetrics timestamp (seconds).
std::string OmTimestamp(sim::SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%012llu",
                static_cast<unsigned long long>(t / sim::kSecond),
                static_cast<unsigned long long>(t % sim::kSecond));
  return buf;
}

struct Family {
  std::string type;
  std::vector<std::string> lines;
};

void EmitRegistry(const MetricsRegistry& m,
                  std::map<std::string, Family>* fams) {
  for (const auto& [name, c] : m.counters()) {
    Family& f = (*fams)[OmName(name)];
    f.type = "counter";
    f.lines.push_back(OmName(name) + "_total " +
                      std::to_string(c.value()));
  }
  for (const auto& [name, g] : m.gauges()) {
    Family& f = (*fams)[OmName(name)];
    f.type = "gauge";
    f.lines.push_back(OmName(name) + " " + std::to_string(g.value()));
    Family& hw = (*fams)[OmName(name + ".high_water")];
    hw.type = "gauge";
    hw.lines.push_back(OmName(name + ".high_water") + " " +
                       std::to_string(g.high_water()));
  }
  for (const auto& [name, h] : m.histograms()) {
    const std::string om = OmName(name);
    Family& f = (*fams)[om];
    f.type = "histogram";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      cumulative += h.buckets()[i];
      // Bucket i counts integer values < 2^i, so the inclusive upper
      // bound is 2^i - 1 (bucket 0 holds zeros and ones: le="1").
      const std::uint64_t le = i == 0 ? 1 : (1ull << i) - 1;
      f.lines.push_back(om + "_bucket{le=\"" + std::to_string(le) +
                        "\"} " + std::to_string(cumulative));
    }
    f.lines.push_back(om + "_bucket{le=\"+Inf\"} " +
                      std::to_string(h.count()));
    f.lines.push_back(om + "_sum " + std::to_string(h.sum()));
    f.lines.push_back(om + "_count " + std::to_string(h.count()));
  }
  // Timelines are rendered by obs/report; they have no natural
  // OpenMetrics shape, so the exposition skips them.
}

void EmitSampler(const TelemetrySampler& t, const std::string& run_label,
                 std::map<std::string, Family>* fams) {
  for (const TelemetrySampler::Series& s : t.series()) {
    std::string fam_name;
    std::string labels;
    if (s.is_flow) {
      fam_name = "mgj_sample_flow_" + OmName(s.metric).substr(4);
      labels = "query=\"" + std::to_string(s.tag.query_id) +
               "\",phase=\"" + EscapeLabel(s.tag.phase) + "\",src=\"" +
               std::to_string(s.tag.src) + "\",dst=\"" +
               std::to_string(s.tag.dst) + "\"";
    } else {
      fam_name = "mgj_sample_" + OmName(s.name).substr(4);
    }
    if (!run_label.empty()) {
      if (!labels.empty()) labels += ",";
      labels += "run=\"" + run_label + "\"";
    }
    Family& f = (*fams)[fam_name];
    f.type = "gauge";
    for (const TimeSeries::Sample& sample : s.data.samples()) {
      std::string line = fam_name;
      if (!labels.empty()) line += "{" + labels + "}";
      line += " " + std::to_string(sample.value) + " " +
              OmTimestamp(sample.t);
      f.lines.push_back(std::move(line));
    }
  }
}

std::string Render(const std::map<std::string, Family>& fams) {
  std::ostringstream out;
  for (const auto& [name, fam] : fams) {
    out << "# TYPE " << name << " " << fam.type << "\n";
    for (const std::string& line : fam.lines) out << line << "\n";
  }
  out << "# EOF\n";
  return out.str();
}

}  // namespace

std::string OpenMetricsText(const MetricsRegistry* metrics,
                            const TelemetrySampler* telemetry) {
  std::vector<const TelemetrySampler*> t;
  if (telemetry != nullptr) t.push_back(telemetry);
  return OpenMetricsText(metrics, t);
}

std::string OpenMetricsText(
    const MetricsRegistry* metrics,
    const std::vector<const TelemetrySampler*>& telemetry) {
  std::map<std::string, Family> fams;
  if (metrics != nullptr) EmitRegistry(*metrics, &fams);
  for (std::size_t i = 0; i < telemetry.size(); ++i) {
    if (telemetry[i] == nullptr) continue;
    const std::string run =
        telemetry.size() > 1 ? std::to_string(i) : std::string();
    EmitSampler(*telemetry[i], run, &fams);
  }
  return Render(fams);
}

namespace {

bool ValidMetricName(const std::string& n) {
  if (n.empty()) return false;
  for (std::size_t i = 0; i < n.size(); ++i) {
    const char c = n[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

/// Family a sample name belongs to, given the declared family names:
/// strips a recognized suffix when the base is a declared histogram (or
/// counter for _total).
std::string BaseName(const std::string& sample) {
  for (const char* suffix : {"_total", "_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (sample.size() > s.size() &&
        sample.compare(sample.size() - s.size(), s.size(), s) == 0) {
      return sample.substr(0, sample.size() - s.size());
    }
  }
  return sample;
}

}  // namespace

Result<std::vector<OmFamily>> ParseOpenMetrics(const std::string& text) {
  std::vector<OmFamily> families;
  std::map<std::string, std::size_t> index;
  bool saw_eof = false;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string at = " at line " + std::to_string(line_no);
    if (saw_eof && !line.empty()) {
      return Status::InvalidArgument("content after # EOF" + at);
    }
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      std::istringstream meta(line);
      std::string hash, kind, name, type;
      meta >> hash >> kind >> name >> type;
      if (kind == "TYPE") {
        if (name.empty() || type.empty()) {
          return Status::InvalidArgument("malformed TYPE line" + at);
        }
        if (index.count(name) > 0) {
          return Status::InvalidArgument("duplicate TYPE for " + name + at);
        }
        index[name] = families.size();
        families.push_back({name, type, {}});
      }
      continue;  // HELP/UNIT/other comments are ignored
    }
    OmSample s;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) {
      return Status::InvalidArgument("malformed sample line" + at);
    }
    s.name = line.substr(0, pos);
    if (line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      if (close == std::string::npos) {
        return Status::InvalidArgument("unterminated label block" + at);
      }
      s.labels = line.substr(pos + 1, close - pos - 1);
      pos = close + 1;
    }
    std::istringstream rest(line.substr(pos));
    std::string value_tok, ts_tok, extra;
    rest >> value_tok >> ts_tok >> extra;
    if (value_tok.empty() || !extra.empty()) {
      return Status::InvalidArgument("malformed sample line" + at);
    }
    char* end = nullptr;
    s.value = std::strtod(value_tok.c_str(), &end);
    if (end == value_tok.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad sample value '" + value_tok +
                                     "'" + at);
    }
    if (!ts_tok.empty()) {
      s.has_timestamp = true;
      s.timestamp = std::strtod(ts_tok.c_str(), &end);
      if (end == ts_tok.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad timestamp '" + ts_tok + "'" +
                                       at);
      }
    }
    // Exact family name wins (gauges); otherwise strip a counter /
    // histogram suffix to find the declaring family.
    auto it = index.find(s.name);
    if (it == index.end()) it = index.find(BaseName(s.name));
    if (it == index.end()) {
      return Status::InvalidArgument("sample " + s.name +
                                     " has no TYPE declaration" + at);
    }
    families[it->second].samples.push_back(std::move(s));
  }
  if (!saw_eof) {
    return Status::InvalidArgument("exposition missing # EOF terminator");
  }
  return families;
}

Status LintOpenMetrics(const std::string& text) {
  Result<std::vector<OmFamily>> parsed = ParseOpenMetrics(text);
  if (!parsed.ok()) return parsed.status();
  for (const OmFamily& fam : parsed.value()) {
    if (!ValidMetricName(fam.name)) {
      return Status::InvalidArgument("invalid family name: " + fam.name);
    }
    if (fam.type != "counter" && fam.type != "gauge" &&
        fam.type != "histogram" && fam.type != "unknown") {
      return Status::InvalidArgument("family " + fam.name +
                                     " has unknown type " + fam.type);
    }
    std::map<std::string, double> last_ts;
    for (const OmSample& s : fam.samples) {
      const std::string suffix =
          s.name.size() > fam.name.size() ? s.name.substr(fam.name.size())
                                          : std::string();
      bool suffix_ok = false;
      if (fam.type == "counter") {
        suffix_ok = suffix == "_total";
      } else if (fam.type == "histogram") {
        suffix_ok =
            suffix == "_bucket" || suffix == "_sum" || suffix == "_count";
      } else {
        suffix_ok = suffix.empty();
      }
      if (s.name.compare(0, fam.name.size(), fam.name) != 0 ||
          !suffix_ok) {
        return Status::InvalidArgument(
            "sample " + s.name + " does not fit " + fam.type +
            " family " + fam.name);
      }
      if (s.value < 0 && fam.type != "gauge") {
        return Status::InvalidArgument("negative value in " + fam.type +
                                       " sample " + s.name);
      }
      if (s.has_timestamp) {
        const std::string key = s.name + "{" + s.labels + "}";
        auto it = last_ts.find(key);
        if (it != last_ts.end() && s.timestamp < it->second) {
          return Status::InvalidArgument(
              "timestamps go backwards in series " + key);
        }
        last_ts[key] = s.timestamp;
      }
    }
  }
  return Status::OK();
}

std::string TelemetryCsv(const TelemetrySampler& telemetry) {
  std::ostringstream out;
  out << "name,metric,query,phase,src,dst,time_ps,value\n";
  for (const TelemetrySampler::Series& s : telemetry.series()) {
    for (const TimeSeries::Sample& sample : s.data.samples()) {
      out << s.name << ",";
      if (s.is_flow) {
        out << s.metric << "," << s.tag.query_id << "," << s.tag.phase
            << "," << s.tag.src << "," << s.tag.dst;
      } else {
        out << ",,,,";
      }
      out << "," << sample.t << "," << sample.value << "\n";
    }
  }
  return out.str();
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open " + path + " for write");
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // Close even after a short write; buffered data can also fail here.
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) return Status::Internal("cannot write " + path);
  return Status::OK();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open " + path + " for read");
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return Status::Internal("read error on " + path);
  return text;
}

}  // namespace mgjoin::obs
