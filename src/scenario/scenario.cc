#include "scenario/scenario.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "net/link_state.h"
#include "obs/export.h"
#include "topo/presets.h"

namespace mgjoin::scenario {

namespace {

/// Shortest %g rendering that strtod round-trips to the same double, so
/// ToText -> Parse is exact while specs stay human-readable.
std::string FormatDouble(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string Trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Result<std::uint64_t> ParseU64(const std::string& key,
                               const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || v[0] == '-') {
    return Status::InvalidArgument(key + ": '" + v +
                                   "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

Result<double> ParseF64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    return Status::InvalidArgument(key + ": '" + v + "' is not a number");
  }
  return d;
}

Result<bool> ParseOnOff(const std::string& key, const std::string& v) {
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  return Status::InvalidArgument(key + ": '" + v + "' is not on|off");
}

}  // namespace

std::string ScenarioSpec::ToText() const {
  std::ostringstream out;
  out << "name = " << name << "\n";
  out << "topology = " << topology << "\n";
  out << "gpus = " << gpus << "\n";
  out << "tuples_per_gpu = " << tuples_per_gpu << "\n";
  out << "placement_zipf = " << FormatDouble(placement_zipf) << "\n";
  out << "key_zipf = " << FormatDouble(key_zipf) << "\n";
  out << "policy = " << policy << "\n";
  out << "packet_kb = " << packet_kb << "\n";
  out << "batch_packets = " << batch_packets << "\n";
  out << "ring_mb = " << ring_mb << "\n";
  out << "compression = " << (compression ? "on" : "off") << "\n";
  out << "threads = " << threads << "\n";
  out << "seed = " << seed << "\n";
  out << "virtual_scale = " << FormatDouble(virtual_scale) << "\n";
  out << "queries = " << queries << "\n";
  out << "inflight = " << inflight << "\n";
  out << "arbitration = " << arbitration << "\n";
  if (!faults.empty()) out << "faults = " << faults << "\n";
  if (expect_matches >= 0) {
    out << "expect_matches = " << expect_matches << "\n";
  }
  return out.str();
}

std::unique_ptr<topo::Topology> ScenarioSpec::MakeTopology() const {
  return topo::MakeMachine(topology);
}

int ScenarioSpec::ResolvedGpus(const topo::Topology& topo) const {
  return gpus == 0 ? topo.num_gpus() : gpus;
}

net::PolicyKind ScenarioSpec::PolicyKind() const {
  net::PolicyKind kind = net::PolicyKind::kAdaptive;
  net::ParsePolicy(policy, &kind);
  return kind;
}

Result<ScenarioSpec> ParseScenario(const std::string& text) {
  ScenarioSpec spec;
  // Statements are separated by newlines or semicolons (the one-line
  // form used in fuzz artifacts and on the command line).
  std::vector<std::string> stmts;
  std::string cur;
  for (const char c : text) {
    if (c == '\n' || c == ';') {
      stmts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  stmts.push_back(cur);

  int line_no = 0;
  for (const std::string& raw : stmts) {
    ++line_no;
    std::string stmt = raw;
    if (const auto hash = stmt.find('#'); hash != std::string::npos) {
      stmt = stmt.substr(0, hash);
    }
    stmt = Trim(stmt);
    if (stmt.empty()) continue;
    const auto eq = stmt.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          "scenario line " + std::to_string(line_no) + ": '" + stmt +
          "' is not a 'key = value' assignment");
    }
    const std::string key = Trim(stmt.substr(0, eq));
    const std::string val = Trim(stmt.substr(eq + 1));
    auto bad = [&](const Status& st) {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_no) + ": " +
                                     st.message());
    };
    if (key == "name") {
      spec.name = val;
    } else if (key == "topology") {
      spec.topology = val;
    } else if (key == "gpus") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.gpus = static_cast<int>(v.value());
    } else if (key == "tuples_per_gpu") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.tuples_per_gpu = v.value();
    } else if (key == "placement_zipf") {
      auto v = ParseF64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.placement_zipf = v.value();
    } else if (key == "key_zipf") {
      auto v = ParseF64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.key_zipf = v.value();
    } else if (key == "policy") {
      spec.policy = val;
    } else if (key == "packet_kb") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.packet_kb = v.value();
    } else if (key == "batch_packets") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.batch_packets = static_cast<int>(v.value());
    } else if (key == "ring_mb") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.ring_mb = static_cast<int>(v.value());
    } else if (key == "compression") {
      auto v = ParseOnOff(key, val);
      if (!v.ok()) return bad(v.status());
      spec.compression = v.value();
    } else if (key == "threads") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.threads = static_cast<int>(v.value());
    } else if (key == "seed") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.seed = v.value();
    } else if (key == "virtual_scale") {
      auto v = ParseF64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.virtual_scale = v.value();
    } else if (key == "queries") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.queries = static_cast<int>(v.value());
    } else if (key == "inflight") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.inflight = static_cast<int>(v.value());
    } else if (key == "arbitration") {
      spec.arbitration = val;
    } else if (key == "faults") {
      spec.faults = val;
    } else if (key == "expect_matches") {
      auto v = ParseU64(key, val);
      if (!v.ok()) return bad(v.status());
      spec.expect_matches = static_cast<std::int64_t>(v.value());
    } else {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    }
  }
  return spec;
}

Status ValidateScenario(const ScenarioSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("scenario needs a non-empty name");
  }
  for (const char c : spec.name) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '/') {
      return Status::InvalidArgument(
          "scenario name '" + spec.name +
          "' must not contain whitespace or '/'");
    }
  }
  const auto topo = spec.MakeTopology();
  if (topo == nullptr) {
    return Status::InvalidArgument("topology '" + spec.topology +
                                   "' unknown (want " +
                                   NameList(topo::kMachinePresets) + ")");
  }
  if (net::PolicyKind unused; !net::ParsePolicy(spec.policy, &unused)) {
    return Status::InvalidArgument("policy '" + spec.policy +
                                   "' unknown (want " +
                                   NameList(net::kPolicyNames) + ")");
  }
  if (spec.gpus < 0 || spec.gpus > topo->num_gpus()) {
    return Status::InvalidArgument(
        "gpus " + std::to_string(spec.gpus) + " outside [0, " +
        std::to_string(topo->num_gpus()) + "] for " + spec.topology);
  }
  if (spec.tuples_per_gpu < 1 || spec.tuples_per_gpu > (1ull << 20)) {
    return Status::InvalidArgument(
        "tuples_per_gpu " + std::to_string(spec.tuples_per_gpu) +
        " outside [1, 2^20]");
  }
  if (!(spec.placement_zipf >= 0.0) || spec.placement_zipf > 8.0) {
    return Status::InvalidArgument("placement_zipf outside [0, 8]");
  }
  if (!(spec.key_zipf >= 0.0) || spec.key_zipf > 8.0) {
    return Status::InvalidArgument("key_zipf outside [0, 8]");
  }
  if (spec.packet_kb < 64 || spec.packet_kb > 16384) {
    return Status::InvalidArgument(
        "packet_kb " + std::to_string(spec.packet_kb) +
        " outside [64, 16384]");
  }
  if (spec.batch_packets < 1 || spec.batch_packets > 64) {
    return Status::InvalidArgument("batch_packets outside [1, 64]");
  }
  if (spec.ring_mb < 1 || spec.ring_mb > 1024) {
    return Status::InvalidArgument("ring_mb outside [1, 1024]");
  }
  if (spec.threads < 0 || spec.threads > 64) {
    return Status::InvalidArgument("threads outside [0, 64]");
  }
  if (!(spec.virtual_scale > 0.0) || spec.virtual_scale > 1e7) {
    return Status::InvalidArgument("virtual_scale outside (0, 1e7]");
  }
  if (spec.queries < 1 || spec.queries > 64) {
    return Status::InvalidArgument("queries outside [1, 64]");
  }
  if (spec.inflight < 0 || spec.inflight > 64) {
    return Status::InvalidArgument("inflight outside [0, 64]");
  }
  if (net::ArbitrationKind unused;
      !net::ParseArbitration(spec.arbitration, &unused)) {
    return Status::InvalidArgument("arbitration '" + spec.arbitration +
                                   "' unknown (want fifo|fair|priority)");
  }
  if (!spec.faults.empty()) {
    auto plan = net::FaultPlan::Parse(spec.faults, *topo);
    if (!plan.ok()) return plan.status();
    // Survivability: a link left down at the end of the schedule blocks
    // any flow that needs it forever — that is a spec bug (the engine's
    // deadlock-freedom contract only covers recoverable fabrics), so
    // reject it here instead of hanging a run.
    std::map<int, net::FaultKind> final_state;
    sim::SimTime last = 0;
    for (const net::FaultEvent& ev : plan.value().events()) {
      final_state[ev.link_id] = ev.kind;
      last = std::max(last, ev.at);
    }
    for (const auto& [link, kind] : final_state) {
      if (kind == net::FaultKind::kDown) {
        return Status::InvalidArgument(
            "fault plan leaves " + topo->link(link).ToString() +
            " down forever (unsurvivable; add a restore)");
      }
    }
    if (last > 30 * sim::kSecond) {
      return Status::InvalidArgument(
          "fault events beyond 30s of simulated time");
    }
  }
  return Status::OK();
}

Result<ScenarioSpec> LoadScenario(const std::string& text) {
  auto spec = ParseScenario(text);
  if (!spec.ok()) return spec.status();
  MGJ_RETURN_NOT_OK(ValidateScenario(spec.value()));
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  auto text = obs::ReadTextFile(path);
  if (!text.ok()) return text.status();
  return LoadScenario(text.value());
}

}  // namespace mgjoin::scenario
