// mgjoin — command-line front end for the MG-Join simulator.
//
//   mgjoin topo  [--machine dgx1|dgxstation|dgx2|single]
//   mgjoin join  [--machine M] [--gpus N] [--tuples N] [--policy P]
//                [--zipf Z] [--key-zipf Z] [--packet-kb N] [--scale S]
//                [--threads N] [--no-compression]
//                [--trace=out.json] [--metrics]
//                [--telemetry=out.om] [--telemetry-csv=out.csv]
//                [--sample-every=250us]
//                [--faults=down:gpu0-gpu3:@5ms,degrade:qpi0:0.5:@10ms]
//   mgjoin serve [--queries N] [--inflight N]
//                [--arbitration fifo|fair|priority] [--machine M]
//                [--gpus N] [--tuples N] [--policy P] [--zipf Z]
//                [--key-zipf Z] [--scale S] [--threads N] [--no-solo]
//                [--faults=SPEC]
//                [--trace=out.json] [--telemetry=out.om]
//   mgjoin tpch  [--query 3|5|10|12|14|19|all] [--sf F] [--virtual-sf F]
//                [--machine M]
//   mgjoin report <trace.json> [--timeline] [--saturation=0.9]
//   mgjoin scenario list
//   mgjoin scenario show <name>
//   mgjoin scenario run  <name|spec-file> [--trace=out.json]
//
// Policies: adaptive (default), direct, bandwidth, hopcount, latency,
// centralized (net::kPolicyNames); machines: topo::kMachinePresets. A
// `--flag` a subcommand does not list above is an error (exit 1), never
// silently ignored, and so is a numeric flag whose value is not a number.
//
// `--trace=out.json` writes a Chrome trace (open in Perfetto /
// chrome://tracing) of the join's fabric activity: per-GPU DMA-engine
// busy spans, per-link occupancy, ring-buffer syncs/escapes and
// join-phase spans. `--metrics` prints the metrics registry (counters,
// queue-depth high-water marks, per-link busy timelines).
//
// `--faults=SPEC` injects link faults during the distribution (see
// net/fault_plan.h for the grammar): links go down, run degraded or
// flap at scheduled simulated times, and the engine re-routes around
// them. Join results stay exact; only the timing changes.
//
// `--telemetry=out.om` enables the simulated-clock sampler
// (obs/telemetry.h) and writes an OpenMetrics exposition of the
// end-of-run registry plus every sampled time series;
// `--telemetry-csv=out.csv` writes the sampled series as CSV. The
// sample interval comes from `--sample-every` (e.g. 250us, 1ms),
// falling back to MGJ_SAMPLE_EVERY and then 1 ms. Sampling observes
// from outside the event stream: enabling it never changes the join
// result or the trace.
//
// `mgjoin report trace.json` re-reads a trace written by `--trace` (or
// by a bench under MGJ_TRACE) and prints the critical-path attribution
// and per-link congestion report (obs/report.h). `--timeline` adds the
// time x link utilization heatmap plus time-to-first-saturation
// analytics (`--saturation` sets the utilization threshold, default
// 0.9).
//
// `mgjoin scenario` drives the adversarial scenario engine
// (scenario/scenario.h): `list` names the committed corpus, `show`
// prints a corpus spec in DSL form, and `run` executes a corpus entry
// or a spec file under the invariant auditor and prints the verdict
// (exit 0 iff every check passed).

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/thread_pool.h"
#include "data/generator.h"
#include "exec/engine.h"
#include "join/mg_join.h"
#include "net/fault_plan.h"
#include "join/umj.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "scenario/corpus.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "svc/service.h"
#include "topo/presets.h"
#include "tpch/dbgen.h"
#include "tpch/omnisci_model.h"
#include "tpch/queries.h"

using namespace mgjoin;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  /// The first flag GetI/GetD could not read whole as a number (they
  /// return the default for it). Subcommands call BadNumber before they
  /// run anything.
  mutable std::string bad_number;

  bool Has(const std::string& k) const { return kv.count(k) > 0; }
  std::string Get(const std::string& k, const std::string& dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  double GetD(const std::string& k, double dflt) const {
    return GetNumber(k, dflt, [](const char* s, char** end) {
      return std::strtod(s, end);
    });
  }
  long long GetI(const std::string& k, long long dflt) const {
    return GetNumber(k, dflt, [](const char* s, char** end) {
      return std::strtoll(s, end, 10);
    });
  }
  /// True, after printing the flag, when a value was not a number;
  /// callers exit 1.
  bool BadNumber(const char* cmd) const {
    if (bad_number.empty()) return false;
    std::fprintf(stderr, "mgjoin %s: --%s wants a number, got '%s'\n", cmd,
                 bad_number.c_str(), Get(bad_number, "").c_str());
    return true;
  }

 private:
  // Empty input, trailing characters and out-of-range values are all
  // malformed: atoll-style parsing would read "abc" as 0 and "2x" as 2.
  template <typename T, typename Parse>
  T GetNumber(const std::string& k, T dflt, Parse parse) const {
    auto it = kv.find(k);
    if (it == kv.end()) return dflt;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const T value = parse(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) {
      if (bad_number.empty()) bad_number = k;
      return dflt;
    }
    return value;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    // Both `--key=value` and `--key value` are accepted.
    if (const auto eq = key.find('='); eq != std::string::npos) {
      a.kv[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "1";
    }
  }
  return a;
}

// A flag outside `known` is an error, never ignored: a typo or a retired
// flag would otherwise run the default experiment. Prints the flag;
// callers exit 1.
bool KnownFlags(const char* cmd, const Args& args,
                std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : args.kv) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "mgjoin %s: unknown flag --%s\n", cmd,
                   key.c_str());
      return false;
    }
  }
  return true;
}

// Unknown --machine / --policy names are errors, never defaults: a typo
// would otherwise run a different experiment. Both print the valid
// names; callers exit 1.
std::unique_ptr<topo::Topology> MakeMachine(const Args& args) {
  const std::string name = args.Get("machine", "dgx1");
  auto topo = topo::MakeMachine(name);
  if (topo == nullptr) {
    std::fprintf(stderr, "bad --machine '%s' (want %s)\n", name.c_str(),
                 NameList(topo::kMachinePresets).c_str());
  }
  return topo;
}

bool ParsePolicy(const Args& args, net::PolicyKind* out) {
  const std::string name = args.Get("policy", "adaptive");
  if (net::ParsePolicy(name, out)) return true;
  std::fprintf(stderr, "bad --policy '%s' (want %s)\n", name.c_str(),
               NameList(net::kPolicyNames).c_str());
  return false;
}

// --gpus, by default every GPU of `topo`; 0, after printing the range,
// when it is outside 1..N.
int GpuCount(const Args& args, const topo::Topology& topo) {
  const long long g = args.GetI("gpus", topo.num_gpus());
  if (g < 1 || g > topo.num_gpus()) {
    std::fprintf(stderr, "gpus must be 1..%d\n", topo.num_gpus());
    return 0;
  }
  return static_cast<int>(g);
}

// --faults=SPEC on `topo`; `out` stays empty without the flag. False,
// after printing why, when the spec does not parse.
bool ParseFaults(const Args& args, const topo::Topology& topo,
                 net::FaultPlan* out) {
  const std::string spec = args.Get("faults", "");
  if (spec.empty()) return true;
  auto plan = net::FaultPlan::Parse(spec, topo);
  if (!plan.ok()) {
    std::fprintf(stderr, "bad --faults: %s\n",
                 plan.status().ToString().c_str());
    return false;
  }
  *out = std::move(plan).value();
  return true;
}

// Writes `text` to `path`; false, after printing why, when it cannot.
bool WriteOut(const char* what, const std::string& path,
              const std::string& text) {
  const Status st = obs::WriteTextFile(path, text);
  if (!st.ok()) {
    std::fprintf(stderr, "%s write failed: %s\n", what, st.ToString().c_str());
  }
  return st.ok();
}

// Integer flag --`flag` (`dflt` when absent) into `out`. False, after
// printing the range, when it lies outside [lo, hi]; callers exit 1. A
// value that is not a number reads as `dflt` and is left to BadNumber.
bool IntInRange(const Args& args, const char* cmd, const char* flag,
                long long dflt, long long lo, long long hi, long long* out) {
  *out = args.GetI(flag, dflt);
  if (*out >= lo && *out <= hi) return true;
  std::fprintf(stderr, "mgjoin %s: --%s must be %lld..%lld, got %lld\n", cmd,
               flag, lo, hi, *out);
  return false;
}

// --tuples per GPU (default `dflt`), --zipf and --key-zipf over `g` GPUs.
// False, after printing the range, when the tuples of a relation would
// not fit the generator's 32-bit record ids.
bool Workload(const Args& args, const char* cmd, int g, long long dflt,
              data::GenOptions* gen) {
  long long tuples = 0;
  if (!IntInRange(args, cmd, "tuples", dflt, 1, ((1ll << 32) - 1) / g,
                  &tuples)) {
    return false;
  }
  gen->tuples_per_relation = static_cast<std::uint64_t>(tuples) * g;
  gen->num_gpus = g;
  gen->placement_zipf = args.GetD("zipf", 0.0);
  gen->key_zipf = args.GetD("key-zipf", 0.0);
  return true;
}

// The --trace, --telemetry, --telemetry-csv, --sample-every and
// --metrics sinks `join` and `serve` share. A subcommand that does not
// list one of the flags never sees it set.
class Sinks {
 public:
  // Attaches the sinks the flags ask for to `hooks`. False, after
  // printing why, on a bad --sample-every.
  bool Open(const Args& args, obs::ObsHooks* hooks) {
    trace_path_ = args.Get("trace", "");
    telemetry_path_ = args.Get("telemetry", "");
    csv_path_ = args.Get("telemetry-csv", "");
    print_metrics_ = args.Has("metrics");
    sim::SimTime sample_every = obs::TelemetrySampler::IntervalFromEnv();
    if (args.Has("sample-every")) {
      auto parsed =
          obs::TelemetrySampler::ParseInterval(args.Get("sample-every", ""));
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --sample-every: %s\n",
                     parsed.status().ToString().c_str());
        return false;
      }
      sample_every = parsed.value();
    }
    telemetry_ = obs::TelemetrySampler(sample_every);
    const bool telemetry_on = !telemetry_path_.empty() || !csv_path_.empty();
    if (!trace_path_.empty()) hooks->trace = &trace_;
    // The OpenMetrics exposition covers the registry too, so --telemetry
    // implies metrics collection.
    if (print_metrics_ || telemetry_on) hooks->metrics = &metrics_;
    if (telemetry_on) hooks->telemetry = &telemetry_;
    return true;
  }

  // Writes the files and prints one line per sink; `trace_note` ends the
  // trace line. False, after printing why, when a file cannot be written.
  bool Write(const char* trace_note, sim::SimTime makespan) {
    if (!trace_path_.empty()) {
      if (!WriteOut("trace", trace_path_, trace_.ToJson())) return false;
      std::printf("trace             %s (%zu events%s)\n", trace_path_.c_str(),
                  trace_.num_events(), trace_note);
    }
    if (print_metrics_) {
      std::printf("---- metrics (window = makespan) ----\n%s",
                  metrics_.Summary(makespan).c_str());
    }
    if (!telemetry_path_.empty()) {
      if (!WriteOut("telemetry", telemetry_path_,
                    obs::OpenMetricsText(&metrics_, &telemetry_))) {
        return false;
      }
      std::printf("telemetry         %s (%zu series, %zu snapshots)\n",
                  telemetry_path_.c_str(), telemetry_.series().size(),
                  telemetry_.ticks());
    }
    if (!csv_path_.empty()) {
      if (!WriteOut("telemetry csv", csv_path_,
                    obs::TelemetryCsv(telemetry_))) {
        return false;
      }
      std::printf("telemetry csv     %s\n", csv_path_.c_str());
    }
    return true;
  }

 private:
  std::string trace_path_, telemetry_path_, csv_path_;
  bool print_metrics_ = false;
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  obs::TelemetrySampler telemetry_;
};

int CmdTopo(const Args& args) {
  if (!KnownFlags("topo", args, {"machine"})) return 1;
  auto topo = MakeMachine(args);
  if (topo == nullptr) return 1;
  std::printf("%s", topo->ToString().c_str());
  const auto gpus = topo::AllGpus(*topo);
  std::printf("bisection bandwidth (%d GPUs): %s\n", topo->num_gpus(),
              FormatBandwidth(topo->BisectionBandwidth(gpus)).c_str());
  if (topo->num_gpus() >= 2) {
    std::printf("routes 0 -> %d:\n", topo->num_gpus() - 1);
    for (const auto& r :
         topo->EnumerateRoutes(0, topo->num_gpus() - 1)) {
      std::printf("  %s\n", r.ToString().c_str());
    }
  }
  return 0;
}

int CmdJoin(const Args& args) {
  if (!KnownFlags("join", args,
                  {"machine", "policy", "gpus", "threads", "tuples", "zipf",
                   "key-zipf", "packet-kb", "no-compression", "scale",
                   "faults", "trace", "metrics", "telemetry",
                   "telemetry-csv", "sample-every"})) {
    return 1;
  }
  auto topo = MakeMachine(args);
  if (topo == nullptr) return 1;
  join::MgJoinOptions opts;
  if (!ParsePolicy(args, &opts.policy)) return 1;
  const int g = GpuCount(args, *topo);
  if (g == 0) return 1;
  data::GenOptions gen;
  // A packet's payload is a 32-bit byte count.
  long long packet_kb = 0;
  if (!Workload(args, "join", g, 1 << 20, &gen) ||
      !IntInRange(args, "join", "packet-kb", 2048, 1,
                  ((1ll << 32) - 1) / kKiB, &packet_kb)) {
    return 1;
  }
  opts.host_threads = static_cast<int>(args.GetI("threads", 0));
  opts.transfer.packet_bytes = static_cast<std::uint64_t>(packet_kb) * kKiB;
  opts.use_compression = !args.Has("no-compression");
  opts.virtual_scale = args.GetD("scale", 1.0);
  if (args.BadNumber("join")) return 1;

  if (!ParseFaults(args, *topo, &opts.transfer.faults)) return 1;
  const bool faulted = !opts.transfer.faults.empty();
  if (faulted) {
    std::printf("fault plan (%zu events):\n%s",
                opts.transfer.faults.size(),
                opts.transfer.faults.ToString(*topo).c_str());
  }
  Sinks sinks;
  if (!sinks.Open(args, &opts.transfer.obs)) return 1;

  // Host thread count must be applied before the (parallel) generator
  // runs; 0 keeps the MGJ_THREADS / hardware default.
  if (opts.host_threads > 0) {
    ThreadPool::SetDefaultThreads(
        static_cast<std::size_t>(opts.host_threads));
  }
  auto [r, s] = data::MakeJoinInput(gen);
  join::MgJoin join(topo.get(), topo::FirstNGpus(g), opts);
  auto res = join.Execute(r, s);
  if (!res.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 res.status().ToString().c_str());
    return 1;
  }
  const join::JoinResult& out = res.value();
  if (!sinks.Write("; open in Perfetto", out.net.Makespan())) return 1;
  std::printf("policy            %s\n", net::PolicyKindName(opts.policy));
  std::printf("input tuples      %llu (simulated %llu)\n",
              static_cast<unsigned long long>(out.input_tuples),
              static_cast<unsigned long long>(out.virtual_input_tuples));
  std::printf("matches           %llu\n",
              static_cast<unsigned long long>(out.matches));
  std::printf("total time        %.3f ms\n", sim::ToMillis(out.timing.total));
  std::printf("  distribution    %.3f ms (exposed %.3f ms)\n",
              sim::ToMillis(out.timing.distribution),
              sim::ToMillis(out.timing.distribution_exposed));
  std::printf("throughput        %.2f B tuples/s\n", out.Throughput() / 1e9);
  std::printf("shuffled          %s (compression %.2fx)\n",
              FormatBytes(out.shuffled_bytes).c_str(),
              out.CompressionRatio());
  std::printf("avg extra hops    %.2f\n", out.net.AvgIntermediateHops());
  if (faulted) {
    std::printf("fault reroutes    %llu (batch aborts %llu, waits %llu, "
                "escapes %llu)\n",
                static_cast<unsigned long long>(out.net.fault_reroutes),
                static_cast<unsigned long long>(out.net.fault_aborts),
                static_cast<unsigned long long>(out.net.fault_waits),
                static_cast<unsigned long long>(out.net.escapes));
  }
  return 0;
}

// Multi-tenant service run (src/svc; DESIGN.md Sec 15): N concurrent
// MG-Join queries interleave on one shared fabric behind an admission
// queue, under the selected link-arbitration policy. Prints the
// per-query outcome table (latency, queue delay, slowdown-vs-solo) and
// the SLO quantile line.
int CmdServe(const Args& args) {
  if (!KnownFlags("serve", args,
                  {"machine", "gpus", "queries", "inflight", "arbitration",
                   "no-solo", "policy", "scale", "threads", "faults",
                   "trace", "telemetry", "tuples", "zipf", "key-zipf"})) {
    return 1;
  }
  auto topo = MakeMachine(args);
  if (topo == nullptr) return 1;
  const int g = GpuCount(args, *topo);
  if (g == 0) return 1;
  data::GenOptions gen;
  long long queries = 0;
  long long inflight = 0;
  if (!Workload(args, "serve", g, 8192, &gen) ||
      !IntInRange(args, "serve", "queries", 8, 1, 64, &queries) ||
      !IntInRange(args, "serve", "inflight", 0, 0, INT_MAX, &inflight)) {
    return 1;
  }
  svc::ServiceOptions opts;
  opts.inflight_limit = static_cast<int>(inflight);
  opts.join.virtual_scale = args.GetD("scale", 256.0);
  opts.join.host_threads = static_cast<int>(args.GetI("threads", 0));
  if (args.BadNumber("serve")) return 1;
  const std::string arb_text = args.Get("arbitration", "fifo");
  if (!net::ParseArbitration(arb_text, &opts.arbitration)) {
    std::fprintf(stderr, "bad --arbitration '%s' (want fifo|fair|priority)\n",
                 arb_text.c_str());
    return 1;
  }
  opts.measure_solo = !args.Has("no-solo");
  if (!ParsePolicy(args, &opts.join.policy)) return 1;
  if (!ParseFaults(args, *topo, &opts.join.transfer.faults)) return 1;
  Sinks sinks;
  if (!sinks.Open(args, &opts.join.transfer.obs)) return 1;

  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(g), opts);
  auto res = sched.Run(svc::TenantQueries(gen, static_cast<int>(queries)));
  if (!res.ok()) {
    std::fprintf(stderr, "service run failed: %s\n",
                 res.status().ToString().c_str());
    return 1;
  }
  const svc::ServiceResult& out = res.value();

  std::printf("%s", out.tenancy.ToText().c_str());
  std::printf("total matches     %llu\n",
              static_cast<unsigned long long>(out.total_matches));
  std::printf("fabric payload    %s (wire %s)\n",
              FormatBytes(out.net.payload_bytes).c_str(),
              FormatBytes(out.net.wire_bytes).c_str());
  std::printf("arbitration paces %llu\n",
              static_cast<unsigned long long>(out.net.arb_paces));
  if (!opts.join.transfer.faults.empty()) {
    std::printf("fault reroutes    %llu (batch aborts %llu)\n",
                static_cast<unsigned long long>(out.net.fault_reroutes),
                static_cast<unsigned long long>(out.net.fault_aborts));
  }
  return sinks.Write("", out.tenancy.makespan) ? 0 : 1;
}

int CmdTpch(const Args& args) {
  if (!KnownFlags("tpch", args, {"query", "sf", "virtual-sf", "machine"})) {
    return 1;
  }
  const std::string which = args.Get("query", "all");
  const double sf = args.GetD("sf", 0.05);
  const double vsf = args.GetD("virtual-sf", 250.0);
  if (args.BadNumber("tpch")) return 1;
  auto topo = MakeMachine(args);
  if (topo == nullptr) return 1;
  const auto gpus = topo::AllGpus(*topo);
  const tpch::TpchData db = tpch::GenerateTpch(sf, topo->num_gpus());

  std::printf("%-6s %-10s %-12s %-12s %-12s\n", "query", "MG-Join",
              "OmnisciCPU", "OmnisciGPU", "value");
  for (const auto& [name, fn] : tpch::AllQueries()) {
    if (which != "all" && name != "Q" + which) continue;
    exec::EngineOptions opts;
    opts.join.virtual_scale = vsf / sf;
    exec::Engine eng(topo.get(), gpus, opts);
    auto q = fn(eng, db);
    if (!q.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   q.status().ToString().c_str());
      return 1;
    }
    const auto cpu = tpch::EstimateOmnisci(q.value().ops,
                                           tpch::OmnisciMode::kCpu, 8);
    const auto gpu = tpch::EstimateOmnisci(q.value().ops,
                                           tpch::OmnisciMode::kGpu, 8);
    char gpu_cell[32];
    if (gpu.supported) {
      std::snprintf(gpu_cell, sizeof(gpu_cell), "%.2fs",
                    sim::ToSeconds(gpu.time));
    } else {
      std::snprintf(gpu_cell, sizeof(gpu_cell), "NA");
    }
    std::printf("%-6s %-10.3f %-12.1f %-12s %-12.6g\n", name.c_str(),
                sim::ToSeconds(q.value().time), sim::ToSeconds(cpu.time),
                gpu_cell, q.value().value);
  }
  return 0;
}

int CmdReport(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr,
                 "usage: mgjoin report <trace.json> [--timeline] "
                 "[--saturation=0.9]\n");
    return 1;
  }
  const Args args = ParseArgs(argc, argv, 3);
  if (!KnownFlags("report", args, {"timeline", "saturation"})) return 1;
  const double threshold = args.GetD("saturation", 0.9);
  if (args.BadNumber("report")) return 1;
  const auto text = obs::ReadTextFile(argv[2]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto events = obs::report::EventsFromTraceJson(text.value());
  if (!events.ok()) {
    std::fprintf(stderr, "bad trace: %s\n",
                 events.status().ToString().c_str());
    return 1;
  }
  const obs::report::RunReport rep =
      obs::report::BuildRunReport(events.value());
  std::printf("%s", rep.ToText().c_str());
  if (args.Has("timeline")) {
    std::printf("%s",
                obs::report::TimelineText(rep.congestion, threshold).c_str());
  }
  return 0;
}

// Corpus names win over paths so `run` behaves the same as the docs'
// `mgjoin scenario run <name>`; anything not in the corpus is loaded as
// a spec file.
Result<scenario::ScenarioSpec> ResolveScenario(const std::string& arg) {
  auto named = scenario::FindScenario(arg);
  if (named.ok()) return named;
  auto from_file = scenario::LoadScenarioFile(arg);
  if (from_file.ok()) return from_file;
  return Status::InvalidArgument(arg + " is neither a corpus scenario (" +
                                 named.status().ToString() +
                                 ") nor a loadable spec file (" +
                                 from_file.status().ToString() + ")");
}

int CmdScenario(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  const Args args = ParseArgs(argc, argv, 3);
  if (!KnownFlags("scenario", args, {"trace"})) return 1;
  if (sub == "list") {
    for (const auto& named : scenario::Corpus()) {
      std::printf("%s\n", named.name);
    }
    return 0;
  }
  if ((sub == "show" || sub == "run") && argc >= 4) {
    auto spec = ResolveScenario(argv[3]);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    if (sub == "show") {
      std::printf("%s", spec.value().ToText().c_str());
      return 0;
    }
    const scenario::ScenarioVerdict verdict =
        scenario::RunScenario(spec.value());
    std::printf("%s: %s", spec.value().name.c_str(),
                verdict.ToText().c_str());
    const std::string trace_path = args.Get("trace", "");
    if (!trace_path.empty() && !verdict.trace_json.empty()) {
      if (!WriteOut("trace", trace_path, verdict.trace_json)) return 1;
      std::printf("trace written to %s\n", trace_path.c_str());
    }
    return verdict.passed ? 0 : 1;
  }
  std::fprintf(stderr,
               "usage: mgjoin scenario list\n"
               "       mgjoin scenario show <name>\n"
               "       mgjoin scenario run  <name|spec-file> "
               "[--trace=out.json]\n");
  return 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: mgjoin <topo|join|serve|tpch|report|scenario> "
               "[--flag value ...]\n"
               "  topo  --machine %s\n"
               "  join  --gpus N --tuples N --policy %s\n"
               "        --zipf Z --key-zipf Z --packet-kb N --scale S "
               "--no-compression\n"
               "        --threads N (host worker threads; 0 = MGJ_THREADS"
               " env, then hardware)\n"
               "        --trace=out.json --metrics\n"
               "        --telemetry=out.om --telemetry-csv=out.csv "
               "--sample-every=250us\n"
               "        --faults=down:gpu0-gpu3:@5ms,degrade:qpi0:0.5:@10ms,"
               "flap:nvlink2:@1ms:500usx3\n"
               "  serve --queries N --inflight N (0 = unlimited)\n"
               "        --arbitration fifo|fair|priority\n"
               "        concurrent joins on one shared fabric; prints "
               "per-query latency,\n"
               "        queue delay, slowdown-vs-solo and SLO quantiles\n"
               "  tpch  --query 3|5|10|12|14|19|all --sf F "
               "--virtual-sf F\n"
               "  report <trace.json> [--timeline] [--saturation=0.9]\n"
               "        critical-path + congestion analysis of a recorded "
               "trace;\n"
               "        --timeline adds the utilization heatmap + "
               "time-to-first-saturation\n"
               "  scenario list | show <name> | run <name|spec-file> "
               "[--trace=out.json]\n"
               "        invariant-checked adversarial scenario runs "
               "(see scenario/corpus.cc)\n",
               NameList(topo::kMachinePresets).c_str(),
               NameList(net::kPolicyNames).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  if (cmd == "topo") return CmdTopo(args);
  if (cmd == "join") return CmdJoin(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "tpch") return CmdTpch(args);
  if (cmd == "report") return CmdReport(argc, argv);
  if (cmd == "scenario") return CmdScenario(argc, argv);
  Usage();
  return 1;
}
