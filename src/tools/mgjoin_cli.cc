// mgjoin — command-line front end for the MG-Join simulator.
//
//   mgjoin topo  [--machine dgx1|dgxstation|dgx2]
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
// centralized. A `--flag` a subcommand does not list above is an error
// (exit 1), never silently ignored.
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
  bool Has(const std::string& k) const { return kv.count(k) > 0; }
  std::string Get(const std::string& k, const std::string& dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  double GetD(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::atof(it->second.c_str());
  }
  long long GetI(const std::string& k, long long dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::atoll(it->second.c_str());
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
std::unique_ptr<topo::Topology> MakeMachine(const std::string& name) {
  if (name == "dgx1") return topo::MakeDgx1V();
  if (name == "dgxstation") return topo::MakeDgxStation();
  if (name == "dgx2") return topo::MakeDgx2();
  std::fprintf(stderr, "bad --machine '%s' (want dgx1|dgxstation|dgx2)\n",
               name.c_str());
  return nullptr;
}

bool ParsePolicy(const std::string& p, net::PolicyKind* out) {
  static const std::pair<const char*, net::PolicyKind> kPolicies[] = {
      {"adaptive", net::PolicyKind::kAdaptive},
      {"direct", net::PolicyKind::kDirect},
      {"bandwidth", net::PolicyKind::kBandwidth},
      {"hopcount", net::PolicyKind::kHopCount},
      {"latency", net::PolicyKind::kLatency},
      {"centralized", net::PolicyKind::kCentralized}};
  for (const auto& [name, kind] : kPolicies) {
    if (p == name) {
      *out = kind;
      return true;
    }
  }
  std::fprintf(stderr,
               "bad --policy '%s' (want adaptive|direct|bandwidth|hopcount|"
               "latency|centralized)\n",
               p.c_str());
  return false;
}

int CmdTopo(const Args& args) {
  if (!KnownFlags("topo", args, {"machine"})) return 1;
  auto topo = MakeMachine(args.Get("machine", "dgx1"));
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
  auto topo = MakeMachine(args.Get("machine", "dgx1"));
  if (topo == nullptr) return 1;
  join::MgJoinOptions opts;
  if (!ParsePolicy(args.Get("policy", "adaptive"), &opts.policy)) return 1;
  const int g = static_cast<int>(args.GetI("gpus", topo->num_gpus()));
  if (g < 1 || g > topo->num_gpus()) {
    std::fprintf(stderr, "gpus must be 1..%d\n", topo->num_gpus());
    return 1;
  }
  // Host thread count must be applied before the (parallel) generator
  // runs; 0 keeps the MGJ_THREADS / hardware default.
  const int threads = static_cast<int>(args.GetI("threads", 0));
  if (threads > 0) {
    ThreadPool::SetDefaultThreads(static_cast<std::size_t>(threads));
  }

  data::GenOptions gen;
  gen.tuples_per_relation =
      static_cast<std::uint64_t>(args.GetI("tuples", 1 << 20)) * g;
  gen.num_gpus = g;
  gen.placement_zipf = args.GetD("zipf", 0.0);
  gen.key_zipf = args.GetD("key-zipf", 0.0);
  auto [r, s] = data::MakeJoinInput(gen);

  opts.host_threads = threads;
  opts.transfer.packet_bytes =
      static_cast<std::uint64_t>(args.GetI("packet-kb", 2048)) * kKiB;
  opts.use_compression = !args.Has("no-compression");
  opts.virtual_scale = args.GetD("scale", 1.0);

  const std::string fault_spec = args.Get("faults", "");
  if (!fault_spec.empty()) {
    auto plan = net::FaultPlan::Parse(fault_spec, *topo);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    opts.transfer.faults = std::move(plan).value();
    std::printf("fault plan (%zu events):\n%s",
                opts.transfer.faults.size(),
                opts.transfer.faults.ToString(*topo).c_str());
  }

  const std::string trace_path = args.Get("trace", "");
  const std::string telemetry_path = args.Get("telemetry", "");
  const std::string telemetry_csv_path = args.Get("telemetry-csv", "");
  const bool telemetry_on =
      !telemetry_path.empty() || !telemetry_csv_path.empty();
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  sim::SimTime sample_every = obs::TelemetrySampler::IntervalFromEnv();
  if (args.Has("sample-every")) {
    auto parsed =
        obs::TelemetrySampler::ParseInterval(args.Get("sample-every", ""));
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --sample-every: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    sample_every = parsed.value();
  }
  obs::TelemetrySampler telemetry(sample_every);
  if (!trace_path.empty()) opts.transfer.obs.trace = &trace;
  // The OpenMetrics exposition covers the registry too, so --telemetry
  // implies metrics collection.
  if (args.Has("metrics") || telemetry_on) {
    opts.transfer.obs.metrics = &metrics;
  }
  if (telemetry_on) opts.transfer.obs.telemetry = &telemetry;

  join::MgJoin join(topo.get(), topo::FirstNGpus(g), opts);
  auto res = join.Execute(r, s);
  if (!res.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 res.status().ToString().c_str());
    return 1;
  }
  const join::JoinResult& out = res.value();

  if (!trace_path.empty()) {
    const Status st = trace.WriteFile(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace             %s (%zu events; open in Perfetto)\n",
                trace_path.c_str(), trace.num_events());
  }
  if (args.Has("metrics")) {
    std::printf("---- metrics (window = makespan) ----\n%s",
                metrics.Summary(out.net.Makespan()).c_str());
  }
  if (!telemetry_path.empty()) {
    const Status st = obs::WriteTextFile(
        telemetry_path, obs::OpenMetricsText(&metrics, &telemetry));
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry         %s (%zu series, %zu snapshots)\n",
                telemetry_path.c_str(), telemetry.series().size(),
                telemetry.ticks());
  }
  if (!telemetry_csv_path.empty()) {
    const Status st = obs::WriteTextFile(telemetry_csv_path,
                                         obs::TelemetryCsv(telemetry));
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry csv write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry csv     %s\n", telemetry_csv_path.c_str());
  }
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
  if (!fault_spec.empty()) {
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
// the SLO quantile line. --inflight and --arbitration fall back to the
// MGJ_INFLIGHT / MGJ_ARBITRATION environment variables when the flags
// are absent.
int CmdServe(const Args& args) {
  if (!KnownFlags("serve", args,
                  {"machine", "gpus", "queries", "inflight", "arbitration",
                   "no-solo", "policy", "scale", "threads", "faults",
                   "trace", "telemetry", "tuples", "zipf", "key-zipf"})) {
    return 1;
  }
  auto topo = MakeMachine(args.Get("machine", "dgx1"));
  if (topo == nullptr) return 1;
  const int g = static_cast<int>(args.GetI("gpus", topo->num_gpus()));
  if (g < 1 || g > topo->num_gpus()) {
    std::fprintf(stderr, "gpus must be 1..%d\n", topo->num_gpus());
    return 1;
  }
  const int queries = static_cast<int>(args.GetI("queries", 8));
  if (queries < 1 || queries > 64) {
    std::fprintf(stderr, "queries must be 1..64\n");
    return 1;
  }

  const char* env_inflight = std::getenv("MGJ_INFLIGHT");
  long long inflight_dflt =
      env_inflight != nullptr ? std::atoll(env_inflight) : 0;
  const char* env_arb = std::getenv("MGJ_ARBITRATION");
  std::string arb_dflt = env_arb != nullptr ? env_arb : "fifo";

  svc::ServiceOptions opts;
  opts.inflight_limit = static_cast<int>(args.GetI("inflight", inflight_dflt));
  if (opts.inflight_limit < 0) {
    std::fprintf(stderr, "inflight must be >= 0\n");
    return 1;
  }
  const std::string arb_text = args.Get("arbitration", arb_dflt);
  if (!net::ParseArbitration(arb_text, &opts.arbitration)) {
    std::fprintf(stderr, "bad --arbitration '%s' (want fifo|fair|priority)\n",
                 arb_text.c_str());
    return 1;
  }
  opts.measure_solo = !args.Has("no-solo");
  if (!ParsePolicy(args.Get("policy", "adaptive"), &opts.join.policy)) {
    return 1;
  }
  opts.join.virtual_scale = args.GetD("scale", 256.0);
  const int threads = static_cast<int>(args.GetI("threads", 0));
  opts.join.host_threads = threads;

  const std::string fault_spec = args.Get("faults", "");
  if (!fault_spec.empty()) {
    auto plan = net::FaultPlan::Parse(fault_spec, *topo);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    opts.join.transfer.faults = std::move(plan).value();
  }

  const std::string trace_path = args.Get("trace", "");
  const std::string telemetry_path = args.Get("telemetry", "");
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler telemetry(obs::TelemetrySampler::IntervalFromEnv());
  if (!trace_path.empty()) opts.join.transfer.obs.trace = &trace;
  if (!telemetry_path.empty()) {
    opts.join.transfer.obs.metrics = &metrics;
    opts.join.transfer.obs.telemetry = &telemetry;
  }

  // One tenant per query: same workload shape, distinct seeds so the
  // data differs, rotating priority classes for the priority policy.
  std::vector<svc::QuerySpec> specs;
  for (int q = 0; q < queries; ++q) {
    svc::QuerySpec qs;
    qs.query_id = static_cast<std::uint64_t>(q + 1);
    qs.gen.tuples_per_relation =
        static_cast<std::uint64_t>(args.GetI("tuples", 8192)) * g;
    qs.gen.num_gpus = g;
    qs.gen.placement_zipf = args.GetD("zipf", 0.0);
    qs.gen.key_zipf = args.GetD("key-zipf", 0.0);
    qs.gen.seed = 42 + static_cast<std::uint64_t>(q);
    qs.priority = q % 3;
    qs.submit_at = 0;
    specs.push_back(qs);
  }

  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(g), opts);
  auto res = sched.Run(specs);
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
  if (!fault_spec.empty()) {
    std::printf("fault reroutes    %llu (batch aborts %llu)\n",
                static_cast<unsigned long long>(out.net.fault_reroutes),
                static_cast<unsigned long long>(out.net.fault_aborts));
  }

  if (!trace_path.empty()) {
    const Status st = trace.WriteFile(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace             %s (%zu events)\n", trace_path.c_str(),
                trace.num_events());
  }
  if (!telemetry_path.empty()) {
    const Status st = obs::WriteTextFile(
        telemetry_path, obs::OpenMetricsText(&metrics, &telemetry));
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry         %s (%zu series, %zu snapshots)\n",
                telemetry_path.c_str(), telemetry.series().size(),
                telemetry.ticks());
  }
  return 0;
}

int CmdTpch(const Args& args) {
  if (!KnownFlags("tpch", args, {"query", "sf", "virtual-sf", "machine"})) {
    return 1;
  }
  const std::string which = args.Get("query", "all");
  const double sf = args.GetD("sf", 0.05);
  const double vsf = args.GetD("virtual-sf", 250.0);
  auto topo = MakeMachine(args.Get("machine", "dgx1"));
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
    const double threshold = args.GetD("saturation", 0.9);
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
      const Status st = obs::WriteTextFile(trace_path, verdict.trace_json);
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
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
               "  topo  --machine dgx1|dgxstation|dgx2\n"
               "  join  --gpus N --tuples N --policy adaptive|direct|"
               "bandwidth|hopcount|latency|centralized\n"
               "        --zipf Z --key-zipf Z --packet-kb N --scale S "
               "--no-compression\n"
               "        --threads N (host worker threads; 0 = MGJ_THREADS"
               " env, then hardware)\n"
               "        --trace=out.json --metrics\n"
               "        --telemetry=out.om --telemetry-csv=out.csv "
               "--sample-every=250us\n"
               "        --faults=down:gpu0-gpu3:@5ms,degrade:qpi0:0.5:@10ms,"
               "flap:nvlink2:@1ms:500usx3\n"
               "  serve --queries N --inflight N (0 = unlimited; env "
               "MGJ_INFLIGHT)\n"
               "        --arbitration fifo|fair|priority (env "
               "MGJ_ARBITRATION)\n"
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
               "(see scenario/corpus.cc)\n");
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
