// Workload runner of the repository benchmark. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload fabric8 --seed 1 --seconds 20 --trace 0
//
// Sets up the workload several times (setup_s is the median), then runs
// ops in a closed loop until --seconds have passed and at least the
// workload's sim_ops ops are done. The last stdout line is one JSON
// object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1 (which also writes the spans to --spans).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Settings that change simulator behaviour or attach observability
// sinks. The benchmark refuses to run with any of them set.
constexpr const char* kBehaviourEnv[] = {
    "MGJ_SIM_THREADS", "MGJ_THREADS",   "MGJ_FAULTS",
    "MGJ_TRACE",       "MGJ_METRICS",   "MGJ_TELEMETRY",
    "MGJ_BENCH_SCALE", "MGJ_INFLIGHT",  "MGJ_ARBITRATION",
    "MGJ_SAMPLE_EVERY"};

constexpr std::size_t kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 1.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list the same names, in the same order, as BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_host_ms_p50", "ms"},
    {"sim_join_gtuples_s", "Gtuples/s"},
    {"sim_query_ms_p50", "ms"},
    {"sim_query_ms_p90", "ms"},
    {"sim_slo_met_frac", "frac"},
    {"sim_tpch_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.gen_ms", "ms"},
    {"join.histogram_ms", "ms"},
    {"join.assignment_ms", "ms"},
    {"join.shuffle_ms", "ms"},
    {"join.local_ms", "ms"},
    {"join.split_partitions", "count"},
    {"join.moved_tuples", "count"},
    {"join.compression_ratio", "ratio"},
    {"join.matches", "count"},
    {"net.run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.us_per_packet", "us"},
    {"net.ring_syncs_per_packet", "ratio"},
    {"net.packets_per_batch", "ratio"},
    {"net.packets", "count"},
    {"net.hops_per_packet", "ratio"},
    {"net.wire_per_payload", "ratio"},
    {"net.escapes", "count"},
    {"net.sim_makespan_ms", "ms"},
    {"net.sim_gbps", "GB/s"},
    {"net.sim_dist_exposed_ms", "ms"},
    {"gpusim.histogram_ms", "ms"},
    {"gpusim.partition_ms", "ms"},
    {"gpusim.local_partition_ms", "ms"},
    {"gpusim.probe_ms", "ms"},
    {"svc.run_ms", "ms"},
    {"svc.queue_delay_ms_p90", "ms"},
    {"svc.slowdown_p50", "ratio"},
    {"net.arb_paces", "count"},
    {"net.fault_reroutes", "count"},
    {"net.fault_waits", "count"},
    {"tpch.Q3.host_ms", "ms"},
    {"tpch.Q3.sim_ms", "ms"},
    {"tpch.Q5.host_ms", "ms"},
    {"tpch.Q5.sim_ms", "ms"},
    {"tpch.Q10.host_ms", "ms"},
    {"tpch.Q10.sim_ms", "ms"},
    {"tpch.Q12.host_ms", "ms"},
    {"tpch.Q12.sim_ms", "ms"},
    {"tpch.Q14.host_ms", "ms"},
    {"tpch.Q14.sim_ms", "ms"},
    {"tpch.Q19.host_ms", "ms"},
    {"tpch.Q19.sim_ms", "ms"},
    {"tpch.rows_joined", "count"},
    {"tpch.join_output_rows", "count"},
    {"oracle.ms", "ms"},
    {"trace.glue_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Every op draws its input from its own seed, so no op can reuse another
// op's input.
std::uint64_t OpSeed(std::uint64_t seed, std::uint64_t op) {
  return SplitMix64(SplitMix64(seed) + op);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  int host_threads = kPinnedHostThreads;
  std::string spans = "perfbench-spans.json";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--host-threads") {
      a->host_threads = std::atoi(val);
    } else if (key == "--spans") {
      a->spans = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  return !a->workload.empty() && a->host_threads > 0 && a->seconds >= 0;
}

void PrintMetrics(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--host-threads N] [--spans FILE]\n");
    return 2;
  }
  for (const char* var : kBehaviourEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "refusing to run with %s set\n", var);
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  mgjoin::ThreadPool::SetDefaultThreads(
      static_cast<std::size_t>(args.host_threads));

  SpanLog log;
  SpanLog* trace = args.trace ? &log : nullptr;

  // Set-up: topology, the first op's input and its oracle answer.
  // Repeated at least kMinSetupReps times and for kMinSetupSeconds, so
  // the median of a cheap set-up still rests on many samples.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  double setup_total = 0;
  while (setup_s.size() < kMinSetupReps || setup_total < kMinSetupSeconds) {
    workload.reset();
    const auto start = Clock::now();
    workload = spec->make(args.host_threads);
    workload->Prepare(0, OpSeed(args.seed, 0), nullptr);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    setup_total += setup_s.back();
  }
  if (trace != nullptr) {
    // Re-prepare op 0 under spans; set-up timing is untraced.
    workload->Prepare(0, OpSeed(args.seed, 0), trace);
  }

  std::vector<OpOutcome> ops;
  const auto loop_start = Clock::now();
  for (std::uint64_t op = 0;; ++op) {
    if (op > 0) workload->Prepare(op, OpSeed(args.seed, op), trace);
    ops.push_back(workload->Run(op, trace));
    const OpOutcome& o = ops.back();
    std::fprintf(stderr, "op %llu: %s host %.3f ms traced %.3f ms%s%s\n",
                 static_cast<unsigned long long>(op), o.ok ? "ok" : "FAILED",
                 o.host_ms, o.traced_ms, o.ok ? "" : ": ", o.error.c_str());
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - loop_start).count();
    if (ops.size() >= static_cast<std::size_t>(spec->sim_ops) &&
        elapsed >= args.seconds) {
      break;
    }
  }

  // Host times skip op 0 when there are others: the first op pays for
  // growing the heap and faulting in fresh pages, which a long-running
  // process pays once.
  std::size_t failed = 0;
  std::vector<double> host_ms, traced_ms;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpOutcome& o = ops[i];
    if (!o.ok) ++failed;
    if (i == 0 && ops.size() > 1) continue;
    host_ms.push_back(o.host_ms);
    if (o.traced_ms > 0) traced_ms.push_back(o.traced_ms);
  }

  // Simulated numbers come from the first sim_ops ops only.
  std::vector<double> query_ms;
  std::uint64_t submitted = 0, slo_met = 0;
  double tuples = 0, join_s = 0, sim_s = 0;
  const std::size_t sim_ops = static_cast<std::size_t>(spec->sim_ops);
  for (std::size_t i = 0; i < sim_ops; ++i) {
    const OpOutcome& o = ops[i];
    submitted += o.queries;
    for (double ms : o.query_ms) {
      query_ms.push_back(ms);
      if (ms <= spec->slo_ms) ++slo_met;
    }
    tuples += o.virtual_tuples;
    join_s += o.join_sim_s;
    sim_s += o.sim_s;
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!args.trace) {
    const std::map<std::string, double> v = {
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", PeakRssMb()},
        {"op_host_ms_p50", Median(host_ms)},
        {"sim_join_gtuples_s", join_s == 0 ? 0.0 : tuples / join_s / 1e9},
        {"sim_query_ms_p50", Percentile(query_ms, 0.5)},
        {"sim_query_ms_p90", Percentile(query_ms, 0.9)},
        {"sim_slo_met_frac",
         submitted == 0 ? 0.0
                        : static_cast<double>(slo_met) /
                              static_cast<double>(submitted)},
        {"sim_tpch_s", sim_s / static_cast<double>(sim_ops)},
    };
    for (const MetricDef& m : kEndToEnd) metrics.push_back({m, v.at(m.name)});
  } else {
    // Layers a workload does not reach report 0.
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> sim_vals, host_vals;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (auto it = ops[i].sim_layer.find(m.name);
            i < sim_ops && it != ops[i].sim_layer.end()) {
          sim_vals.push_back(it->second);
        }
        if (auto it = ops[i].host_layer.find(m.name);
            it != ops[i].host_layer.end()) {
          host_vals.push_back(it->second);
        }
      }
      metrics.push_back(
          {m, !sim_vals.empty() ? Median(sim_vals) : Median(host_vals)});
      if (std::strcmp(m.name, "trace.overhead_frac") == 0) {
        metrics.back().second = Median(traced_ms) / Median(host_ms) - 1.0;
      }
    }
    if (!log.WriteChromeTrace(args.spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
      return 1;
    }
    std::printf("spans: %s (%zu spans, %zu ops)\n", args.spans.c_str(),
                log.spans().size(), ops.size());
  }
  PrintMetrics(failed == 0, ops.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
