#ifndef MGJOIN_BENCH_BENCH_UTIL_H_
#define MGJOIN_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction harnesses. Each bench binary
// regenerates the series of one paper figure and prints a plain-text
// table (series name, x, y) so results can be diffed against
// EXPERIMENTS.md.
//
// Observability: setting MGJ_TRACE=<file> makes every join/distribution
// run in the bench record into one Chrome trace, written at process
// exit (and flushed from the fatal-log hook, so an MGJ_CHECK abort
// still leaves the trace that explains it); MGJ_METRICS=1 prints the
// accumulated metrics registry at exit. MGJ_TELEMETRY=<file> samples
// fabric telemetry (obs/telemetry.h) on the simulated clock during
// every run and writes one OpenMetrics exposition covering all runs
// (run="<i>" labels) at exit; MGJ_SAMPLE_EVERY tunes the grid.
//
// Structured results: MGJ_BENCH_JSON=<dir> makes the bench write
// BENCH_<name>.json ("mgjoin-bench/1" schema: every printed series as
// x/y points, a per-run critical-path/congestion digest, topology and
// git metadata) next to its text table — the input of
// tools/bench_compare and the CI perf trajectory. MGJ_GIT_COMMIT=<sha>
// stamps provenance; MGJ_BENCH_SCALE=<div> divides the workload sizes
// so CI can smoke-run figures in seconds (simulated results stay
// deterministic at any fixed scale).
//
// Fault injection: MGJ_FAULTS=<spec> applies a link fault plan (see
// net/fault_plan.h for the grammar, e.g.
// "down:gpu0-gpu3:@5ms,restore:gpu0-gpu3:@15ms") to every run that does
// not set its own plan, so any figure can be re-measured on a degraded
// fabric.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "common/wallprof.h"
#include "data/generator.h"
#include "join/mg_join.h"
#include "join/umj.h"
#include "net/fault_plan.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/bench_json.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::bench {

/// Workload divisor from MGJ_BENCH_SCALE (>= 1; 1 = paper scale).
inline double BenchScaleDiv() {
  static const double div = [] {
    const char* e = std::getenv("MGJ_BENCH_SCALE");
    const double v = e != nullptr ? std::atof(e) : 1.0;
    return v >= 1.0 ? v : 1.0;
  }();
  return div;
}

/// Process-wide observability sinks driven by the environment (see file
/// comment). The instance is a function-local static so the trace file
/// is written when the bench exits normally; a fatal-log hook flushes
/// it on aborts too.
class EnvObs {
 public:
  static EnvObs& Instance() {
    static EnvObs instance;
    return instance;
  }

  /// Fills any unset hook in `options` from the environment-enabled
  /// sinks and applies the MGJ_FAULTS plan (parsed against `topo`) if
  /// the caller did not set one. Explicit settings win.
  void Attach(net::TransferOptions* options, const topo::Topology& topo) {
    if (options->obs.trace == nullptr && capture_) {
      options->obs.trace = &trace_;
    }
    if (options->obs.metrics == nullptr &&
        (metrics_enabled_ || !telemetry_path_.empty())) {
      // Telemetry implies metrics: the OpenMetrics exposition carries
      // the registry families alongside the sampled series.
      options->obs.metrics = &metrics_;
    }
    if (options->obs.telemetry == nullptr && !telemetry_path_.empty()) {
      // One sampler per run: TelemetrySampler::Attach binds to a single
      // simulator, and each join/distribution run builds its own.
      samplers_.push_back(
          std::make_unique<obs::TelemetrySampler>(sample_every_));
      options->obs.telemetry = samplers_.back().get();
    }
    if (options->faults.empty() && !fault_spec_.empty()) {
      auto plan = net::FaultPlan::Parse(fault_spec_, topo);
      if (!plan.ok()) {
        std::fprintf(stderr, "# MGJ_FAULTS ignored: %s\n",
                     plan.status().ToString().c_str());
      } else {
        options->faults = std::move(plan).value();
      }
    }
  }

  /// The shared recorder when any capture (MGJ_TRACE or MGJ_BENCH_JSON)
  /// is on, nullptr otherwise.
  obs::TraceRecorder* recorder() { return capture_ ? &trace_ : nullptr; }

  /// Bookmark for slicing one run's events out of the shared recorder.
  std::size_t EventsRecorded() const { return trace_.num_events(); }
  /// The events recorded since bookmark `from`. Without MGJ_TRACE no
  /// file needs them afterwards, so the recorder drops every event: a
  /// figure sweep then holds one run's events at a time, not all of
  /// them (fig09 at scale 1 peaked at 4.6 GB that way).
  std::vector<obs::TraceEvent> TakeEventsSince(std::size_t from) {
    if (!capture_) return {};
    std::vector<obs::TraceEvent> events = trace_.ExportEvents(from);
    if (trace_path_.empty()) trace_.ClearEvents();
    return events;
  }

  /// Writes the trace file / prints metrics. Idempotent; runs from the
  /// destructor on normal exit and from the AtFatal hook on aborts.
  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    if (!trace_path_.empty()) {
      const Status st = trace_.WriteFile(trace_path_);
      std::fprintf(stderr, "# MGJ_TRACE: %s (%zu events): %s\n",
                   trace_path_.c_str(), trace_.num_events(),
                   st.ok() ? "written" : st.ToString().c_str());
    }
    if (metrics_enabled_) {
      std::fprintf(stderr, "# MGJ_METRICS\n%s",
                   metrics_.Summary(metrics_window_).c_str());
    }
    if (!telemetry_path_.empty()) {
      std::vector<const obs::TelemetrySampler*> runs;
      runs.reserve(samplers_.size());
      for (const auto& s : samplers_) runs.push_back(s.get());
      const Status st = obs::WriteTextFile(
          telemetry_path_, obs::OpenMetricsText(&metrics_, runs));
      std::fprintf(stderr, "# MGJ_TELEMETRY: %s (%zu runs): %s\n",
                   telemetry_path_.c_str(), runs.size(),
                   st.ok() ? "written" : st.ToString().c_str());
    }
  }

 private:
  EnvObs() {
    const char* t = std::getenv("MGJ_TRACE");
    if (t != nullptr && *t != '\0') trace_path_ = t;
    const char* m = std::getenv("MGJ_METRICS");
    metrics_enabled_ = m != nullptr && *m != '\0' && *m != '0';
    const char* f = std::getenv("MGJ_FAULTS");
    if (f != nullptr && *f != '\0') fault_spec_ = f;
    const char* om = std::getenv("MGJ_TELEMETRY");
    if (om != nullptr && *om != '\0') telemetry_path_ = om;
    sample_every_ = obs::TelemetrySampler::IntervalFromEnv();
    const char* bj = std::getenv("MGJ_BENCH_JSON");
    capture_ = !trace_path_.empty() || (bj != nullptr && *bj != '\0');
    if (!trace_path_.empty() || metrics_enabled_ ||
        !telemetry_path_.empty()) {
      AtFatal([this] { Flush(); });
    }
  }

  ~EnvObs() { Flush(); }

  std::string trace_path_;
  std::string fault_spec_;
  std::string telemetry_path_;
  bool metrics_enabled_ = false;
  bool capture_ = false;
  bool flushed_ = false;
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  sim::SimTime metrics_window_ = sim::kSecond;
  sim::SimTime sample_every_ = obs::TelemetrySampler::kDefaultInterval;
  std::vector<std::unique_ptr<obs::TelemetrySampler>> samplers_;
};

/// \brief Builds and writes the bench's BENCH_<name>.json when
/// MGJ_BENCH_JSON=<dir> is set (no-op otherwise). Series points mirror
/// the printed text table; run digests come from the shared trace
/// recorder via EnvObs event slices.
class BenchReport {
 public:
  static BenchReport& Instance() {
    static BenchReport instance;
    return instance;
  }

  bool enabled() const { return !dir_.empty(); }

  /// First call names the document (one BENCH_<slug>.json per binary);
  /// later calls — binaries printing several figure banners — append to
  /// the figure/description metadata only.
  void Begin(const char* slug, const char* figure,
             const char* description) {
    if (doc_.name.empty()) {
      doc_.name = slug;
      doc_.figure = figure;
      doc_.description = description;
      return;
    }
    doc_.figure += std::string("; ") + figure;
    doc_.description += std::string("; ") + description;
  }

  void SetTopology(const topo::Topology& topo, int gpus) {
    doc_.topology = std::to_string(topo.num_gpus()) + " GPUs / " +
                    std::to_string(topo.num_links()) + " links";
    doc_.gpus = gpus;
  }

  /// Declares a series' unit and regression direction (call before the
  /// points; default is higher-is-better, empty unit).
  void Meta(const char* series, const char* unit, bool higher_is_better) {
    if (enabled()) doc_.SetSeriesMeta(series, unit, higher_is_better);
  }

  void Point(const char* series, double x, double y) {
    if (enabled()) doc_.AddPoint(series, x, y);
  }
  void Point(const char* series, const std::string& xlabel, double y) {
    if (enabled()) doc_.AddPoint(series, xlabel, y);
  }

  /// Digests one run's trace slice into the document.
  void AddRun(const std::vector<obs::TraceEvent>& events,
              double tuples_per_s) {
    if (!enabled() || events.empty()) return;
    const obs::report::RunReport rep = obs::report::BuildRunReport(events);
    doc_.runs.push_back(obs::DigestRun(
        rep, "run" + std::to_string(doc_.runs.size()), tuples_per_s));
  }

 private:
  BenchReport() : start_(std::chrono::steady_clock::now()) {
    // The destructor reads the global profiler: construct it first so it
    // is destroyed after this singleton, not before.
    WallProfiler::Global();
    const char* d = std::getenv("MGJ_BENCH_JSON");
    if (d != nullptr && *d != '\0') dir_ = d;
    const char* gc = std::getenv("MGJ_GIT_COMMIT");
    if (gc != nullptr && *gc != '\0') doc_.git_commit = gc;
  }

  ~BenchReport() {
    if (!enabled() || doc_.name.empty()) return;
    doc_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    doc_.wall_phases = WallProfiler::Global().Phases();
    const std::string path = dir_ + "/BENCH_" + doc_.name + ".json";
    const std::string json = doc_.ToJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# MGJ_BENCH_JSON: cannot open %s\n",
                   path.c_str());
      return;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "# MGJ_BENCH_JSON: %s written\n", path.c_str());
  }

  std::string dir_;
  obs::BenchDoc doc_;
  std::chrono::steady_clock::time_point start_;
};

/// Functional tuples per GPU per relation used by the join benches; the
/// virtual scale below lifts the simulated inputs to the paper's 512M
/// tuples per GPU per relation.
inline constexpr std::uint64_t kFuncTuplesPerGpu = 1ull << 19;
inline constexpr double kPaperScale =
    static_cast<double>(512 * kMTuples) / kFuncTuplesPerGpu;

/// kFuncTuplesPerGpu divided by MGJ_BENCH_SCALE (smoke runs).
inline std::uint64_t ScaledTuplesPerGpu() {
  const auto scaled = static_cast<std::uint64_t>(
      static_cast<double>(kFuncTuplesPerGpu) / BenchScaleDiv());
  return std::max<std::uint64_t>(scaled, 1ull << 12);
}

/// The paper's all-to-all shuffle volume for `g` GPUs (512M tuples x
/// 8 B x both relations per GPU), divided by MGJ_BENCH_SCALE.
inline std::uint64_t PaperShuffleBytes(int g) {
  return static_cast<std::uint64_t>(
      static_cast<double>(g) * 512.0 * kMTuples * 2 * 8 / BenchScaleDiv());
}

/// Generates the paper's workload for `g` GPUs at functional scale.
/// `tuples_per_gpu` 0 means the default (MGJ_BENCH_SCALE-aware) size.
inline std::pair<data::DistRelation, data::DistRelation> PaperInput(
    int g, double placement_zipf = 0.0, double key_zipf = 0.0,
    std::uint64_t tuples_per_gpu = 0) {
  if (tuples_per_gpu == 0) tuples_per_gpu = ScaledTuplesPerGpu();
  data::GenOptions opts;
  opts.tuples_per_relation = tuples_per_gpu * g;
  opts.num_gpus = g;
  opts.placement_zipf = placement_zipf;
  opts.key_zipf = key_zipf;
  return data::MakeJoinInput(opts);
}

/// Runs one join configuration and returns the result (aborts on error;
/// benches own their inputs). When MGJ_BENCH_JSON is active the run's
/// trace slice is digested into the bench document.
inline join::JoinResult RunJoin(const topo::Topology* topo,
                                const std::vector<int>& gpus,
                                const data::DistRelation& r,
                                const data::DistRelation& s,
                                join::MgJoinOptions opts,
                                double virtual_scale = kPaperScale) {
  opts.virtual_scale = virtual_scale;
  EnvObs& env = EnvObs::Instance();
  env.Attach(&opts.transfer, *topo);
  const std::size_t mark = env.EventsRecorded();
  join::MgJoin j(topo, gpus, opts);
  join::JoinResult res = j.Execute(r, s).ValueOrDie();
  BenchReport& report = BenchReport::Instance();
  if (report.enabled()) {
    report.SetTopology(*topo, static_cast<int>(gpus.size()));
    report.AddRun(env.TakeEventsSince(mark), res.Throughput());
  }
  return res;
}

/// Result of a distribution-only run (the data-distribution step of the
/// global partitioning phase in isolation).
struct DistributionRun {
  net::TransferStats stats;
  double cross_cut_bytes = 0;  ///< wire bytes over the min-bisection cut
  double bisection_bw = 0;     ///< bytes/s (both directions)

  /// The paper's Figure 8 metric: aggregate transfer throughput (all
  /// bytes put on the wire, including forwarding hops, per unit time)
  /// normalized to the configuration's bisection bandwidth.
  double Utilization() const {
    const double secs = sim::ToSeconds(stats.Makespan());
    if (secs <= 0 || bisection_bw <= 0) return 0;
    return (static_cast<double>(stats.wire_bytes) / secs) / bisection_bw;
  }

  /// Stricter variant: only traffic actually crossing the minimum cut.
  double CrossCutUtilization() const {
    const double secs = sim::ToSeconds(stats.Makespan());
    if (secs <= 0 || bisection_bw <= 0) return 0;
    return (cross_cut_bytes / secs) / bisection_bw;
  }
};

/// All-to-all shuffle flows: GPU i holds `total_bytes` x w_i (Zipf
/// placement weights) and sends a 1/g share to every other GPU.
inline std::vector<net::Flow> ShuffleFlows(const std::vector<int>& gpus,
                                           std::uint64_t total_bytes,
                                           double placement_zipf = 0.0) {
  const int g = static_cast<int>(gpus.size());
  const auto held =
      data::PlacementSizes(total_bytes, g, placement_zipf);
  std::vector<net::Flow> flows;
  std::uint64_t id = 0;
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) {
      if (i == j) continue;
      flows.push_back(net::Flow{id++, gpus[i], gpus[j],
                                held[i] / static_cast<std::uint64_t>(g),
                                0, 0.0, 0, {}});
    }
  }
  return flows;
}

/// Runs a distribution-only experiment under `kind`.
inline DistributionRun RunDistribution(const topo::Topology* topo,
                                       const std::vector<int>& gpus,
                                       const std::vector<net::Flow>& flows,
                                       net::PolicyKind kind,
                                       net::TransferOptions options = {}) {
  sim::Simulator s;
  EnvObs& env = EnvObs::Instance();
  env.Attach(&options, *topo);
  const std::size_t mark = env.EventsRecorded();
  auto policy = net::MakePolicy(kind, options.max_intermediates);
  net::TransferEngine eng(&s, topo, gpus, policy.get(), options);
  for (const net::Flow& f : flows) eng.AddFlow(f);
  eng.Start();
  s.Run();

  DistributionRun run;
  run.stats = eng.stats();
  const auto cut = topo->MinBisectionCut(gpus);
  run.bisection_bw = cut.bandwidth;
  for (int l = 0; l < topo->num_links(); ++l) {
    if (!cut.link_crossing[l]) continue;
    run.cross_cut_bytes += static_cast<double>(
        eng.links().BytesMoved({l, 0}) + eng.links().BytesMoved({l, 1}));
  }
  if (options.obs.trace != nullptr) {
    // Same annotation MgJoin records: lets the congestion report show
    // achieved-vs-peak bisection bandwidth for bare shuffles too.
    options.obs.trace->Instant(
        options.obs.trace->Track("net.info"), "net", "bisection", 0,
        {{"bps", static_cast<std::uint64_t>(run.bisection_bw)}});
  }
  BenchReport& report = BenchReport::Instance();
  if (report.enabled()) {
    report.SetTopology(*topo, static_cast<int>(gpus.size()));
    report.AddRun(env.TakeEventsSince(mark), 0.0);
  }
  return run;
}

/// The paper's Figure 1 metric: GPU cycles per tuple, normalized to the
/// per-GPU tuple count (per-GPU load is constant across configurations).
inline double CyclesPerTuple(sim::SimTime t, std::uint64_t tuples_per_gpu,
                             double clock_hz = 1.53e9) {
  return sim::ToSeconds(t) * clock_hz / static_cast<double>(tuples_per_gpu);
}

/// Prints the figure banner and (when MGJ_BENCH_JSON is on) names the
/// bench document; `slug` becomes the BENCH_<slug>.json filename.
inline void PrintHeader(const char* slug, const char* figure,
                        const char* description) {
  BenchReport::Instance().Begin(slug, figure, description);
  std::printf("# %s — %s\n", figure, description);
  std::printf(
      "# workload: 8-byte tuples, |R|=|S|, 512M tuples/GPU/relation "
      "(simulated via virtual scale %.0f%s)\n",
      kPaperScale,
      BenchScaleDiv() > 1.0 ? ", reduced by MGJ_BENCH_SCALE" : "");
}

}  // namespace mgjoin::bench

#endif  // MGJOIN_BENCH_BENCH_UTIL_H_
