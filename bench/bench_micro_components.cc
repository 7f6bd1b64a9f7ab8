// Component microbenchmarks (google-benchmark): functional-layer hot
// paths — histogram build, shuffle, compression codec, local join,
// ParallelFor dispatch, routing decisions and the event simulator
// itself.
//
// The BM_SimulatorCore / BM_TransferEngineShuffle family additionally
// exports an events-per-second + packets-per-second series document
// (BENCH_micro_simcore.json, "mgjoin-bench/1") when MGJ_BENCH_JSON is
// set, so bench_compare tracks the event-core throughput like every
// other series. All series are wall-clock and therefore warn-only in
// the CI gate (PR 4 convention).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/compression.h"
#include "data/generator.h"
#include "gpusim/gpu.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/partition_assignment.h"
#include "join/shuffle.h"
#include "net/link_state.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

void BM_HistogramBuild(benchmark::State& state) {
  data::GenOptions opts;
  opts.tuples_per_relation = static_cast<std::uint64_t>(state.range(0));
  opts.num_gpus = 1;
  auto [r, s] = data::MakeJoinInput(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(join::BuildHistograms(r, 12));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramBuild)->Arg(1 << 16)->Arg(1 << 20);

void BM_CompressionRoundTrip(benchmark::State& state) {
  Rng rng(1);
  const int domain_bits = 24, radix_bits = 12;
  std::vector<data::Tuple> tuples(state.range(0));
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].key = static_cast<std::uint32_t>(rng.Uniform(1u << 12));
    tuples[i].id = static_cast<std::uint32_t>(i * 3);
  }
  for (auto _ : state) {
    auto cp = data::CompressPartition(tuples.data(), tuples.size(), 0,
                                      domain_bits, radix_bits);
    auto back = data::DecompressPartition(cp.value());
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressionRoundTrip)->Arg(1 << 12)->Arg(1 << 16);

void BM_LocalJoin(benchmark::State& state) {
  data::GenOptions opts;
  opts.tuples_per_relation = static_cast<std::uint64_t>(state.range(0));
  opts.num_gpus = 1;
  auto [r, s] = data::MakeJoinInput(opts);
  const join::PartitionedTuples rp({r.shards[0]}), sp({s.shards[0]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        join::LocalPartitionAndProbe(&rp, &sp, join::LocalJoinOptions{}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_LocalJoin)->Arg(1 << 14)->Arg(1 << 18)->UseRealTime();

// One ShufflePartitions call on 8 GPUs of a DGX-1V, network-optimal
// assignment, compression on. Arg 0 = tuples per GPU per relation; arg
// 1 = skewed (placement zipf 0.5, key zipf 1.0). 8,192 uniform is a
// serve_mixed dataset; 1M skewed is perfbench's host_skew8 input.
void BM_ShufflePartitions(benchmark::State& state) {
  auto topo = topo::MakeDgx1V();
  const std::vector<int> gpus = topo::FirstNGpus(8);
  data::GenOptions opts;
  opts.tuples_per_relation = static_cast<std::uint64_t>(state.range(0)) * 8;
  opts.num_gpus = 8;
  if (state.range(1) != 0) {
    opts.placement_zipf = 0.5;
    opts.key_zipf = 1.0;
  }
  auto [r, s] = data::MakeJoinInput(opts);
  const int radix_bits =
      join::RadixBitsFor(gpusim::GpuSpec::V100(), r.domain_bits);
  const auto assignment = join::ComputeAssignment(
      *topo, gpus, join::BuildHistograms(r, radix_bits),
      join::BuildHistograms(s, radix_bits), join::AssignmentOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(join::ShufflePartitions(
        r, s, radix_bits, assignment, gpus, join::ShuffleOptions{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(opts.tuples_per_relation) *
                          2);
}
BENCHMARK(BM_ShufflePartitions)
    ->Args({8192, 0})
    ->Args({1 << 20, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Per-index dispatch cost of ParallelFor: 4,096 near-empty indices.
void BM_ParallelForDispatch(benchmark::State& state) {
  std::vector<std::uint64_t> out(4096);
  for (auto _ : state) {
    ParallelFor(0, out.size(), [&out](std::size_t i) { out[i] += i; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForDispatch)->UseRealTime();

void BM_RouteEnumeration(benchmark::State& state) {
  auto topo = topo::MakeDgx1V();
  int src = 0;
  for (auto _ : state) {
    // Rotate pairs; every call enumerates afresh (the topology keeps no
    // cache; the routing policies' route tables are the only one).
    const int dst = (src + 5) % 8;
    benchmark::DoNotOptimize(topo->EnumerateRoutes(src, dst, 3));
    src = (src + 1) % 8;
  }
}
BENCHMARK(BM_RouteEnumeration);

void BM_AdaptiveRoutingDecision(benchmark::State& state) {
  auto topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  int src = 0;
  for (auto _ : state) {
    const int dst = (src + 5) % 8;
    benchmark::DoNotOptimize(
        policy->ChooseRoute(src, dst, 2 * kMiB, 8, links));
    src = (src + 1) % 8;
  }
}
BENCHMARK(BM_AdaptiveRoutingDecision);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) s.Schedule(10, tick);
    };
    s.Schedule(1, tick);
    s.Run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_ZipfGeneration(benchmark::State& state) {
  ZipfGenerator zipf(1 << 20, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_ZipfGeneration);

// Metrics touch cost: the per-packet hot path resolves its counters
// once at setup (CounterHandle) instead of walking the registry's
// std::map per touch. The two variants quantify the gap the
// transfer-engine migration removed.
void BM_MetricsTouchByName(benchmark::State& state) {
  obs::MetricsRegistry m;
  for (auto _ : state) {
    m.counter("net.payload_bytes").Add(64);
    m.counter("net.wire_bytes").Add(96);
    m.gauge("net.transit_queue_depth").Set(7);
    m.histogram("net.batch_packets").Observe(12);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_MetricsTouchByName);

void BM_MetricsTouchByHandle(benchmark::State& state) {
  obs::MetricsRegistry m;
  obs::CounterHandle payload = m.counter_handle("net.payload_bytes");
  obs::CounterHandle wire = m.counter_handle("net.wire_bytes");
  obs::GaugeHandle depth = m.gauge_handle("net.transit_queue_depth");
  obs::HistogramHandle batch = m.histogram_handle("net.batch_packets");
  for (auto _ : state) {
    payload.Add(64);
    wire.Add(96);
    depth.Set(7);
    batch.Observe(12);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_MetricsTouchByHandle);

// The disabled-metrics case call sites actually pay when obs is off:
// empty handles, every touch a no-op.
void BM_MetricsTouchDisabled(benchmark::State& state) {
  obs::CounterHandle payload =
      obs::MetricsRegistry::ResolveCounter(nullptr, "net.payload_bytes");
  obs::CounterHandle wire =
      obs::MetricsRegistry::ResolveCounter(nullptr, "net.wire_bytes");
  obs::GaugeHandle depth =
      obs::MetricsRegistry::ResolveGauge(nullptr, "net.transit_queue_depth");
  obs::HistogramHandle batch =
      obs::MetricsRegistry::ResolveHistogram(nullptr, "net.batch_packets");
  for (auto _ : state) {
    payload.Add(64);
    wire.Add(96);
    depth.Set(7);
    batch.Observe(12);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_MetricsTouchDisabled);

// ---------------------------------------------------------------------------
// Event-core throughput family (ROADMAP item 2). Three simulator-only
// patterns stress different parts of the event queue, and a full
// transfer-engine shuffle measures end-to-end packets per second. Each
// configuration is measured once with a deterministic workload and its
// rate recorded into BENCH_micro_simcore.json (wall-clock, warn-only).

// splitmix64 finalizer: cheap deterministic per-event jitter.
inline std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Pattern 0: 64 staggered self-rescheduling timer chains (the shape of
// poll/watchdog traffic). The callable is a 32-byte struct — larger
// than std::function's inline buffer, so the old heap-of-closures core
// paid one allocation per event here.
struct ChainTick {
  sim::Simulator* s;
  std::uint64_t* remaining;
  std::uint32_t chain;
  std::uint64_t step;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    const sim::SimTime delta =
        1 + MixU64(chain * 1000003ull + step) % (100 * sim::kMicrosecond);
    s->Schedule(delta, ChainTick{s, remaining, chain, step + 1});
  }
};

// Pattern 1: bursts of 128 same-timestamp events (the shape of batch
// fan-out: one DMA completion scheduling many arrivals at one instant).
struct BurstLeaf {
  std::uint64_t* remaining;
  void operator()() const {
    if (*remaining > 0) --*remaining;
  }
};
struct BurstDriver {
  sim::Simulator* s;
  std::uint64_t* remaining;
  void operator()() const {
    if (*remaining == 0) return;
    constexpr int kFanOut = 128;
    const sim::SimTime delta = 10 * sim::kMicrosecond;
    for (int i = 0; i < kFanOut && *remaining > 1; ++i) {
      s->Schedule(delta, BurstLeaf{remaining});
    }
    --*remaining;
    s->Schedule(delta, BurstDriver{s, remaining});
  }
};

// Pattern 2: pre-scheduled events hashed across a 50 ms horizon (the
// shape of a bulk Start(): many flows injected up front, far beyond the
// near-future window).
struct HorizonLeaf {
  std::uint64_t* done;
  void operator()() const { ++*done; }
};

// Schedules and runs `n` events of `pattern` on `s`; returns events
// processed. A non-null `sampler` is attached first (fresh sampler per
// run: Attach binds to one simulator), measuring the observer's cost
// on the event loop.
std::uint64_t RunSimCoreWorkload(sim::Simulator& s, int pattern,
                                 std::uint64_t n,
                                 obs::TelemetrySampler* sampler = nullptr) {
  if (sampler != nullptr) sampler->Attach(&s);
  switch (pattern) {
    case 0: {
      constexpr std::uint32_t kChains = 64;
      std::uint64_t remaining = n;
      for (std::uint32_t c = 0; c < kChains; ++c) {
        s.Schedule(1 + MixU64(c) % sim::kMicrosecond,
                   ChainTick{&s, &remaining, c, 0});
      }
      break;
    }
    case 1: {
      std::uint64_t remaining = n;
      s.Schedule(1, BurstDriver{&s, &remaining});
      break;
    }
    default: {
      std::uint64_t done = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        s.ScheduleAt(MixU64(i) % (50 * sim::kMillisecond),
                     HorizonLeaf{&done});
      }
      break;
    }
  }
  s.Run();
  return s.events_processed();
}

const char* SimCorePatternName(int pattern) {
  switch (pattern) {
    case 0:
      return "chains";
    case 1:
      return "bursts";
    default:
      return "horizon";
  }
}

// Names the shared document and declares the series once per process.
void EnsureSimCoreReport() {
  static const bool once = [] {
    bench::BenchReport& r = bench::BenchReport::Instance();
    r.Begin("micro_simcore", "micro (event core)",
            "event-queue events/s and transfer-engine packets/s "
            "(wall-clock series: informational in the CI gate)");
    r.Meta("sim.events_per_s", "events/s wall", true);
    r.Meta("net.packets_per_s", "packets/s wall", true);
    r.Meta("net.events_per_s", "events/s wall", true);
    r.Meta("sim.sampled_events_per_s", "events/s wall", true);
    r.Meta("net.sampled_packets_per_s", "packets/s wall", true);
    r.Meta("sim.parallel_events_per_s", "events/s wall", true);
    r.Meta("net.parallel_events_per_s", "events/s wall", true);
    r.Meta("net.parallel_packets_per_s", "packets/s wall", true);
    r.Meta("net.route_decisions_per_s", "decisions/s wall", true);
    return true;
  }();
  (void)once;
}

// One deterministic measured run per pattern feeds the JSON series; the
// google-benchmark loop below re-measures the same workload for humans.
void RecordSimCorePoint(int pattern) {
  static bool recorded[3] = {false, false, false};
  if (recorded[pattern]) return;
  recorded[pattern] = true;
  EnsureSimCoreReport();
  constexpr std::uint64_t kEvents = 1 << 20;
  {
    sim::Simulator warm;  // touch allocator + caches outside the timing
    RunSimCoreWorkload(warm, pattern, kEvents / 8);
  }
  // Best of three timed runs: the recorded point is a peak-rate series
  // and should not absorb one-off scheduler hiccups.
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::Simulator s;
    const std::uint64_t processed = RunSimCoreWorkload(s, pattern, kEvents);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, static_cast<double>(processed) / secs);
  }
  bench::BenchReport::Instance().Point(
      "sim.events_per_s", SimCorePatternName(pattern), best);
}

void BM_SimulatorCore(benchmark::State& state) {
  const int pattern = static_cast<int>(state.range(0));
  RecordSimCorePoint(pattern);
  constexpr std::uint64_t kEventsPerIter = 1 << 17;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    sim::Simulator s;
    processed += RunSimCoreWorkload(s, pattern, kEventsPerIter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.SetLabel(SimCorePatternName(pattern));
}
BENCHMARK(BM_SimulatorCore)->Arg(0)->Arg(1)->Arg(2);

// Same workloads with the telemetry sampler attached on the default
// 1 ms grid: the gap against BM_SimulatorCore is the observer's cost
// on the event loop (acceptance target: <= 5%, tracked warn-only via
// the JSON point).
constexpr sim::SimTime kSimCoreSampleEvery = obs::TelemetrySampler::kDefaultInterval;

void RecordSimCoreSampledPoint(int pattern) {
  static bool recorded[3] = {false, false, false};
  if (recorded[pattern]) return;
  recorded[pattern] = true;
  EnsureSimCoreReport();
  constexpr std::uint64_t kEvents = 1 << 20;
  {
    sim::Simulator warm;
    obs::TelemetrySampler sampler(kSimCoreSampleEvery);
    RunSimCoreWorkload(warm, pattern, kEvents / 8, &sampler);
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::Simulator s;
    obs::TelemetrySampler sampler(kSimCoreSampleEvery);
    const std::uint64_t processed =
        RunSimCoreWorkload(s, pattern, kEvents, &sampler);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, static_cast<double>(processed) / secs);
  }
  bench::BenchReport::Instance().Point(
      "sim.sampled_events_per_s", SimCorePatternName(pattern), best);
}

void BM_SimulatorCoreSampled(benchmark::State& state) {
  const int pattern = static_cast<int>(state.range(0));
  RecordSimCoreSampledPoint(pattern);
  constexpr std::uint64_t kEventsPerIter = 1 << 17;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    sim::Simulator s;
    obs::TelemetrySampler sampler(kSimCoreSampleEvery);
    processed += RunSimCoreWorkload(s, pattern, kEventsPerIter, &sampler);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.SetLabel(SimCorePatternName(pattern));
}
BENCHMARK(BM_SimulatorCoreSampled)->Arg(0)->Arg(1)->Arg(2);

// Same workloads on the binary-heap determinism oracle
// (QueueKind::kHeapReference) — google-benchmark output only, not part
// of the gated JSON: it exists so a plain bench run shows the
// calendar-vs-heap gap on this machine.
void BM_SimulatorCoreHeapRef(benchmark::State& state) {
  const int pattern = static_cast<int>(state.range(0));
  constexpr std::uint64_t kEventsPerIter = 1 << 17;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    sim::Simulator s(sim::QueueKind::kHeapReference);
    processed += RunSimCoreWorkload(s, pattern, kEventsPerIter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.SetLabel(SimCorePatternName(pattern));
}
BENCHMARK(BM_SimulatorCoreHeapRef)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------------
// Conservative parallel event core (QueueKind::kParallel, DESIGN.md
// Sec 16). Engine-driven runs keep all events in the shared partition
// by design — that is how the byte-identical contract is held — so
// the scaling series measures a *partitioned model workload*: event
// chains confined to their partitions with per-event payload work,
// exchanging cross-partition "packets" at no less than the NVLink
// latency floor the real topology would impose as the lookahead.

constexpr sim::SimTime kModelLookahead = 1900 * sim::kNanosecond;

// 40 bytes: fits EventFn's inline buffer, so partition-local hops stay
// allocation-free. Writes go to per-partition slots (sums/packets are
// indexed by the executing partition) — partition-confined, no locks.
struct ModelChain {
  sim::Simulator* s;
  std::uint64_t* sums;     // per-partition checksum accumulators
  std::uint64_t* packets;  // per-partition cross-partition send counts
  std::int32_t p;
  std::int32_t parts;
  std::int32_t work;
  std::uint32_t remaining;
  void operator()() const {
    std::uint64_t h =
        MixU64(static_cast<std::uint64_t>(remaining) * 0x9e3779b97f4a7c15ull ^
               static_cast<std::uint64_t>(p) * 0xff51afd7ed558ccdull);
    for (std::int32_t i = 0; i < work; ++i) h = MixU64(h);
    sums[p] += h;
    if (remaining == 0) return;
    ModelChain next = *this;
    --next.remaining;
    if (remaining % 16 == 0) {
      // Forward to another partition: a "packet" on the model fabric.
      // The delay is always >= the lookahead, so the conservative
      // check never trips no matter where the window started.
      ++packets[p];
      next.p = static_cast<std::int32_t>(
          (p + 1 + h % static_cast<std::uint64_t>(parts - 1)) %
          static_cast<std::uint64_t>(parts));
      s->ScheduleIn(next.p, kModelLookahead + h % kModelLookahead, next);
    } else {
      // Local hop at ~1/16th of the lookahead: every partition keeps a
      // handful of events inside each window, so windows are
      // multi-active and drains actually overlap.
      s->ScheduleIn(p, 1 + h % (kModelLookahead / 16), next);
    }
  }
};

struct ParallelModelParams {
  int parts = 8;
  int chains_per_part = 8;
  std::uint32_t steps = 2048;  // events per chain
  int work = 96;               // MixU64 rounds per event (payload cost)
};

struct ParallelModelResult {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t checksum = 0;
};

// `workers` == 0 runs the identical workload on the serial kCalendar
// core (the reference series); otherwise kParallel with that many
// event-loop workers. The checksum must not depend on the choice.
ParallelModelResult RunParallelModel(const ParallelModelParams& pp,
                                     int workers) {
  sim::Simulator s(workers > 0 ? sim::QueueKind::kParallel
                               : sim::QueueKind::kCalendar);
  if (workers > 0) {
    s.ConfigurePartitions(pp.parts, kModelLookahead, workers);
  }
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(pp.parts), 0);
  std::vector<std::uint64_t> packets(static_cast<std::size_t>(pp.parts), 0);
  for (int p = 0; p < pp.parts; ++p) {
    for (int c = 0; c < pp.chains_per_part; ++c) {
      // Distinct per-chain step counts keep sibling chains out of
      // lock-step; staggered starts spread the first window.
      const std::uint32_t steps = pp.steps + static_cast<std::uint32_t>(c);
      s.ScheduleAtIn(
          p, 1 + MixU64(static_cast<std::uint64_t>(p) * 131 + c) %
                     kModelLookahead,
          ModelChain{&s, sums.data(), packets.data(), p, pp.parts, pp.work,
                     steps});
    }
  }
  s.Run();
  ParallelModelResult res;
  res.events = s.events_processed();
  for (int p = 0; p < pp.parts; ++p) {
    res.packets += packets[static_cast<std::size_t>(p)];
    res.checksum = MixU64(res.checksum ^ sums[static_cast<std::size_t>(p)]);
  }
  return res;
}

const char* ParallelPointName(int workers) {
  switch (workers) {
    case 0:
      return "serial";
    case 1:
      return "w1";
    case 2:
      return "w2";
    case 4:
      return "w4";
    default:
      return "w8";
  }
}

// Measures one worker-count point best-of-3 and records it under
// `series`; returns {best events/s, best packets/s}. The checksum is
// verified against the serial reference — the bench aborts rather than
// publish a rate for a run that broke determinism.
std::pair<double, double> MeasureParallelPoint(const ParallelModelParams& pp,
                                               int workers,
                                               std::uint64_t want_checksum) {
  double best_events = 0.0;
  double best_packets = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const ParallelModelResult res = RunParallelModel(pp, workers);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    MGJ_CHECK(res.checksum == want_checksum)
        << "parallel model checksum diverged at workers=" << workers;
    best_events =
        std::max(best_events, static_cast<double>(res.events) / secs);
    best_packets =
        std::max(best_packets, static_cast<double>(res.packets) / secs);
  }
  return {best_events, best_packets};
}

void RecordParallelCorePoints() {
  static bool recorded = false;
  if (recorded) return;
  recorded = true;
  EnsureSimCoreReport();
  const ParallelModelParams pp;  // 8 partitions x 8 chains
  const std::uint64_t want = RunParallelModel(pp, 0).checksum;  // + warmup
  for (const int workers : {0, 1, 2, 4, 8}) {
    const auto [events_per_s, _] = MeasureParallelPoint(pp, workers, want);
    bench::BenchReport::Instance().Point("sim.parallel_events_per_s",
                                         ParallelPointName(workers),
                                         events_per_s);
  }
}

void BM_SimulatorCoreParallel(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  RecordParallelCorePoints();
  const ParallelModelParams pp;
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += RunParallelModel(pp, workers).events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(ParallelPointName(workers));
}
BENCHMARK(BM_SimulatorCoreParallel)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// 8-GPU all-to-all shuffle with small packets: the transfer engine's
// packet lifecycle (batch formation, ring claims, arrivals, forwards)
// end to end. Returns {packets delivered, events processed}.
struct ShuffleResult {
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
};
ShuffleResult RunShuffleWorkload(const topo::Topology* topo,
                                 bool sampled = false) {
  sim::Simulator s;
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  net::TransferOptions opts;
  opts.packet_bytes = 128 * kKiB;
  opts.ring_buffer_bytes = 4 * kMiB;  // backpressure + ring syncs
  // Sampled variant: full metrics + per-link/per-flow telemetry on a
  // 250 us grid — the same grid the CI bench-smoke job samples on.
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler sampler(250 * sim::kMicrosecond);
  if (sampled) {
    opts.obs.metrics = &metrics;
    opts.obs.telemetry = &sampler;
  }
  net::TransferEngine eng(&s, topo, topo::FirstNGpus(8), policy.get(),
                          opts);
  std::uint64_t id = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a != b) eng.AddFlow(net::Flow{id++, a, b, 4 * kMiB, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  return {eng.stats().packets, s.events_processed()};
}

void RecordShufflePoint(const topo::Topology* topo) {
  static bool recorded = false;
  if (recorded) return;
  recorded = true;
  EnsureSimCoreReport();
  RunShuffleWorkload(topo);  // warmup outside the timing
  double best_packets = 0.0;
  double best_events = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const ShuffleResult res = RunShuffleWorkload(topo);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best_packets =
        std::max(best_packets, static_cast<double>(res.packets) / secs);
    best_events =
        std::max(best_events, static_cast<double>(res.events) / secs);
  }
  bench::BenchReport& r = bench::BenchReport::Instance();
  r.SetTopology(*topo, 8);
  r.Point("net.packets_per_s", "adaptive8", best_packets);
  r.Point("net.events_per_s", "adaptive8", best_events);
}

void BM_TransferEngineShuffle(benchmark::State& state) {
  auto topo = topo::MakeDgx1V();
  RecordShufflePoint(topo.get());
  std::uint64_t packets = 0;
  for (auto _ : state) {
    packets += RunShuffleWorkload(topo.get()).packets;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_TransferEngineShuffle);

void RecordShuffleSampledPoint(const topo::Topology* topo) {
  static bool recorded = false;
  if (recorded) return;
  recorded = true;
  EnsureSimCoreReport();
  RunShuffleWorkload(topo, /*sampled=*/true);  // warmup outside the timing
  double best_packets = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const ShuffleResult res = RunShuffleWorkload(topo, /*sampled=*/true);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best_packets =
        std::max(best_packets, static_cast<double>(res.packets) / secs);
  }
  bench::BenchReport::Instance().Point("net.sampled_packets_per_s",
                                       "adaptive8", best_packets);
}

void BM_TransferEngineShuffleSampled(benchmark::State& state) {
  auto topo = topo::MakeDgx1V();
  RecordShuffleSampledPoint(topo.get());
  std::uint64_t packets = 0;
  for (auto _ : state) {
    packets += RunShuffleWorkload(topo.get(), /*sampled=*/true).packets;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_TransferEngineShuffleSampled);

// Loaded counterpart of BM_AdaptiveRoutingDecision: every ordered DGX-1V
// pair has queued reservations whose delays have been broadcast, so the
// published delays the adaptive policy reads are non-zero, and the batch
// size cycles 1..8 as it does while source queues drain. The rate is
// recorded as net.route_decisions_per_s (wall-clock, warn-only).
struct LoadedFabric {
  std::unique_ptr<topo::Topology> topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links{&s, topo.get()};

  LoadedFabric() {
    for (int a = 0; a < 8; ++a) {
      for (int b = 0; b < 8; ++b) {
        if (a == b) continue;
        links.ReserveChannel(topo->channel(a, b),
                             (1 + (a * 8 + b) % 5) * kMiB);
      }
    }
    s.RunUntil(s.Now() + 5 * sim::kMicrosecond);  // broadcasts land
  }
};

// Decision `i` walks n = 1..8 over all 56 ordered pairs (448 distinct
// inputs). Returns the summed route lengths so the work is observable.
std::uint64_t RunRouteDecisions(net::RoutingPolicy& policy,
                                const LoadedFabric& f, std::uint64_t first,
                                std::uint64_t count) {
  std::uint64_t gpus = 0;
  for (std::uint64_t i = first; i < first + count; ++i) {
    const int src = static_cast<int>(i % 8);
    const int dst = static_cast<int>((src + 1 + (i / 8) % 7) % 8);
    const int n = static_cast<int>(1 + (i / 56) % 8);
    gpus += policy.ChooseRoute(src, dst, 2 * kMiB, n, f.links).gpus.size();
  }
  return gpus;
}

void RecordRouteDecisionPoint() {
  static bool recorded = false;
  if (recorded) return;
  recorded = true;
  EnsureSimCoreReport();
  LoadedFabric f;
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  constexpr std::uint64_t kDecisions = 1 << 18;
  RunRouteDecisions(*policy, f, 0, 448);  // warmup outside the timing
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(RunRouteDecisions(*policy, f, 0, kDecisions));
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, static_cast<double>(kDecisions) / secs);
  }
  bench::BenchReport::Instance().Point("net.route_decisions_per_s",
                                       "adaptive8_loaded", best);
}

void BM_AdaptiveRoutingDecisionLoaded(benchmark::State& state) {
  RecordRouteDecisionPoint();
  LoadedFabric f;
  sim::SimTime published = 0;
  for (int l = 0; l < f.topo->num_links(); ++l) {
    for (int d = 0; d < 2; ++d) {
      published += f.links.PublishedQueueDelay(topo::LinkDir{l, d});
    }
  }
  MGJ_CHECK(published > 0) << "loaded fabric published no queue delay";
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunRouteDecisions(*policy, f, i++, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveRoutingDecisionLoaded);

// Parallel-core counterpart of the 8-GPU shuffle: one partition per
// GPU endpoint, one chain per peer (7 x 8), per-event payload work in
// the range of a packet's bookkeeping, cross-partition packets at
// NVLink-floor latency. Series points cover the serial kCalendar
// reference plus 1/2/4/8 event-loop workers — the ROADMAP item 2
// scaling claim (>= 1.5x events/s at 4 workers) reads off this series.
ParallelModelParams ShuffleModelParams() {
  ParallelModelParams pp;
  pp.parts = 8;
  pp.chains_per_part = 7;  // one chain per shuffle peer
  pp.steps = 1536;
  pp.work = 128;
  return pp;
}

void RecordParallelShufflePoints() {
  static bool recorded = false;
  if (recorded) return;
  recorded = true;
  EnsureSimCoreReport();
  const ParallelModelParams pp = ShuffleModelParams();
  const std::uint64_t want = RunParallelModel(pp, 0).checksum;  // + warmup
  for (const int workers : {0, 1, 2, 4, 8}) {
    const auto [events_per_s, packets_per_s] =
        MeasureParallelPoint(pp, workers, want);
    bench::BenchReport& r = bench::BenchReport::Instance();
    r.Point("net.parallel_events_per_s", ParallelPointName(workers),
            events_per_s);
    r.Point("net.parallel_packets_per_s", ParallelPointName(workers),
            packets_per_s);
  }
}

void BM_TransferEngineShuffleParallel(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  RecordParallelShufflePoints();
  const ParallelModelParams pp = ShuffleModelParams();
  std::uint64_t packets = 0;
  for (auto _ : state) {
    packets += RunParallelModel(pp, workers).packets;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetLabel(ParallelPointName(workers));
}
BENCHMARK(BM_TransferEngineShuffleParallel)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

}  // namespace
}  // namespace mgjoin

BENCHMARK_MAIN();
