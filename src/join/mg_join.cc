#include "join/mg_join.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/wallprof.h"
#include "gpusim/kernel_model.h"
#include "join/histogram.h"
#include "join/shuffle.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace mgjoin::join {

namespace {

// Virtual (paper-scale) tuple count. Rounded, not truncated: at
// non-integer virtual_scale, truncation shaved one tuple/byte off most
// products and the per-GPU sums drifted from the scaled totals.
std::uint64_t Scale(std::uint64_t n, double s) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(n) * s));
}

// Times one host-side execution phase: wall seconds accumulate in the
// global WallProfiler (surfaced as the bench JSON `wall_phases` line)
// and, when metrics are attached, in a `<name>.wall_us` counter. Never
// writes to the trace recorder — traces carry only simulated time and
// must stay byte-identical across thread counts.
class HostPhase {
 public:
  HostPhase(std::string name, obs::MetricsRegistry* metrics)
      : name_(std::move(name)),
        metrics_(metrics),
        start_(std::chrono::steady_clock::now()) {}

  ~HostPhase() {
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    WallProfiler::Global().Add(name_, s);
    if (metrics_ != nullptr) {
      metrics_->counter(name_ + ".wall_us")
          .Add(static_cast<std::uint64_t>(s * 1e6));
    }
  }

  HostPhase(const HostPhase&) = delete;
  HostPhase& operator=(const HostPhase&) = delete;

 private:
  std::string name_;
  obs::MetricsRegistry* metrics_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void PreparedJoin::AdmitFlows(net::TransferEngine* engine,
                              sim::SimTime admit_at, std::uint64_t id_base,
                              std::uint64_t query_id, int priority) const {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::Flow f = flows[i];
    f.id = id_base + i;
    f.priority = priority;
    f.tag.query_id = query_id;
    f.tag.phase = "shuffle";
    const sim::SimTime gp = gp_time[dense[f.src_gpu]];
    if (overlap) {
      // Packets become available as the partition kernel emits them.
      f.available_at = admit_at + hist_end;
      f.generation_rate =
          static_cast<double>(f.bytes) / std::max(1e-9, sim::ToSeconds(gp));
    } else {
      // Bulk transfer after the partition kernel completes.
      f.available_at = admit_at + hist_end + gp;
      f.generation_rate = 0.0;
    }
    engine->AddFlow(f);
  }
}

sim::SimTime PreparedJoin::ProbeStart(int d, sim::SimTime admit_at,
                                      sim::SimTime last_arrival,
                                      sim::SimTime last_delivery) const {
  const sim::SimTime base = admit_at + hist_end;
  if (overlap) {
    // Local partitioning consumes packets as they arrive; the last
    // packet still needs one pass through the local pipeline.
    const sim::SimTime compute_end = base + gp_time[d] + lp_time[d];
    const sim::SimTime data_end =
        last_arrival == 0 ? compute_end : last_arrival + residual;
    return std::max(compute_end, data_end);
  }
  const sim::SimTime dist_end =
      payload_bytes == 0 ? base : std::max(last_delivery, base);
  return std::max(dist_end, base + gp_time[d]) + lp_time[d];
}

sim::SimTime PreparedJoin::CompleteTime(
    sim::SimTime admit_at, const std::vector<sim::SimTime>& last_arrival,
    sim::SimTime last_delivery) const {
  sim::SimTime join_end = admit_at + hist_end;
  for (std::size_t d = 0; d < gp_time.size(); ++d) {
    join_end = std::max(join_end,
                        ProbeStart(static_cast<int>(d), admit_at,
                                   last_arrival[d], last_delivery) +
                            probe_time[d]);
  }
  return join_end;
}

MgJoin::MgJoin(const topo::Topology* topo, std::vector<int> gpus,
               MgJoinOptions options)
    : topo_(topo), gpus_(std::move(gpus)), options_(std::move(options)) {
  MGJ_CHECK(topo_ != nullptr);
  MGJ_CHECK(!gpus_.empty());
  if (options_.local.shared_mem_tuples == 0) {
    options_.local.shared_mem_tuples =
        options_.gpu.SharedMemTuples(data::kTupleBytes);
  }
  if (options_.host_threads > 0) {
    ThreadPool::SetDefaultThreads(
        static_cast<std::size_t>(options_.host_threads));
  }
}

Result<JoinResult> MgJoin::Execute(const data::DistRelation& r,
                                   const data::DistRelation& s) const {
  MGJ_ASSIGN_OR_RETURN(PreparedJoin prepared, Prepare(r, s));
  // Hand the pairs over instead of copying them through Simulate.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs =
      std::move(prepared.pairs);
  prepared.pairs.clear();
  JoinResult result = Simulate(prepared);
  result.pairs = std::move(pairs);
  return result;
}

Result<PreparedJoin> MgJoin::Prepare(const data::DistRelation& r,
                                     const data::DistRelation& s) const {
  const int g = static_cast<int>(gpus_.size());
  if (r.num_shards() != g || s.num_shards() != g) {
    return Status::InvalidArgument("relations must have one shard per GPU");
  }
  if (r.domain_bits != s.domain_bits) {
    return Status::InvalidArgument("mismatched key domains");
  }
  const double vs = options_.virtual_scale;
  if (vs <= 0) return Status::InvalidArgument("virtual_scale must be > 0");

  const gpusim::KernelModel kernels(options_.gpu);
  obs::MetricsRegistry* host_metrics = options_.transfer.obs.metrics;
  PreparedJoin p;
  p.dense.assign(topo_->num_gpus(), -1);
  for (int d = 0; d < g; ++d) p.dense[gpus_[d]] = d;
  p.overlap = options_.overlap;
  p.gp_time.assign(g, 0);
  p.lp_time.assign(g, 0);
  p.probe_time.assign(g, 0);
  p.recv_tuples.assign(g, 0);
  p.input_tuples = r.TotalTuples() + s.TotalTuples();
  p.virtual_input_tuples = Scale(p.input_tuples, vs);

  // ---- Phase 1: histogram generation (all GPUs in parallel; barrier).
  const int radix_bits =
      options_.radix_bits_override > 0
          ? options_.radix_bits_override
          : RadixBitsFor(options_.gpu, r.domain_bits);
  auto timed = [&](const char* name, auto&& fn) {
    HostPhase phase(name, host_metrics);
    return fn();
  };
  HistogramSet hist_r =
      timed("host.histogram", [&] { return BuildHistograms(r, radix_bits); });
  HistogramSet hist_s =
      timed("host.histogram", [&] { return BuildHistograms(s, radix_bits); });
  // Phase 1 ends at the slowest GPU's histogram; phase 2b, the partition
  // kernel, then runs per GPU over the same tuples.
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n =
        Scale(r.shards[d].size() + s.shards[d].size(), vs);
    p.hist_end =
        std::max(p.hist_end, kernels.HistogramTime(n, data::kTupleBytes));
    p.gp_time[d] = kernels.PartitionPassTime(n, data::kTupleBytes);
  }

  // ---- Phase 2a: partition assignment. In MG-Join it overlaps the
  // partition kernel (modification 1); baselines without a histogram
  // use round-robin, which costs nothing either.
  AssignmentOptions aopts;
  aopts.strategy = options_.assignment;
  aopts.heavy_hitter_factor = options_.heavy_hitter_factor;
  aopts.packet_bytes = options_.transfer.packet_bytes;
  const PartitionAssignment assignment =
      ComputeAssignment(*topo_, gpus_, hist_r, hist_s, aopts);
  // Nothing reads the histograms after the assignment; free them before
  // the shuffle allocates its buffers.
  hist_r = {};
  hist_s = {};

  // ---- Phase 2c: functional shuffle; its network timing is Simulate's.
  ShuffleOptions sopts;
  sopts.use_compression = options_.use_compression;
  sopts.virtual_scale = vs;
  ShuffleResult shuffle = timed("host.shuffle", [&] {
    return ShufflePartitions(r, s, radix_bits, assignment, gpus_, sopts);
  });
  p.shuffled_bytes = Scale(shuffle.compressed_bytes, vs);
  p.uncompressed_bytes = Scale(shuffle.uncompressed_bytes, vs);
  p.flows = std::move(shuffle.flows);
  for (const net::Flow& f : p.flows) p.payload_bytes += f.bytes;

  // ---- Phase 3 + 4: local partitioning and probe, per GPU.
  HostPhase local_phase("host.local_join", host_metrics);
  for (int d = 0; d < g; ++d) {
    // Cost model inputs come from the *virtual* partition sizes; the
    // recursion depth a partition needs grows with the scaled size.
    std::uint64_t pass_tuples = 0;
    std::uint64_t recv_r = 0, recv_s = 0;
    for (std::size_t part = 0; part < shuffle.r_recv[d].size(); ++part) {
      const std::uint64_t rv = Scale(shuffle.r_recv[d][part].size(), vs);
      const std::uint64_t sv = Scale(shuffle.s_recv[d][part].size(), vs);
      recv_r += rv;
      recv_s += sv;
      const std::uint64_t small_side = std::min(rv, sv);
      if (small_side == 0) continue;
      int depth = 0;
      double remaining = static_cast<double>(small_side);
      while (remaining > static_cast<double>(
                             options_.local.shared_mem_tuples) &&
             depth < options_.local.max_depth) {
        ++depth;
        remaining /= static_cast<double>(1u << options_.local.bits_per_pass);
      }
      pass_tuples += (rv + sv) * static_cast<std::uint64_t>(depth);
    }

    // Functional local join; the received buffers are released after.
    LocalJoinOptions lopts = options_.local;
    lopts.materialize_pairs = options_.materialize_pairs;
    LocalJoinStats stats = LocalPartitionAndProbe(
        &shuffle.r_recv[d], &shuffle.s_recv[d], lopts);
    shuffle.r_recv[d] = {};
    shuffle.s_recv[d] = {};
    p.matches += stats.matches;
    p.checksum += stats.checksum;
    if (options_.materialize_pairs) {
      p.pairs.insert(p.pairs.end(), stats.pairs.begin(), stats.pairs.end());
    }
    p.lp_time[d] = kernels.PartitionPassTime(pass_tuples, data::kTupleBytes);
    p.probe_time[d] = kernels.ProbeTime(
        recv_r, recv_s, Scale(stats.matches, vs), data::kTupleBytes);
    p.recv_tuples[d] = recv_r + recv_s;
  }
  p.residual = kernels.PartitionPassTime(
      options_.transfer.packet_bytes / data::kTupleBytes, data::kTupleBytes);
  return p;
}

JoinResult MgJoin::Simulate(const PreparedJoin& p) const {
  const int g = static_cast<int>(gpus_.size());
  MGJ_CHECK(static_cast<int>(p.gp_time.size()) == g)
      << "prepared on a different GPU set";
  JoinResult result;
  result.matches = p.matches;
  result.checksum = p.checksum;
  result.pairs = p.pairs;
  result.input_tuples = p.input_tuples;
  result.virtual_input_tuples = p.virtual_input_tuples;
  result.shuffled_bytes = p.shuffled_bytes;
  result.uncompressed_bytes = p.uncompressed_bytes;
  const sim::SimTime hist_end = p.hist_end;
  result.timing.histogram = hist_end;
  result.timing.global_partition =
      *std::max_element(p.gp_time.begin(), p.gp_time.end());
  result.timing.local_partition =
      *std::max_element(p.lp_time.begin(), p.lp_time.end());
  result.timing.probe =
      *std::max_element(p.probe_time.begin(), p.probe_time.end());

  // ---- Phase 2c: data distribution on the simulated network.
  sim::Simulator net_sim;
  auto policy = net::MakePolicy(options_.policy,
                                options_.transfer.max_intermediates);
  net::TransferEngine engine(&net_sim, topo_, gpus_, policy.get(),
                             options_.transfer);
  std::vector<sim::SimTime> last_arrival(g, 0);
  engine.set_deliver_callback(
      [&](const net::Packet& pkt, sim::SimTime when) {
        sim::SimTime& at = last_arrival[p.dense[pkt.final_dst()]];
        at = std::max(at, when);
      });
  p.AdmitFlows(&engine, 0, 0, options_.query_id, 0);
  {
    HostPhase net_phase("host.network_sim", options_.transfer.obs.metrics);
    engine.Start();
    net_sim.Run();
  }
  MGJ_CHECK(engine.AllDone()) << "distribution did not complete";
  result.net = engine.stats();
  const sim::SimTime dist_end =
      p.flows.empty() ? hist_end : result.net.last_delivery;
  result.timing.distribution =
      dist_end > hist_end ? dist_end - hist_end : 0;

  // Join-phase spans share the engine's trace so the fabric activity can
  // be read against the phase it serves.
  obs::TraceRecorder* tr = options_.transfer.obs.trace;
  if (tr != nullptr) {
    const int phases = tr->Track("join.phases");
    tr->Span(phases, "join", "histogram", 0, hist_end);
    tr->Span(phases, "join", "distribution", hist_end, dist_end,
             {{"payload_bytes", result.net.payload_bytes},
              {"wire_bytes", result.net.wire_bytes}});
    for (int d = 0; d < g; ++d) {
      tr->Span(tr->Track("join.gpu" + std::to_string(gpus_[d])), "join",
               "global_partition", hist_end, hist_end + p.gp_time[d]);
    }
    // The GPU set's min-cut bisection bandwidth, so achieved-vs-peak
    // utilization can be computed from the trace alone (report
    // pipeline's congestion analysis).
    const auto cut = topo_->MinBisectionCut(gpus_);
    tr->Instant(tr->Track("net.info"), "net", "bisection", 0,
                {{"bps", static_cast<std::uint64_t>(cut.bandwidth)}});
  }

  // ---- Phase 3 + 4: the per-GPU completion chain.
  sim::SimTime nodist_end = hist_end;  // hypothetical zero-cost network
  for (int d = 0; d < g; ++d) {
    nodist_end = std::max(
        nodist_end, hist_end + p.gp_time[d] + p.lp_time[d] + p.probe_time[d]);
    if (tr != nullptr) {
      const sim::SimTime probe_start =
          p.ProbeStart(d, 0, last_arrival[d], result.net.last_delivery);
      const int track = tr->Track("join.gpu" + std::to_string(gpus_[d]));
      // Without overlap the local partition really runs only after the
      // whole distribution lands; place the span at its true interval
      // so critical-path attribution charges the wait to the network.
      const sim::SimTime lp_begin = p.overlap ? hist_end + p.gp_time[d]
                                              : probe_start - p.lp_time[d];
      tr->Span(track, "join", "local_partition", lp_begin,
               lp_begin + p.lp_time[d]);
      tr->Span(track, "join", "probe", probe_start,
               probe_start + p.probe_time[d],
               {{"recv_tuples", p.recv_tuples[d]}});
    }
  }
  const sim::SimTime join_end =
      p.CompleteTime(0, last_arrival, result.net.last_delivery);
  result.timing.total = join_end;
  result.timing.distribution_exposed =
      join_end > nodist_end ? join_end - nodist_end : 0;
  if (tr != nullptr) {
    tr->Span(tr->Track("join.phases"), "join", "join_total", 0, join_end,
             {{"matches", result.matches},
              {"input_tuples", result.input_tuples}});
  }
  return result;
}

}  // namespace mgjoin::join
