#include "traced_join.h"

#include <algorithm>
#include <cmath>

#include "gpusim/kernel_model.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/partition_assignment.h"
#include "join/shuffle.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace mgjoin;

namespace {

// Same rounding as join/mg_join.cc.
std::uint64_t Scale(std::uint64_t n, double s) {
  return static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * s));
}

}  // namespace

// Mirrors join/mg_join.cc step for step; only the host-phase profiler
// and the simulated-time trace recorder are left out, since neither
// feeds the result.
Result<TracedJoin> ExecuteTraced(const join::MgJoin& mg,
                                 const topo::Topology& topo,
                                 const data::DistRelation& r,
                                 const data::DistRelation& s, SpanLog* log,
                                 std::uint64_t op) {
  const join::MgJoinOptions& o = mg.options();
  const std::vector<int>& gpus = mg.gpus();
  const int g = static_cast<int>(gpus.size());
  if (r.num_shards() != g || s.num_shards() != g) {
    return Status::InvalidArgument("relations must have one shard per GPU");
  }
  if (r.domain_bits != s.domain_bits) {
    return Status::InvalidArgument("mismatched key domains");
  }
  const double vs = o.virtual_scale;
  if (vs <= 0) return Status::InvalidArgument("virtual_scale must be > 0");

  const gpusim::KernelModel kernels(o.gpu);
  TracedJoin out;
  join::JoinResult& result = out.result;
  result.input_tuples = r.TotalTuples() + s.TotalTuples();
  result.virtual_input_tuples = Scale(result.input_tuples, vs);

  const int radix_bits = o.radix_bits_override > 0
                             ? o.radix_bits_override
                             : join::RadixBitsFor(o.gpu, r.domain_bits);
  join::HistogramSet hist_r, hist_s;
  {
    ScopedSpan span(log, "join.histogram", op);
    hist_r = join::BuildHistograms(r, radix_bits);
    hist_s = join::BuildHistograms(s, radix_bits);
  }
  sim::SimTime hist_end = 0;
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n = Scale(r.shards[d].size() + s.shards[d].size(), vs);
    hist_end = std::max(hist_end, kernels.HistogramTime(n, data::kTupleBytes));
  }
  result.timing.histogram = hist_end;

  join::AssignmentOptions aopts;
  aopts.strategy = o.assignment;
  aopts.heavy_hitter_factor = o.heavy_hitter_factor;
  aopts.packet_bytes = o.transfer.packet_bytes;
  join::PartitionAssignment assignment;
  {
    ScopedSpan span(log, "join.assignment", op);
    assignment = join::ComputeAssignment(topo, gpus, hist_r, hist_s, aopts);
  }
  out.split_partitions = assignment.split_partitions;

  std::vector<sim::SimTime> gp_time(g, 0);
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n = Scale(r.shards[d].size() + s.shards[d].size(), vs);
    gp_time[d] = kernels.PartitionPassTime(n, data::kTupleBytes);
  }

  join::ShuffleOptions sopts;
  sopts.use_compression = o.use_compression;
  sopts.virtual_scale = vs;
  join::ShuffleResult shuffle;
  {
    ScopedSpan span(log, "join.shuffle", op);
    shuffle =
        join::ShufflePartitions(r, s, radix_bits, assignment, gpus, sopts);
  }
  out.moved_tuples = shuffle.moved_tuples;
  out.compressed_bytes = shuffle.compressed_bytes;
  out.uncompressed_bytes = shuffle.uncompressed_bytes;
  result.shuffled_bytes = Scale(shuffle.compressed_bytes, vs);
  result.uncompressed_bytes = Scale(shuffle.uncompressed_bytes, vs);

  std::vector<int> dense(topo.num_gpus(), -1);
  for (int d = 0; d < g; ++d) dense[gpus[d]] = d;

  // The benchmark clears MGJ_SIM_THREADS, so Execute() runs the serial
  // calendar core; the rebuild pins it.
  sim::Simulator net_sim(sim::QueueKind::kCalendar);
  auto policy = net::MakePolicy(o.policy, o.transfer.max_intermediates);
  net::TransferEngine engine(&net_sim, &topo, gpus, policy.get(), o.transfer);
  std::vector<sim::SimTime> last_arrival(g, 0);
  engine.set_deliver_callback([&](const net::Packet& p, sim::SimTime when) {
    last_arrival[dense[p.final_dst()]] =
        std::max(last_arrival[dense[p.final_dst()]], when);
  });
  for (net::Flow f : shuffle.flows) {
    const int src_dense = dense[f.src_gpu];
    f.tag.query_id = o.query_id;
    f.tag.phase = "shuffle";
    if (o.overlap) {
      f.available_at = hist_end;
      f.generation_rate = static_cast<double>(f.bytes) /
                          std::max(1e-9, sim::ToSeconds(gp_time[src_dense]));
    } else {
      f.available_at = hist_end + gp_time[src_dense];
      f.generation_rate = 0.0;
    }
    engine.AddFlow(f);
  }
  {
    ScopedSpan span(log, "net.run", op);
    engine.Start();
    net_sim.Run();
  }
  if (!engine.AllDone()) return Status::Internal("distribution did not complete");
  out.sim_events = net_sim.events_processed();
  result.net = engine.stats();
  const sim::SimTime dist_end =
      shuffle.flows.empty() ? hist_end : result.net.last_delivery;
  result.timing.distribution = dist_end > hist_end ? dist_end - hist_end : 0;
  result.timing.global_partition =
      *std::max_element(gp_time.begin(), gp_time.end());

  sim::SimTime join_end = hist_end;
  sim::SimTime nodist_end = hist_end;
  sim::SimTime lp_max = 0, probe_max = 0;
  for (int d = 0; d < g; ++d) {
    std::uint64_t pass_tuples = 0;
    std::uint64_t recv_r = 0, recv_s = 0;
    for (std::size_t p = 0; p < shuffle.r_recv[d].size(); ++p) {
      const std::uint64_t rv = Scale(shuffle.r_recv[d][p].size(), vs);
      const std::uint64_t sv = Scale(shuffle.s_recv[d][p].size(), vs);
      recv_r += rv;
      recv_s += sv;
      const std::uint64_t small_side = std::min(rv, sv);
      if (small_side == 0) continue;
      int depth = 0;
      double remaining = static_cast<double>(small_side);
      while (remaining > static_cast<double>(o.local.shared_mem_tuples) &&
             depth < o.local.max_depth) {
        ++depth;
        remaining /= static_cast<double>(1u << o.local.bits_per_pass);
      }
      pass_tuples += (rv + sv) * static_cast<std::uint64_t>(depth);
    }

    join::LocalJoinOptions lopts = o.local;
    lopts.materialize_pairs = o.materialize_pairs;
    join::LocalJoinStats stats;
    {
      ScopedSpan span(log, "join.local", op);
      stats = join::LocalPartitionAndProbe(&shuffle.r_recv[d],
                                           &shuffle.s_recv[d], lopts);
    }
    result.matches += stats.matches;
    result.checksum += stats.checksum;

    const sim::SimTime lp_t =
        kernels.PartitionPassTime(pass_tuples, data::kTupleBytes);
    const sim::SimTime probe_t = kernels.ProbeTime(
        recv_r, recv_s, Scale(stats.matches, vs), data::kTupleBytes);
    lp_max = std::max(lp_max, lp_t);
    probe_max = std::max(probe_max, probe_t);

    sim::SimTime probe_start;
    const sim::SimTime compute_end = hist_end + gp_time[d] + lp_t;
    if (o.overlap) {
      const sim::SimTime residual = kernels.PartitionPassTime(
          o.transfer.packet_bytes / data::kTupleBytes, data::kTupleBytes);
      const sim::SimTime data_end =
          last_arrival[d] == 0 ? compute_end : last_arrival[d] + residual;
      probe_start = std::max(compute_end, data_end);
    } else {
      probe_start = std::max(dist_end, hist_end + gp_time[d]) + lp_t;
    }
    join_end = std::max(join_end, probe_start + probe_t);
    nodist_end = std::max(nodist_end, compute_end + probe_t);
  }
  result.timing.local_partition = lp_max;
  result.timing.probe = probe_max;
  result.timing.total = join_end;
  result.timing.distribution_exposed =
      join_end > nodist_end ? join_end - nodist_end : 0;
  return out;
}

bool SameAsExecute(const join::JoinResult& a, const join::JoinResult& b) {
  const join::JoinBreakdown& x = a.timing;
  const join::JoinBreakdown& y = b.timing;
  const net::TransferStats& n = a.net;
  const net::TransferStats& m = b.net;
  return a.matches == b.matches && a.checksum == b.checksum &&
         a.input_tuples == b.input_tuples &&
         a.virtual_input_tuples == b.virtual_input_tuples &&
         a.shuffled_bytes == b.shuffled_bytes &&
         a.uncompressed_bytes == b.uncompressed_bytes &&
         x.histogram == y.histogram &&
         x.global_partition == y.global_partition &&
         x.distribution == y.distribution &&
         x.distribution_exposed == y.distribution_exposed &&
         x.local_partition == y.local_partition && x.probe == y.probe &&
         x.total == y.total && n.first_available == m.first_available &&
         n.last_delivery == m.last_delivery &&
         n.payload_bytes == m.payload_bytes && n.wire_bytes == m.wire_bytes &&
         n.packets == m.packets && n.packet_hops == m.packet_hops &&
         n.batches == m.batches && n.ring_syncs == m.ring_syncs &&
         n.escapes == m.escapes;
}

}  // namespace perfbench
