// Tests for the join layer: histograms, partition assignment, shuffle,
// local join, and the full MG-Join / DPRJ / UMJ executors. Functional
// results are verified against the reference join across parameterized
// sweeps; timing invariants check the phase model.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "common/bitutil.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "data/compression.h"
#include "data/generator.h"
#include "gpusim/kernel_model.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "join/partition_assignment.h"
#include "join/shuffle.h"
#include "join/umj.h"
#include "obs/trace.h"
#include "topo/presets.h"

namespace mgjoin::join {
namespace {

using data::GenOptions;
using data::MakeJoinInput;

TEST(GpuSpecTest, Equation1MatchesPaper) {
  // V100, 4-byte entries, two thread blocks per SM -> 4,096 partitions.
  EXPECT_EQ(gpusim::GpuSpec::V100().MaxPartitions(), 4096u);
  EXPECT_EQ(RadixBitsFor(gpusim::GpuSpec::V100(), 32), 12);
  // Narrow key domains cap the radix width.
  EXPECT_EQ(RadixBitsFor(gpusim::GpuSpec::V100(), 8), 8);
}

TEST(HistogramTest, CountsSumToShardSizes) {
  GenOptions opts;
  opts.tuples_per_relation = 50000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet h = BuildHistograms(r, 10);
  EXPECT_EQ(h.num_partitions(), 1024u);
  for (int g = 0; g < 4; ++g) {
    const std::uint64_t sum =
        std::accumulate(h.counts[g].begin(), h.counts[g].end(), 0ull);
    EXPECT_EQ(sum, r.shards[g].size());
  }
}

TEST(HistogramTest, UniformKeysFillPartitionsEvenly) {
  GenOptions opts;
  opts.tuples_per_relation = 1 << 18;
  opts.num_gpus = 1;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet h = BuildHistograms(r, 8);
  const double expected = static_cast<double>(r.TotalTuples()) / 256.0;
  for (std::uint32_t p = 0; p < 256; ++p) {
    EXPECT_NEAR(static_cast<double>(h.PartitionTotal(p)), expected,
                expected * 0.05);
  }
}

class AssignmentTest : public ::testing::Test {
 protected:
  AssignmentTest() : topo_(topo::MakeDgx1V()) {}
  std::unique_ptr<topo::Topology> topo_;
};

TEST_F(AssignmentTest, PairwiseCostsFavorNvLink) {
  const auto cost = PairwiseCosts(*topo_, topo::FirstNGpus(8), 2 * kMiB);
  // NV2 pair cheaper than NV1 pair; NVLink cheaper than cross-socket.
  EXPECT_LT(cost[0][3], cost[0][1]);
  EXPECT_LT(cost[0][1], cost[0][7] + 1e-18);
  for (int a = 0; a < 8; ++a) EXPECT_EQ(cost[a][a], 0.0);
}

TEST_F(AssignmentTest, RoundRobinCyclesOwners) {
  GenOptions opts;
  opts.tuples_per_relation = 10000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet hr = BuildHistograms(r, 6);
  const HistogramSet hs = BuildHistograms(s, 6);
  AssignmentOptions ao;
  ao.strategy = AssignmentStrategy::kRoundRobin;
  const auto pa =
      ComputeAssignment(*topo_, topo::FirstNGpus(4), hr, hs, ao);
  for (std::uint32_t p = 0; p < 64; ++p) {
    EXPECT_EQ(pa.owners[p], std::vector<int>{static_cast<int>(p % 4)});
  }
}

TEST_F(AssignmentTest, NetworkOptimalAssignsEveryPartition) {
  GenOptions opts;
  opts.tuples_per_relation = 200000;
  opts.num_gpus = 8;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet hr = BuildHistograms(r, 10);
  const HistogramSet hs = BuildHistograms(s, 10);
  const auto pa = ComputeAssignment(*topo_, topo::FirstNGpus(8), hr, hs,
                                    AssignmentOptions{});
  std::vector<std::uint64_t> load(8, 0);
  for (std::uint32_t p = 0; p < 1024; ++p) {
    ASSERT_FALSE(pa.owners[p].empty());
    for (int o : pa.owners[p]) {
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 8);
      load[o] += hr.PartitionTotal(p) + hs.PartitionTotal(p);
    }
  }
  // Uniform data: no GPU should be starved of partitions entirely.
  for (int g = 0; g < 8; ++g) EXPECT_GT(load[g], 0u);
}

TEST_F(AssignmentTest, HeavyHittersSplitUnderKeySkew) {
  GenOptions opts;
  opts.tuples_per_relation = 1 << 18;
  opts.num_gpus = 8;
  opts.key_zipf = 1.0;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet hr = BuildHistograms(r, 10);
  const HistogramSet hs = BuildHistograms(s, 10);
  const auto pa = ComputeAssignment(*topo_, topo::FirstNGpus(8), hr, hs,
                                    AssignmentOptions{});
  EXPECT_GT(pa.split_partitions, 0u)
      << "zipf-1 data should trigger heavy-hitter splitting";
  for (std::uint32_t p = 0; p < 1024; ++p) {
    if (pa.IsSplit(p)) {
      // The broadcast side must be the smaller relation.
      std::uint64_t rt = hr.PartitionTotal(p), st = hs.PartitionTotal(p);
      if (pa.split_broadcast_r[p]) {
        EXPECT_LE(rt, st);
      } else {
        EXPECT_LE(st, rt);
      }
    }
  }
}

TEST(ShuffleTest, EveryTupleLandsAtItsOwner) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 30000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  const int radix_bits = 6;
  const HistogramSet hr = BuildHistograms(r, radix_bits);
  const HistogramSet hs = BuildHistograms(s, radix_bits);
  const auto pa = ComputeAssignment(*topo, topo::FirstNGpus(4), hr, hs,
                                    AssignmentOptions{});
  const auto res = ShufflePartitions(r, s, radix_bits, pa,
                                     topo::FirstNGpus(4), ShuffleOptions{});
  std::uint64_t recv_total = 0;
  for (int d = 0; d < 4; ++d) {
    for (std::uint32_t p = 0; p < 64; ++p) {
      // A GPU only holds partitions it owns.
      if (!res.r_recv[d][p].empty() || !res.s_recv[d][p].empty()) {
        const auto& owners = pa.owners[p];
        EXPECT_TRUE(std::find(owners.begin(), owners.end(), d) !=
                    owners.end())
            << "partition " << p << " at non-owner " << d;
      }
      for (const data::Tuple& t : res.r_recv[d][p]) {
        EXPECT_EQ(data::RadixPartition(t.key, r.domain_bits, radix_bits), p);
      }
      recv_total += res.r_recv[d][p].size();
    }
  }
  // Unique-key R with single-owner partitions: conserved exactly.
  EXPECT_EQ(recv_total, r.TotalTuples());
}

TEST(ShuffleTest, CompressionShrinksFlows) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 100000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet hr = BuildHistograms(r, 8);
  const HistogramSet hs = BuildHistograms(s, 8);
  const auto pa = ComputeAssignment(*topo, topo::FirstNGpus(4), hr, hs,
                                    AssignmentOptions{});
  ShuffleOptions with, without;
  without.use_compression = false;
  const auto c = ShufflePartitions(r, s, 8, pa, topo::FirstNGpus(4), with);
  const auto u =
      ShufflePartitions(r, s, 8, pa, topo::FirstNGpus(4), without);
  EXPECT_LT(c.compressed_bytes, u.compressed_bytes);
  EXPECT_EQ(c.uncompressed_bytes, u.uncompressed_bytes);
  const double ratio = static_cast<double>(c.uncompressed_bytes) /
                       static_cast<double>(c.compressed_bytes);
  EXPECT_GT(ratio, 1.2);  // paper: 1.3x-2x
  EXPECT_LT(ratio, 3.0);
}

TEST(ShuffleTest, VirtualScaleMultipliesFlowBytes) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 20000;
  opts.num_gpus = 2;
  auto [r, s] = MakeJoinInput(opts);
  const HistogramSet hr = BuildHistograms(r, 6);
  const HistogramSet hs = BuildHistograms(s, 6);
  const auto pa = ComputeAssignment(*topo, topo::FirstNGpus(2), hr, hs,
                                    AssignmentOptions{});
  // Disable compression: its estimate is itself scale-aware (wider
  // virtual domains pack worse), so only raw flows scale exactly.
  ShuffleOptions one, hundred;
  one.use_compression = false;
  hundred.use_compression = false;
  hundred.virtual_scale = 100.0;
  const auto a = ShufflePartitions(r, s, 6, pa, topo::FirstNGpus(2), one);
  const auto b =
      ShufflePartitions(r, s, 6, pa, topo::FirstNGpus(2), hundred);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(b.flows[i].bytes, a.flows[i].bytes * 100);
  }
}

// The shuffle as first written, kept only as the oracle: each source
// buckets its shard with push_back, then partitions are appended to
// their destinations source by source.
struct ReferenceShuffle {
  std::vector<std::vector<std::vector<data::Tuple>>> r_recv, s_recv;
  std::vector<net::Flow> flows;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;
  std::uint64_t moved_tuples = 0;
};

ReferenceShuffle StableBucketShuffle(const data::DistRelation& r,
                                     const data::DistRelation& s,
                                     int radix_bits,
                                     const PartitionAssignment& pa,
                                     const std::vector<int>& gpus,
                                     const ShuffleOptions& opts) {
  const int g = static_cast<int>(gpus.size());
  const std::uint32_t parts = 1u << radix_bits;
  const int extra_bits = Log2Ceil(static_cast<std::uint64_t>(
      opts.virtual_scale < 1.0 ? 1.0 : opts.virtual_scale));
  ReferenceShuffle out;
  out.r_recv.assign(g, std::vector<std::vector<data::Tuple>>(parts));
  out.s_recv.assign(g, std::vector<std::vector<data::Tuple>>(parts));
  std::vector<std::vector<std::uint64_t>> flow_bytes(
      g, std::vector<std::uint64_t>(g, 0));
  for (const bool is_r : {true, false}) {
    const data::DistRelation& rel = is_r ? r : s;
    auto& recv = is_r ? out.r_recv : out.s_recv;
    for (int src = 0; src < g; ++src) {
      std::vector<std::vector<data::Tuple>> buckets(parts);
      for (const data::Tuple& t : rel.shards[src]) {
        buckets[data::RadixPartition(t.key, rel.domain_bits, radix_bits)]
            .push_back(t);
      }
      for (std::uint32_t p = 0; p < parts; ++p) {
        const auto& bucket = buckets[p];
        if (bucket.empty()) continue;
        const auto& owners = pa.owners[p];
        std::vector<int> dests{owners[0]};
        if (owners.size() > 1) {
          dests = pa.split_broadcast_r[p] == is_r ? owners
                                                   : std::vector<int>{src};
        }
        const std::uint64_t raw = bucket.size() * data::kTupleBytes;
        std::uint64_t wire = raw;
        if (opts.use_compression) {
          wire = std::min(raw, data::EstimateCompressedBytes(
                                   bucket.data(), bucket.size(),
                                   rel.domain_bits, radix_bits, extra_bits));
        }
        for (int dst : dests) {
          if (dst != src) {
            flow_bytes[src][dst] += wire;
            out.compressed_bytes += wire;
            out.uncompressed_bytes += raw;
            out.moved_tuples += bucket.size();
          }
          auto& target = recv[dst][p];
          target.insert(target.end(), bucket.begin(), bucket.end());
        }
      }
    }
  }
  for (int src = 0; src < g; ++src) {
    for (int dst = 0; dst < g; ++dst) {
      if (flow_bytes[src][dst] == 0) continue;
      net::Flow f;
      f.id = out.flows.size();
      f.src_gpu = gpus[src];
      f.dst_gpu = gpus[dst];
      f.bytes = static_cast<std::uint64_t>(
          static_cast<double>(flow_bytes[src][dst]) * opts.virtual_scale);
      out.flows.push_back(f);
    }
  }
  return out;
}

TEST(ShuffleTest, ShuffleMatchesStableBucketReference) {
  auto topo = topo::MakeDgx1V();
  const std::vector<int> gpus = topo::FirstNGpus(8);
  GenOptions gen;
  gen.tuples_per_relation = 1 << 16;
  gen.num_gpus = 8;
  gen.key_zipf = 1.0;
  gen.placement_zipf = 0.5;
  auto [r, s] = MakeJoinInput(gen);
  const int radix_bits = 10;
  const HistogramSet hr = BuildHistograms(r, radix_bits);
  const HistogramSet hs = BuildHistograms(s, radix_bits);
  AssignmentOptions network, round_robin;
  round_robin.strategy = AssignmentStrategy::kRoundRobin;
  for (const AssignmentOptions& ao : {network, round_robin}) {
    const auto pa = ComputeAssignment(*topo, gpus, hr, hs, ao);
    if (ao.strategy == AssignmentStrategy::kNetworkOptimal) {
      ASSERT_GT(pa.split_partitions, 0u) << "no broadcast path exercised";
    }
    for (const bool compress : {true, false}) {
      for (const double scale : {1.0, 256.0}) {
        ShuffleOptions so;
        so.use_compression = compress;
        so.virtual_scale = scale;
        const ReferenceShuffle want =
            StableBucketShuffle(r, s, radix_bits, pa, gpus, so);
        for (const std::size_t threads : {1u, 2u, 8u}) {
          ThreadPool::SetDefaultThreads(threads);
          const ShuffleResult got =
              ShufflePartitions(r, s, radix_bits, pa, gpus, so);
          const std::string where =
              "strategy " + std::to_string(static_cast<int>(ao.strategy)) +
              " compress " + std::to_string(compress) + " scale " +
              std::to_string(scale) + " threads " + std::to_string(threads);
          ASSERT_EQ(got.r_recv.size(), 8u) << where;
          ASSERT_EQ(got.s_recv.size(), 8u) << where;
          for (int d = 0; d < 8; ++d) {
            ASSERT_EQ(got.r_recv[d].size(), 1u << radix_bits) << where;
            ASSERT_EQ(got.s_recv[d].size(), 1u << radix_bits) << where;
            for (std::uint32_t p = 0; p < (1u << radix_bits); ++p) {
              const auto rs = got.r_recv[d][p], ss = got.s_recv[d][p];
              ASSERT_TRUE(std::equal(rs.begin(), rs.end(),
                                     want.r_recv[d][p].begin(),
                                     want.r_recv[d][p].end()))
                  << where << " R at gpu " << d << " partition " << p;
              ASSERT_TRUE(std::equal(ss.begin(), ss.end(),
                                     want.s_recv[d][p].begin(),
                                     want.s_recv[d][p].end()))
                  << where << " S at gpu " << d << " partition " << p;
            }
          }
          ASSERT_EQ(got.flows.size(), want.flows.size()) << where;
          for (std::size_t i = 0; i < got.flows.size(); ++i) {
            EXPECT_EQ(got.flows[i].id, want.flows[i].id) << where;
            EXPECT_EQ(got.flows[i].src_gpu, want.flows[i].src_gpu) << where;
            EXPECT_EQ(got.flows[i].dst_gpu, want.flows[i].dst_gpu) << where;
            EXPECT_EQ(got.flows[i].bytes, want.flows[i].bytes) << where;
          }
          EXPECT_EQ(got.compressed_bytes, want.compressed_bytes) << where;
          EXPECT_EQ(got.uncompressed_bytes, want.uncompressed_bytes)
              << where;
          EXPECT_EQ(got.moved_tuples, want.moved_tuples) << where;
        }
      }
    }
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(ShuffleDeathTest, RejectsMismatchedKeyDomains) {
  // Wire bytes of both relations are estimated at R's key width, which
  // is only right when the domains match. Threadsafe style: a forked
  // child has no pool workers, so a ParallelFor in it could hang.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 4096;
  opts.num_gpus = 2;
  auto [r, s] = MakeJoinInput(opts);
  const auto pa = ComputeAssignment(*topo, topo::FirstNGpus(2),
                                    BuildHistograms(r, 6),
                                    BuildHistograms(s, 6),
                                    AssignmentOptions{});
  s.domain_bits = r.domain_bits + 1;
  EXPECT_DEATH(ShufflePartitions(r, s, 6, pa, topo::FirstNGpus(2),
                                 ShuffleOptions{}),
               "domain_bits");
}

TEST(LocalJoinTest, MatchesReferenceOnSkewedData) {
  GenOptions opts;
  opts.tuples_per_relation = 50000;
  opts.num_gpus = 1;
  opts.key_zipf = 1.2;  // heavy duplicate keys stress the recursion cap
  auto [r, s] = MakeJoinInput(opts);
  const LocalJoinStats ref = ReferenceJoin(r, s);

  const PartitionedTuples rp({r.shards[0]});
  const PartitionedTuples sp({s.shards[0]});
  LocalJoinOptions lo;
  lo.shared_mem_tuples = 512;
  const LocalJoinStats out = LocalPartitionAndProbe(&rp, &sp, lo);
  EXPECT_EQ(out.matches, ref.matches);
  EXPECT_EQ(out.checksum, ref.checksum);
  EXPECT_GT(out.max_depth, 0);
}

TEST(LocalJoinTest, NestedLoopProbeMatchesHashProbe) {
  GenOptions opts;
  opts.tuples_per_relation = 20000;
  opts.num_gpus = 1;
  opts.key_zipf = 0.7;
  auto [r, s] = MakeJoinInput(opts);
  LocalJoinOptions hash, nl;
  hash.shared_mem_tuples = nl.shared_mem_tuples = 256;
  nl.probe = ProbeAlgorithm::kNestedLoop;
  const PartitionedTuples rp({r.shards[0]}), sp({s.shards[0]});
  const LocalJoinStats a = LocalPartitionAndProbe(&rp, &sp, hash);
  const LocalJoinStats b = LocalPartitionAndProbe(&rp, &sp, nl);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(LocalJoinTest, EmptySidesProduceNothing) {
  std::vector<std::vector<data::Tuple>> r_parts(4), s_parts(4);
  r_parts[1] = {{1, 1}, {2, 2}};
  const PartitionedTuples rp(r_parts), sp(s_parts);
  const LocalJoinStats out = LocalPartitionAndProbe(&rp, &sp, {});
  EXPECT_EQ(out.matches, 0u);
}

// ---------------------------------------------------------------------------
// Full executors, verified against the reference join.

struct ExecCase {
  int num_gpus;
  std::uint64_t tuples;
  double key_zipf;
  double placement_zipf;
};

class MgJoinExecTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(MgJoinExecTest, MatchesReference) {
  const ExecCase c = GetParam();
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = c.tuples;
  opts.num_gpus = c.num_gpus;
  opts.key_zipf = c.key_zipf;
  opts.placement_zipf = c.placement_zipf;
  auto [r, s] = MakeJoinInput(opts);
  const LocalJoinStats ref = ReferenceJoin(r, s);

  MgJoin join(topo.get(), topo::FirstNGpus(c.num_gpus), MgJoinOptions{});
  auto res = join.Execute(r, s);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().matches, ref.matches);
  EXPECT_EQ(res.value().checksum, ref.checksum);
  EXPECT_GT(res.value().timing.total, 0u);
  if (c.key_zipf == 0) {
    EXPECT_EQ(res.value().matches, c.tuples);  // 100% selectivity
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, MgJoinExecTest,
    ::testing::Values(ExecCase{1, 40000, 0, 0}, ExecCase{2, 60000, 0, 0},
                      ExecCase{4, 100000, 0, 0}, ExecCase{8, 200000, 0, 0},
                      ExecCase{8, 100000, 0.8, 0},
                      ExecCase{8, 100000, 0, 1.0},
                      ExecCase{8, 100000, 1.0, 0.75},
                      ExecCase{3, 50000, 0.5, 0.5},
                      ExecCase{5, 70000, 0, 0.25}));

TEST(MgJoinTest, DprjMatchesReferenceToo) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 100000;
  opts.num_gpus = 8;
  auto [r, s] = MakeJoinInput(opts);
  const LocalJoinStats ref = ReferenceJoin(r, s);
  MgJoin dprj(topo.get(), topo::FirstNGpus(8), MgJoinOptions::Dprj());
  auto res = dprj.Execute(r, s);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().matches, ref.matches);
  EXPECT_EQ(res.value().checksum, ref.checksum);
}

// Execute is exactly Prepare followed by Simulate, and a PreparedJoin
// is immutable: simulating it again gives the same join.
void ExpectSameJoin(const JoinResult& a, const JoinResult& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.input_tuples, b.input_tuples);
  EXPECT_EQ(a.virtual_input_tuples, b.virtual_input_tuples);
  EXPECT_EQ(a.shuffled_bytes, b.shuffled_bytes);
  EXPECT_EQ(a.uncompressed_bytes, b.uncompressed_bytes);
  EXPECT_TRUE(a.timing == b.timing);
  EXPECT_TRUE(a.net == b.net);
  EXPECT_TRUE(a.pairs == b.pairs);
}

TEST(MgJoinTest, ExecuteIsPrepareThenSimulate) {
  auto topo = topo::MakeDgx1V();
  const auto gpus = topo::FirstNGpus(8);
  GenOptions gen;
  gen.tuples_per_relation = 1 << 15;
  gen.num_gpus = 8;
  gen.key_zipf = 0.5;
  auto [r, s] = MakeJoinInput(gen);

  MgJoinOptions no_overlap;
  no_overlap.overlap = false;
  MgJoinOptions dprj_overlap = MgJoinOptions::Dprj();
  dprj_overlap.overlap = true;
  MgJoinOptions pairs;
  pairs.materialize_pairs = true;
  const std::vector<std::pair<const char*, MgJoinOptions>> cases = {
      {"mg-join", MgJoinOptions{}},
      {"dprj", MgJoinOptions::Dprj()},
      {"mg-join no overlap", no_overlap},
      {"dprj overlap", dprj_overlap},
      {"materialize pairs", pairs}};
  for (auto [name, opts] : cases) {
    SCOPED_TRACE(name);
    opts.virtual_scale = 64.0;  // long enough for the network to matter
    obs::TraceRecorder exec_trace, split_trace;
    opts.transfer.obs.trace = &exec_trace;
    const JoinResult exec =
        MgJoin(topo.get(), gpus, opts).Execute(r, s).ValueOrDie();
    opts.transfer.obs.trace = &split_trace;
    const MgJoin split(topo.get(), gpus, opts);
    const PreparedJoin prepared = split.Prepare(r, s).ValueOrDie();
    const JoinResult first = split.Simulate(prepared);
    ExpectSameJoin(exec, first);
    EXPECT_EQ(exec_trace.ToJson(), split_trace.ToJson());
    EXPECT_GT(exec.net.packets, 0u);
    EXPECT_EQ(exec.pairs.size(), opts.materialize_pairs ? exec.matches : 0);
    ExpectSameJoin(split.Simulate(prepared), first);
  }
}

// FNV-1a over every field of a PreparedJoin: the flows with their ids,
// endpoints and bytes, the kernel-model times, the functional result
// and the byte counts.
std::uint64_t DigestPrepared(const PreparedJoin& p) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  const auto mix_all = [&mix](const auto& values) {
    mix(values.size());
    for (const auto v : values) mix(static_cast<std::uint64_t>(v));
  };
  mix_all(p.dense);
  mix(p.overlap);
  mix(p.flows.size());
  for (const net::Flow& f : p.flows) {
    mix(f.id);
    mix(static_cast<std::uint64_t>(f.src_gpu));
    mix(static_cast<std::uint64_t>(f.dst_gpu));
    mix(f.bytes);
  }
  mix(p.payload_bytes);
  mix(p.hist_end);
  mix_all(p.gp_time);
  mix_all(p.lp_time);
  mix_all(p.probe_time);
  mix_all(p.recv_tuples);
  mix(p.residual);
  mix(p.matches);
  mix(p.checksum);
  mix(p.pairs.size());
  for (const auto& [r_id, s_id] : p.pairs) {
    mix(r_id);
    mix(s_id);
  }
  mix(p.input_tuples);
  mix(p.virtual_input_tuples);
  mix(p.shuffled_bytes);
  mix(p.uncompressed_bytes);
  return h;
}

TEST(MgJoinTest, PrepareMatchesPinnedHashes) {
  // Everything Prepare hands the timing layer is part of the contract:
  // the simulated results and the committed bench baselines depend on
  // the exact flows, kernel times and results. The hashes were taken
  // before the shuffle's counters and offsets were narrowed to 32 bits.
  struct Pinned {
    int gpus;
    std::uint64_t tuples_per_gpu;
    double key_zipf;
    double placement_zipf;
    bool compression;
    double virtual_scale;
    bool pairs;
    std::uint64_t hash;
  };
  const Pinned kPinned[] = {
      {8, 8192, 0.0, 0.0, true, 1, false, 0xd91774301fabae2cull},
      {8, 8192, 0.0, 0.0, true, 256, false, 0x73cd41c427e6cc3bull},
      {8, 8192, 0.0, 0.0, false, 1, false, 0x16eb236806011511ull},
      {8, 8192, 0.0, 0.0, false, 256, false, 0x441260d3f534ac3bull},
      {8, 8192, 0.0, 0.5, true, 1, false, 0x8be93cccebd5b170ull},
      {8, 8192, 0.0, 0.5, true, 256, false, 0x3d65fbc1826f79dbull},
      {8, 8192, 0.0, 0.5, false, 1, false, 0xba7aa7060294b1a1ull},
      {8, 8192, 0.0, 0.5, false, 256, false, 0xeae25cbf48f695dbull},
      {8, 8192, 1.0, 0.0, true, 1, false, 0xb846e03cd888bfb6ull},
      {8, 8192, 1.0, 0.0, true, 256, false, 0xec6b7edacb264522ull},
      {8, 8192, 1.0, 0.0, false, 1, false, 0x971a4478a036853full},
      {8, 8192, 1.0, 0.0, false, 256, false, 0x81cdf66b8941a222ull},
      {8, 8192, 1.0, 0.5, true, 1, false, 0xe4abaf9b1888d5aull},
      {8, 8192, 1.0, 0.5, true, 256, false, 0x3f94abf8996a1354ull},
      {8, 8192, 1.0, 0.5, false, 1, false, 0xa3740c4b0dae8ccfull},
      {8, 8192, 1.0, 0.5, false, 256, false, 0xf563ce6198c67254ull},
      {8, 65536, 0.0, 0.0, true, 1, false, 0xa0eae70ff35a75c0ull},
      {8, 65536, 0.0, 0.0, true, 256, false, 0x2dbeb1ce67e86c7ull},
      {8, 65536, 0.0, 0.0, false, 1, false, 0xea04c0eeac46949ull},
      {8, 65536, 0.0, 0.0, false, 256, false, 0xa8f8f1cc6afaac7ull},
      {8, 65536, 0.0, 0.5, true, 1, false, 0x85ca62fab0400b9aull},
      {8, 65536, 0.0, 0.5, true, 256, false, 0x7f61f66989ced065ull},
      {8, 65536, 0.0, 0.5, false, 1, false, 0xcbebc56f99e0da9ull},
      {8, 65536, 0.0, 0.5, false, 256, false, 0xa2b4367a59a56e65ull},
      {8, 65536, 1.0, 0.0, true, 1, false, 0xca15e6c0bd9c5fe3ull},
      {8, 65536, 1.0, 0.0, true, 256, false, 0x62171119dd225becull},
      {8, 65536, 1.0, 0.0, false, 1, false, 0xfa1357eddd2bdab7ull},
      {8, 65536, 1.0, 0.0, false, 256, false, 0x3459d162684034ecull},
      {8, 65536, 1.0, 0.5, true, 1, false, 0x30094d0ccd1a0e2full},
      {8, 65536, 1.0, 0.5, true, 256, false, 0xc33f468c0cae0179ull},
      {8, 65536, 1.0, 0.5, false, 1, false, 0xdde2c82f2b411249ull},
      {8, 65536, 1.0, 0.5, false, 256, false, 0x6100b4e10fdd5a79ull},
      {2, 8192, 0.5, 0.0, true, 1, false, 0x64d2feff3e2ea851ull},
      {8, 8192, 1.0, 0.5, true, 256, true, 0x18aceb3bd16c5dbbull},
  };
  auto topo = topo::MakeDgx1V();
  GenOptions last_gen;
  std::pair<data::DistRelation, data::DistRelation> input;
  for (const Pinned& c : kPinned) {
    GenOptions gen;
    gen.tuples_per_relation = c.tuples_per_gpu * c.gpus;
    gen.num_gpus = c.gpus;
    gen.key_zipf = c.key_zipf;
    gen.placement_zipf = c.placement_zipf;
    if (input.first.shards.empty() || !(gen == last_gen)) {
      input = MakeJoinInput(gen);
      last_gen = gen;
    }
    MgJoinOptions opts;
    opts.use_compression = c.compression;
    opts.virtual_scale = c.virtual_scale;
    opts.materialize_pairs = c.pairs;
    const PreparedJoin p =
        MgJoin(topo.get(), topo::FirstNGpus(c.gpus), opts)
            .Prepare(input.first, input.second)
            .ValueOrDie();
    EXPECT_EQ(p.pairs.size(), c.pairs ? p.matches : 0);
    EXPECT_EQ(DigestPrepared(p), c.hash)
        << "gpus=" << c.gpus << " tuples/gpu=" << c.tuples_per_gpu
        << " key_zipf=" << c.key_zipf
        << " placement_zipf=" << c.placement_zipf
        << " compression=" << c.compression
        << " virtual_scale=" << c.virtual_scale << " pairs=" << c.pairs
        << " got 0x" << std::hex << DigestPrepared(p);
  }
}

TEST(MgJoinTest, UmjMatchesReference) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 60000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  const LocalJoinStats ref = ReferenceJoin(r, s);
  UmJoin umj(topo.get(), topo::FirstNGpus(4), UmjOptions{});
  auto res = umj.Execute(r, s);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().matches, ref.matches);
  EXPECT_EQ(res.value().checksum, ref.checksum);
  EXPECT_GT(res.value().timing.page_faults, 0u);
}

TEST(MgJoinTest, RejectsMismatchedShards) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 1000;
  opts.num_gpus = 2;
  auto [r, s] = MakeJoinInput(opts);
  MgJoin join(topo.get(), topo::FirstNGpus(4), MgJoinOptions{});
  EXPECT_FALSE(join.Execute(r, s).ok());
}

TEST(MgJoinTest, BreakdownSumsConsistently) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 100000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  MgJoin join(topo.get(), topo::FirstNGpus(4), MgJoinOptions{});
  auto res = join.Execute(r, s);
  ASSERT_TRUE(res.ok());
  const JoinBreakdown& t = res.value().timing;
  EXPECT_GT(t.histogram, 0u);
  EXPECT_GT(t.global_partition, 0u);
  EXPECT_GT(t.distribution, 0u);
  EXPECT_GT(t.probe, 0u);
  // Exposure can exceed the raw distribution window only by the residual
  // processing of the final packet (plus serialization slack).
  EXPECT_LE(t.distribution_exposed,
            t.distribution + sim::kMillisecond);
  EXPECT_GE(t.total, t.histogram + t.global_partition);
}

TEST(MgJoinTest, VirtualScaleScalesTimingNotResults) {
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 50000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  MgJoinOptions small, big;
  big.virtual_scale = 64.0;
  auto res1 = MgJoin(topo.get(), topo::FirstNGpus(4), small).Execute(r, s);
  auto res64 = MgJoin(topo.get(), topo::FirstNGpus(4), big).Execute(r, s);
  ASSERT_TRUE(res1.ok() && res64.ok());
  EXPECT_EQ(res1.value().matches, res64.value().matches);
  EXPECT_EQ(res1.value().checksum, res64.value().checksum);
  // Fixed overheads (launches, link latency) dominate at the functional
  // scale, so 64x virtual bytes give super-unit but sub-64x time growth.
  EXPECT_GT(res64.value().timing.total, 3 * res1.value().timing.total);
  EXPECT_EQ(res64.value().virtual_input_tuples,
            64 * res1.value().virtual_input_tuples);
}

TEST(MgJoinTest, FractionalVirtualScaleRoundsTupleCounts) {
  // 50000 x 2.5 = 125000 exactly; truncation-era code computed most
  // scaled products one short at fractional scales. Pin the rounded
  // behavior.
  auto topo = topo::MakeDgx1V();
  GenOptions opts;
  opts.tuples_per_relation = 50000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  MgJoinOptions half;
  half.virtual_scale = 2.5;
  auto res = MgJoin(topo.get(), topo::FirstNGpus(4), half).Execute(r, s);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().input_tuples, 2 * 50000u);
  EXPECT_EQ(res.value().virtual_input_tuples, 250000u);
}

TEST(MgJoinTest, SingleGpuHasNoNetworkTraffic) {
  auto topo = topo::MakeSingleGpu();
  GenOptions opts;
  opts.tuples_per_relation = 30000;
  opts.num_gpus = 1;
  auto [r, s] = MakeJoinInput(opts);
  MgJoin join(topo.get(), {0}, MgJoinOptions{});
  auto res = join.Execute(r, s);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().matches, 30000u);
  EXPECT_EQ(res.value().shuffled_bytes, 0u);
  EXPECT_EQ(res.value().net.packets, 0u);
}

TEST(MgJoinTest, UmjDegradesWithGpuCountAtFixedPerGpuLoad) {
  // The paper's headline UMJ pathology: per-GPU load constant, more
  // GPUs, *worse* total time due to fault contention (Fig 11).
  auto topo = topo::MakeDgx1V();
  auto time_for = [&](int g) {
    GenOptions opts;
    opts.tuples_per_relation = 20000ull * g;
    opts.num_gpus = g;
    auto [r, s] = MakeJoinInput(opts);
    UmjOptions uo;
    uo.virtual_scale = 1 << 14;
    UmJoin umj(topo.get(), topo::FirstNGpus(g), uo);
    auto res = umj.Execute(r, s);
    EXPECT_TRUE(res.ok());
    // Throughput = tuples/time; degradation = falling throughput.
    return res.value().Throughput();
  };
  const double t1 = time_for(1);
  const double t8 = time_for(8);
  EXPECT_LT(t8, t1) << "UMJ on 8 GPUs should be slower than 1 GPU";
}

TEST(KernelModelTest, TimesScaleWithWork) {
  gpusim::KernelModel m(gpusim::GpuSpec::V100());
  EXPECT_GT(m.HistogramTime(2000000, 8), m.HistogramTime(1000000, 8));
  EXPECT_GT(m.PartitionPassTime(1000000, 8), m.HistogramTime(1000000, 8));
  EXPECT_EQ(m.HistogramTime(0, 8), 0u);
  // One streaming pass over 1M 8-byte tuples takes tens of microseconds
  // on a V100; in device-clock cycles that is a fraction of a cycle per
  // tuple (the 80 SMs each process many tuples per cycle).
  const double cpt =
      m.CyclesPerTuple(m.PartitionPassTime(1 << 20, 8), 1 << 20);
  EXPECT_GT(cpt, 0.01);
  EXPECT_LT(cpt, 10.0);
}

TEST(KernelModelTest, UnifiedMemoryContentionGrows) {
  gpusim::UnifiedMemoryModel um;
  const auto f2 = um.RemoteFaultTime(1 * kGiB, 2);
  const auto f8 = um.RemoteFaultTime(1 * kGiB, 8);
  EXPECT_GT(f8, f2);
  EXPECT_EQ(um.RemoteFaultTime(0, 8), 0u);
}

}  // namespace
}  // namespace mgjoin::join
