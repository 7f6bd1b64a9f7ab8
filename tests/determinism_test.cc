// Thread-count-invariance suite (DESIGN.md Sec 11): every functional
// result, matched-pair list, and exported trace must be byte-identical
// whether the host runs on 1, 2 or 8 worker threads. This property is
// what makes the CI bench gate sound — a simulated-time regression can
// never be explained away by "the thread count changed".

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/compression.h"
#include "data/generator.h"
#include "data/relation.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "net/fault_plan.h"
#include "net/link_state.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "svc/service.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

// The thread counts the suite sweeps. ResolveThreadCount clamps
// explicit requests to max(hardware, 8), so 8 real workers exist even
// on small CI machines and the interleavings are genuinely exercised.
const std::size_t kThreadCounts[] = {1, 2, 8};

struct JoinRun {
  join::JoinResult result;
  std::string trace_json;
};

JoinRun RunSkewedJoin(std::size_t threads) {
  ThreadPool::SetDefaultThreads(threads);
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 16;
  gen.num_gpus = 8;
  gen.placement_zipf = 0.5;
  gen.key_zipf = 0.75;  // heavy hitters: deep local recursion
  auto [r, s] = data::MakeJoinInput(gen);

  auto topo = topo::MakeDgx1V();
  join::MgJoinOptions opts;
  opts.materialize_pairs = true;
  obs::TraceRecorder trace;
  opts.transfer.obs.trace = &trace;
  join::MgJoin join(topo.get(), topo::FirstNGpus(8), opts);

  JoinRun run;
  run.result = join.Execute(r, s).ValueOrDie();
  run.trace_json = trace.ToJson();
  return run;
}

TEST(DeterminismTest, JoinResultAndTraceInvariantAcrossThreadCounts) {
  const JoinRun base = RunSkewedJoin(kThreadCounts[0]);
  EXPECT_GT(base.result.matches, 0u);
  EXPECT_FALSE(base.result.pairs.empty());
  for (std::size_t t : {kThreadCounts[1], kThreadCounts[2]}) {
    const JoinRun run = RunSkewedJoin(t);
    EXPECT_EQ(run.result.matches, base.result.matches) << t;
    EXPECT_EQ(run.result.checksum, base.result.checksum) << t;
    EXPECT_EQ(run.result.shuffled_bytes, base.result.shuffled_bytes) << t;
    EXPECT_EQ(run.result.uncompressed_bytes,
              base.result.uncompressed_bytes)
        << t;
    EXPECT_EQ(run.result.timing.total, base.result.timing.total) << t;
    EXPECT_EQ(run.result.timing.distribution,
              base.result.timing.distribution)
        << t;
    // Matched pairs: same pairs in the same order, not merely the same
    // multiset.
    ASSERT_EQ(run.result.pairs.size(), base.result.pairs.size()) << t;
    EXPECT_TRUE(run.result.pairs == base.result.pairs) << t;
    // The exported trace — simulated spans only — is byte-identical.
    EXPECT_EQ(run.trace_json, base.trace_json) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

JoinRun RunFaultedJoin(std::size_t threads, bool telemetry = false,
                       std::uint64_t* telemetry_ticks = nullptr) {
  ThreadPool::SetDefaultThreads(threads);
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 16;
  gen.num_gpus = 8;
  gen.placement_zipf = 0.5;
  gen.key_zipf = 0.75;
  auto [r, s] = data::MakeJoinInput(gen);

  auto topo = topo::MakeDgx1V();
  join::MgJoinOptions opts;
  opts.materialize_pairs = true;
  opts.virtual_scale = 512;  // stretch the shuffle so the faults land
  opts.transfer.faults =
      net::FaultPlan::Parse(
          "down:gpu0-gpu3:@1ms,restore:gpu0-gpu3:@4ms,"
          "flap:nvlink5:@1ms:300usx3,degrade:qpi0:0.4:@0us",
          *topo)
          .ValueOrDie();
  obs::TraceRecorder trace;
  opts.transfer.obs.trace = &trace;
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler sampler(250 * sim::kMicrosecond);
  if (telemetry) {
    opts.transfer.obs.metrics = &metrics;
    opts.transfer.obs.telemetry = &sampler;
  }
  join::MgJoin join(topo.get(), topo::FirstNGpus(8), opts);

  JoinRun run;
  run.result = join.Execute(r, s).ValueOrDie();
  run.trace_json = trace.ToJson();
  if (telemetry_ticks != nullptr) *telemetry_ticks = sampler.ticks();
  return run;
}

TEST(DeterminismTest, FaultedRunInvariantAcrossThreadCounts) {
  // PR 2 x PR 4 crossover: repair/retry machinery (reroutes, batch
  // aborts, waits) must replay identically — down to the exported trace
  // bytes — whether the host runs 1 worker or 8.
  const JoinRun base = RunFaultedJoin(1);
  EXPECT_GT(base.result.matches, 0u);
  EXPECT_GT(base.result.net.fault_reroutes + base.result.net.fault_waits,
            0u)
      << "fault schedule never intersected the shuffle; re-calibrate";
  const JoinRun run = RunFaultedJoin(8);
  EXPECT_EQ(run.result.matches, base.result.matches);
  EXPECT_EQ(run.result.checksum, base.result.checksum);
  EXPECT_EQ(run.result.shuffled_bytes, base.result.shuffled_bytes);
  EXPECT_EQ(run.result.timing.total, base.result.timing.total);
  EXPECT_EQ(run.result.net.fault_reroutes, base.result.net.fault_reroutes);
  EXPECT_EQ(run.result.net.fault_aborts, base.result.net.fault_aborts);
  EXPECT_EQ(run.result.net.fault_waits, base.result.net.fault_waits);
  ASSERT_EQ(run.result.pairs.size(), base.result.pairs.size());
  EXPECT_TRUE(run.result.pairs == base.result.pairs);
  EXPECT_EQ(run.trace_json, base.trace_json);
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, TelemetrySamplingDoesNotPerturbTheRun) {
  // The sampler is an observer outside the event-sequence stream
  // (DESIGN.md Sec 14): enabling it on a faulted adaptive run must not
  // change the join result by one tuple or the core trace by one byte,
  // at any thread count.
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const JoinRun plain = RunFaultedJoin(threads, /*telemetry=*/false);
    std::uint64_t ticks = 0;
    const JoinRun sampled =
        RunFaultedJoin(threads, /*telemetry=*/true, &ticks);
    EXPECT_GT(ticks, 0u) << "sampler never fired; shrink the interval";
    EXPECT_EQ(sampled.result.matches, plain.result.matches) << threads;
    EXPECT_EQ(sampled.result.checksum, plain.result.checksum) << threads;
    EXPECT_EQ(sampled.result.shuffled_bytes, plain.result.shuffled_bytes)
        << threads;
    EXPECT_EQ(sampled.result.timing.total, plain.result.timing.total)
        << threads;
    EXPECT_EQ(sampled.result.net.fault_reroutes,
              plain.result.net.fault_reroutes)
        << threads;
    EXPECT_EQ(sampled.result.net.fault_aborts,
              plain.result.net.fault_aborts)
        << threads;
    ASSERT_EQ(sampled.result.pairs.size(), plain.result.pairs.size())
        << threads;
    EXPECT_TRUE(sampled.result.pairs == plain.result.pairs) << threads;
    EXPECT_EQ(sampled.trace_json, plain.trace_json) << threads;
  }
  ThreadPool::SetDefaultThreads(0);
}

std::uint64_t DigestRelation(const data::DistRelation& rel) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const data::Shard& shard : rel.shards) {
    for (const data::Tuple& t : shard) {
      h = (h ^ t.key) * 0x100000001b3ull;
      h = (h ^ t.id) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(DeterminismTest, GeneratorInvariantAcrossThreadCounts) {
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 17;
  gen.num_gpus = 4;
  gen.key_zipf = 1.0;
  gen.placement_zipf = 0.8;

  ThreadPool::SetDefaultThreads(1);
  auto [r1, s1] = data::MakeJoinInput(gen);
  const std::uint64_t dr = DigestRelation(r1);
  const std::uint64_t ds = DigestRelation(s1);
  for (std::size_t t : {kThreadCounts[1], kThreadCounts[2]}) {
    ThreadPool::SetDefaultThreads(t);
    auto [r, s] = data::MakeJoinInput(gen);
    EXPECT_EQ(DigestRelation(r), dr) << t;
    EXPECT_EQ(DigestRelation(s), ds) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, ReferenceJoinInvariantAndAgreesWithMgJoin) {
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 14;
  gen.num_gpus = 4;
  gen.key_zipf = 0.9;
  auto [r, s] = data::MakeJoinInput(gen);

  ThreadPool::SetDefaultThreads(1);
  const join::LocalJoinStats ref1 = join::ReferenceJoin(r, s);
  EXPECT_GT(ref1.matches, 0u);
  for (std::size_t t : {kThreadCounts[1], kThreadCounts[2]}) {
    ThreadPool::SetDefaultThreads(t);
    const join::LocalJoinStats ref = join::ReferenceJoin(r, s);
    EXPECT_EQ(ref.matches, ref1.matches) << t;
    EXPECT_EQ(ref.checksum, ref1.checksum) << t;
    EXPECT_EQ(ref.r_tuples, ref1.r_tuples) << t;
    EXPECT_EQ(ref.s_tuples, ref1.s_tuples) << t;

    auto topo = topo::MakeDgx1V();
    join::MgJoin join(topo.get(), topo::FirstNGpus(4),
                      join::MgJoinOptions{});
    const join::JoinResult res = join.Execute(r, s).ValueOrDie();
    EXPECT_EQ(res.matches, ref1.matches) << t;
    EXPECT_EQ(res.checksum, ref1.checksum) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, BatchCompressionInvariantAcrossThreadCounts) {
  // Bucket a relation into radix partitions, then compress the whole
  // set in parallel; payload bytes must not depend on the thread count
  // and the round trip must restore every tuple in order.
  const int domain_bits = 16;
  const int radix_bits = 6;
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << domain_bits;
  gen.num_gpus = 1;
  auto [r, s] = data::MakeJoinInput(gen);
  (void)s;
  std::vector<std::vector<data::Tuple>> parts(1u << radix_bits);
  for (const data::Tuple& t : r.shards[0]) {
    parts[data::RadixPartition(t.key, domain_bits, radix_bits)]
        .push_back(t);
  }

  ThreadPool::SetDefaultThreads(1);
  const auto base =
      data::CompressPartitions(parts, domain_bits, radix_bits)
          .ValueOrDie();
  ASSERT_EQ(base.size(), parts.size());
  for (std::size_t t : {kThreadCounts[1], kThreadCounts[2]}) {
    ThreadPool::SetDefaultThreads(t);
    const auto cps =
        data::CompressPartitions(parts, domain_bits, radix_bits)
            .ValueOrDie();
    ASSERT_EQ(cps.size(), base.size()) << t;
    for (std::size_t p = 0; p < cps.size(); ++p) {
      EXPECT_EQ(cps[p].tuple_count, base[p].tuple_count);
      EXPECT_TRUE(cps[p].payload == base[p].payload) << "partition " << p;
    }
    const auto back = data::DecompressPartitions(cps).ValueOrDie();
    ASSERT_EQ(back.size(), parts.size()) << t;
    for (std::size_t p = 0; p < back.size(); ++p) {
      ASSERT_EQ(back[p].size(), parts[p].size()) << "partition " << p;
      for (std::size_t i = 0; i < back[p].size(); ++i) {
        EXPECT_EQ(back[p][i].key, parts[p][i].key);
        EXPECT_EQ(back[p][i].id, parts[p][i].id);
      }
    }
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, LocalJoinPairOrderMatchesSerial) {
  // Per-partition morsels merged in canonical order must reproduce the
  // serial pair order exactly, including under materialization.
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 13;
  gen.num_gpus = 1;
  auto input = [&] {
    auto [r, s] = data::MakeJoinInput(gen);
    const int radix_bits = 4;
    std::vector<std::vector<data::Tuple>> rp(1u << radix_bits),
        sp(1u << radix_bits);
    for (const data::Tuple& t : r.shards[0]) {
      rp[data::RadixPartition(t.key, r.domain_bits, radix_bits)]
          .push_back(t);
    }
    for (const data::Tuple& t : s.shards[0]) {
      sp[data::RadixPartition(t.key, s.domain_bits, radix_bits)]
          .push_back(t);
    }
    return std::make_pair(join::PartitionedTuples(rp),
                          join::PartitionedTuples(sp));
  };

  join::LocalJoinOptions opts;
  opts.shared_mem_tuples = 64;  // force recursion
  opts.materialize_pairs = true;

  ThreadPool::SetDefaultThreads(1);
  auto [r1, s1] = input();
  const join::LocalJoinStats serial =
      join::LocalPartitionAndProbe(&r1, &s1, opts);
  EXPECT_GT(serial.matches, 0u);
  for (std::size_t t : {kThreadCounts[1], kThreadCounts[2]}) {
    ThreadPool::SetDefaultThreads(t);
    auto [rp, sp] = input();
    const join::LocalJoinStats par =
        join::LocalPartitionAndProbe(&rp, &sp, opts);
    EXPECT_EQ(par.matches, serial.matches) << t;
    EXPECT_EQ(par.checksum, serial.checksum) << t;
    EXPECT_EQ(par.max_depth, serial.max_depth) << t;
    EXPECT_EQ(par.partition_tuple_passes, serial.partition_tuple_passes)
        << t;
    EXPECT_TRUE(par.pairs == serial.pairs) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

// PR 9 crossover: a multi-tenant service run — concurrent queries
// interleaving on a faulted fabric under each arbitration policy —
// must replay identically at any thread count, down to the exported
// trace bytes and the per-query SLO report (admission, completion,
// quantiles and the slowdown-vs-solo column).
struct ServiceRun {
  std::string trace_json;
  std::string slo_text;
  std::uint64_t checksum = 0;
};

std::vector<svc::QuerySpec> FourTenants() {
  std::vector<svc::QuerySpec> queries;
  for (std::uint64_t q = 1; q <= 4; ++q) {
    svc::QuerySpec spec;
    spec.query_id = q;
    spec.gen.tuples_per_relation = 1u << 14;
    spec.gen.seed = 42 + q;
    spec.priority = static_cast<int>(q % 3);
    queries.push_back(spec);
  }
  return queries;
}

// 24 tenants over 3 shared datasets: each dataset is prepared once and
// its PreparedJoin is admitted by 8 queries.
std::vector<svc::QuerySpec> SharedDatasetStream() {
  std::vector<svc::QuerySpec> queries(24);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    svc::QuerySpec& q = queries[i];
    q.query_id = i + 1;
    q.gen.tuples_per_relation = 1u << 14;
    q.gen.key_zipf = i % 3 == 2 ? 1.0 : 0.0;
    q.gen.seed = 7 + i % 3;
    q.priority = static_cast<int>(i / 3 % 3);
    q.submit_at = static_cast<sim::SimTime>(i) * 150 * sim::kMicrosecond;
  }
  return queries;
}

ServiceRun RunFaultedService(
    std::size_t threads, net::ArbitrationKind kind, int sim_threads = 0,
    const std::vector<svc::QuerySpec>& queries = FourTenants()) {
  ThreadPool::SetDefaultThreads(threads);
  auto topo = topo::MakeDgx1V();
  svc::ServiceOptions opts;
  opts.arbitration = kind;
  opts.join.transfer.sim_threads = sim_threads;
  opts.join.virtual_scale = 512;  // stretch the shuffle into the faults
  opts.join.transfer.faults =
      net::FaultPlan::Parse(
          "down:gpu0-gpu3:@1ms,restore:gpu0-gpu3:@4ms,"
          "flap:nvlink5:@1ms:300usx3,degrade:qpi0:0.4:@0us",
          *topo)
          .ValueOrDie();
  obs::TraceRecorder trace;
  opts.join.transfer.obs.trace = &trace;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(8), opts);
  const svc::ServiceResult res = sched.Run(queries).ValueOrDie();
  ServiceRun run;
  run.trace_json = trace.ToJson();
  run.slo_text = res.tenancy.ToText();
  run.checksum = res.checksum;
  return run;
}

TEST(DeterminismTest, ServiceRunInvariantAcrossThreadCounts) {
  for (const net::ArbitrationKind kind :
       {net::ArbitrationKind::kFifo, net::ArbitrationKind::kFairShare,
        net::ArbitrationKind::kPriority}) {
    const std::string label = net::ArbitrationKindName(kind);
    const ServiceRun base = RunFaultedService(1, kind);
    EXPECT_GT(base.checksum, 0u) << label;
    const ServiceRun run = RunFaultedService(8, kind);
    EXPECT_EQ(run.checksum, base.checksum) << label;
    EXPECT_EQ(run.slo_text, base.slo_text) << label;
    EXPECT_EQ(run.trace_json, base.trace_json) << label;
  }
  // Queries sharing datasets share one preparation per dataset.
  const std::vector<svc::QuerySpec> shared = SharedDatasetStream();
  const ServiceRun base =
      RunFaultedService(1, net::ArbitrationKind::kFairShare, 0, shared);
  EXPECT_GT(base.checksum, 0u);
  const ServiceRun run =
      RunFaultedService(8, net::ArbitrationKind::kFairShare, 0, shared);
  EXPECT_EQ(run.checksum, base.checksum);
  EXPECT_EQ(run.slo_text, base.slo_text);
  EXPECT_EQ(run.trace_json, base.trace_json);
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, ParallelEventCoreInvariantOnFaultedService) {
  // The conservative parallel event core (QueueKind::kParallel, selected
  // by transfer.sim_threads > 0) must reproduce the serial kCalendar
  // core byte for byte on the hardest workload we have: a faulted
  // 8-GPU adaptive multi-tenant service run — identical trace JSON,
  // SLO report and join checksum at every event-core worker count,
  // under all three arbitration policies.
  for (const net::ArbitrationKind kind :
       {net::ArbitrationKind::kFifo, net::ArbitrationKind::kFairShare,
        net::ArbitrationKind::kPriority}) {
    const std::string label = net::ArbitrationKindName(kind);
    const ServiceRun base = RunFaultedService(4, kind, /*sim_threads=*/0);
    EXPECT_GT(base.checksum, 0u) << label;
    for (const int sim_threads : {1, 2, 8}) {
      const ServiceRun run = RunFaultedService(4, kind, sim_threads);
      EXPECT_EQ(run.checksum, base.checksum)
          << label << " sim_threads=" << sim_threads;
      EXPECT_EQ(run.slo_text, base.slo_text)
          << label << " sim_threads=" << sim_threads;
      EXPECT_EQ(run.trace_json, base.trace_json)
          << label << " sim_threads=" << sim_threads;
    }
  }
  ThreadPool::SetDefaultThreads(0);
}

}  // namespace
}  // namespace mgjoin
