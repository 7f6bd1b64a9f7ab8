#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>

#include "common/random.h"
#include "data/generator.h"
#include "exec/engine.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "net/fault_plan.h"
#include "svc/service.h"
#include "topo/presets.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "traced_join.h"

namespace perfbench {

using namespace mgjoin;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Fabric counters every workload that moves packets reports.
void AddNetLayer(const net::TransferStats& n,
                 std::map<std::string, double>* m) {
  const double packets = static_cast<double>(n.packets);
  (*m)["net.packets"] = packets;
  (*m)["net.hops_per_packet"] =
      Ratio(static_cast<double>(n.packet_hops), packets);
  (*m)["net.wire_per_payload"] = Ratio(static_cast<double>(n.wire_bytes),
                                       static_cast<double>(n.payload_bytes));
  (*m)["net.escapes"] = static_cast<double>(n.escapes);
  (*m)["net.ring_syncs_per_packet"] =
      Ratio(static_cast<double>(n.ring_syncs), packets);
  (*m)["net.packets_per_batch"] =
      Ratio(packets, static_cast<double>(n.batches));
  (*m)["net.arb_paces"] = static_cast<double>(n.arb_paces);
  (*m)["net.fault_reroutes"] = static_cast<double>(n.fault_reroutes);
  (*m)["net.fault_waits"] = static_cast<double>(n.fault_waits);
  (*m)["net.sim_makespan_ms"] = sim::ToMillis(n.Makespan());
  (*m)["net.sim_gbps"] = n.Throughput() / kGBps;
}

// Host self times of the spans every workload records. data.gen and
// oracle count only on ops that ran them.
void AddCommonHostLayer(const std::map<std::string, double>& self,
                        std::map<std::string, double>* m) {
  auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  if (self.count("data.gen")) (*m)["data.gen_ms"] = get("data.gen");
  if (self.count("oracle")) (*m)["oracle.ms"] = get("oracle");
  (*m)["trace.glue_ms"] = get("op");
}

// A seeded bijection of the key domain [0, 2^bits). Odd multipliers carry
// low bits upward and the xor-shifts carry high bits down, so the radix
// partition of a key (its top bits) depends on all of its bits.
class KeyBijection {
 public:
  KeyBijection(int bits, std::uint64_t seed)
      : mask_(bits >= 32 ? ~0u : (1u << bits) - 1u),
        shift_(std::max(1, bits / 2)),
        mul1_(static_cast<std::uint32_t>(seed) | 1u),
        mul2_(static_cast<std::uint32_t>(seed >> 32) | 1u) {}

  std::uint32_t operator()(std::uint32_t k) const {
    k = (k * mul1_) & mask_;
    k ^= k >> shift_;
    k = (k * mul2_) & mask_;
    return k ^ (k >> shift_);
  }

 private:
  std::uint32_t mask_;
  int shift_;
  std::uint32_t mul1_;
  std::uint32_t mul2_;
};

// `base` with every key of both relations renamed by one bijection. Ids
// and placement stay, so the matched id pairs, and with them ReferenceJoin's
// matches and checksum, are exactly those of `base`.
std::pair<data::DistRelation, data::DistRelation> RenameKeys(
    const std::pair<data::DistRelation, data::DistRelation>& base,
    std::uint64_t seed) {
  auto out = base;
  const KeyBijection f(base.first.domain_bits, seed);
  for (data::DistRelation* rel : {&out.first, &out.second}) {
    for (data::Shard& shard : rel->shards) {
      for (data::Tuple& t : shard) t.key = f(t.key);
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// fabric8 / host_skew8: one MgJoin::Execute per op on DGX-1V, 8 GPUs.

class JoinWorkload : public Workload {
 public:
  JoinWorkload(int host_threads, data::GenOptions gen, double virtual_scale)
      : topo_(topo::MakeDgx1V()),
        join_(topo_.get(), topo::FirstNGpus(8),
              Options(host_threads, virtual_scale)),
        gen_(gen) {
    gen_.num_gpus = 8;
  }

  // Op 0 generates the run's base input and its ReferenceJoin answer (the
  // set-up). Every later op renames the base's keys with a bijection of
  // its own seed: a fresh input whose oracle answer is exactly the base's,
  // at a small fraction of the cost of generating and joining it again.
  // Traced runs also join each renamed input with ReferenceJoin to check
  // that identity.
  void Prepare(std::uint64_t op, std::uint64_t op_seed,
               SpanLog* log) override {
    if (op > 0) {
      {
        ScopedSpan span(log, "data.rename", op);
        input_ = RenameKeys(base_, op_seed);
      }
      if (log != nullptr) {
        ScopedSpan span(log, "oracle", op);
        const join::LocalJoinStats check =
            join::ReferenceJoin(input_.first, input_.second);
        renamed_ok_ = check.matches == oracle_.matches &&
                      check.checksum == oracle_.checksum;
      }
      return;
    }
    gen_.seed = op_seed;
    {
      ScopedSpan span(log, "data.gen", op);
      base_ = data::MakeJoinInput(gen_);
    }
    ScopedSpan span(log, "oracle", op);
    oracle_ = join::ReferenceJoin(base_.first, base_.second);
    input_ = base_;
    renamed_ok_ = true;
  }

  OpOutcome Run(std::uint64_t op, SpanLog* log) override {
    const auto& [r, s] = input_;
    OpOutcome out;
    out.queries = 1;
    const auto start = Clock::now();
    Result<join::JoinResult> res = join_.Execute(r, s);
    out.host_ms = MsSince(start);
    if (!res.ok()) {
      out.error = res.status().ToString();
      return out;
    }
    const join::JoinResult& jr = res.value();
    if (!renamed_ok_) {
      out.error = "renaming keys changed the ReferenceJoin answer";
      return out;
    }
    if (jr.matches != oracle_.matches || jr.checksum != oracle_.checksum) {
      out.error = "join disagrees with ReferenceJoin";
      return out;
    }
    out.ok = true;
    out.query_ms.push_back(sim::ToMillis(jr.timing.total));
    out.virtual_tuples = static_cast<double>(jr.virtual_input_tuples);
    out.join_sim_s = sim::ToSeconds(jr.timing.total);
    out.sim_s = out.join_sim_s;
    if (log != nullptr) Trace(op, jr, log, &out);
    return out;
  }

 private:
  static join::MgJoinOptions Options(int host_threads, double vs) {
    join::MgJoinOptions o;
    o.virtual_scale = vs;
    o.host_threads = host_threads;
    return o;
  }

  // The traced op: the Execute() rebuild, which must match `jr` exactly.
  void Trace(std::uint64_t op, const join::JoinResult& jr, SpanLog* log,
             OpOutcome* out) {
    Result<TracedJoin> traced = Status::Internal("not run");
    {
      ScopedSpan span(log, "op", op);
      traced = ExecuteTraced(join_, *topo_, input_.first, input_.second, log,
                             op);
    }
    out->traced_ms = log->RootMs("op", op);
    if (!traced.ok() || !SameAsExecute(traced.value().result, jr)) {
      out->ok = false;
      out->error = "traced rebuild does not reproduce Execute()";
      return;
    }
    const TracedJoin& t = traced.value();
    const net::TransferStats& n = jr.net;
    std::map<std::string, double>& sim = out->sim_layer;
    sim["join.split_partitions"] = t.split_partitions;
    sim["join.moved_tuples"] = static_cast<double>(t.moved_tuples);
    sim["join.compression_ratio"] =
        Ratio(static_cast<double>(t.uncompressed_bytes),
              static_cast<double>(t.compressed_bytes));
    sim["join.matches"] = static_cast<double>(jr.matches);
    sim["sim.events"] = static_cast<double>(t.sim_events);
    AddNetLayer(n, &sim);
    sim["net.sim_dist_exposed_ms"] =
        sim::ToMillis(jr.timing.distribution_exposed);
    sim["gpusim.histogram_ms"] = sim::ToMillis(jr.timing.histogram);
    sim["gpusim.partition_ms"] = sim::ToMillis(jr.timing.global_partition);
    sim["gpusim.local_partition_ms"] =
        sim::ToMillis(jr.timing.local_partition);
    sim["gpusim.probe_ms"] = sim::ToMillis(jr.timing.probe);

    const std::map<std::string, double> self = log->SelfMsByName(op);
    std::map<std::string, double>& host = out->host_layer;
    AddCommonHostLayer(self, &host);
    for (const char* name :
         {"join.histogram", "join.assignment", "join.shuffle", "join.local",
          "net.run"}) {
      const auto it = self.find(name);
      host[std::string(name) + "_ms"] = it == self.end() ? 0.0 : it->second;
    }
    host["sim.ns_per_event"] =
        Ratio(host["net.run_ms"] * 1e6, static_cast<double>(t.sim_events));
    host["net.us_per_packet"] =
        Ratio(host["net.run_ms"] * 1e3, static_cast<double>(n.packets));
  }

  std::unique_ptr<topo::Topology> topo_;
  join::MgJoin join_;
  data::GenOptions gen_;
  std::pair<data::DistRelation, data::DistRelation> base_;
  std::pair<data::DistRelation, data::DistRelation> input_;
  join::LocalJoinStats oracle_;
  bool renamed_ok_ = true;
};

std::unique_ptr<Workload> MakeFabric8(int host_threads) {
  // ~32K tuples/GPU/relation, simulated at 8192x: near-paper virtual
  // scale, where the fabric's per-packet host cost shows.
  data::GenOptions gen;
  gen.tuples_per_relation = 32768 * 8;
  return std::make_unique<JoinWorkload>(host_threads, gen, 8192.0);
}

std::unique_ptr<Workload> MakeHostSkew8(int host_threads) {
  // ~1M tuples/GPU/relation at 1x: few packets, so the host join layers
  // (histogram, heavy-hitter split, compressed shuffle, deep local
  // recursion) do the work.
  data::GenOptions gen;
  gen.tuples_per_relation = (1u << 20) * 8;
  gen.placement_zipf = 0.5;
  gen.key_zipf = 1.0;
  return std::make_unique<JoinWorkload>(host_threads, gen, 1.0);
}

// ---------------------------------------------------------------------
// serve_mixed: one QueryScheduler::Run per op over an open-loop stream.

constexpr int kServeQueries = 128;
constexpr int kServeDatasets = 16;
constexpr std::uint64_t kServeTuplesPerGpu = 8192;
constexpr double kServeVirtualScale = 256.0;
// Poisson arrival rate in simulated queries/s: 80% of the rate at which
// the fabric finishes these queries one at a time, 1 / mean solo latency
// (1.79-1.84 ms over seeds 1-3).
constexpr double kServeArrivalsPerSec = 440.0;

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(int host_threads)
      : topo_(topo::MakeDgx1V()),
        sched_(topo_.get(), topo::FirstNGpus(8), Options(host_threads)) {}

  void Prepare(std::uint64_t op, std::uint64_t op_seed,
               SpanLog* log) override {
    Rng rng(op_seed);
    std::vector<data::GenOptions> catalog(kServeDatasets);
    for (int i = 0; i < kServeDatasets; ++i) {
      catalog[i].tuples_per_relation = kServeTuplesPerGpu * 8;
      catalog[i].num_gpus = 8;
      catalog[i].key_zipf = i % 4 == 3 ? 1.0 : 0.0;  // a quarter skewed
      catalog[i].seed = rng.Next();
    }
    // Popular tables are shared by many tenants: dataset d takes a Zipf
    // share of the stream. The shares are fixed and only their order is
    // drawn, so every op carries the same mix of skewed and uniform work.
    std::vector<int> dataset;
    double pmf_sum = 0;
    for (int d = 0; d < kServeDatasets; ++d) pmf_sum += 1.0 / (d + 1);
    for (int d = 0; d < kServeDatasets; ++d) {
      const int n = static_cast<int>(
          std::lround(kServeQueries / pmf_sum / (d + 1)));
      dataset.insert(dataset.end(), n, d);
    }
    dataset.resize(kServeQueries, 0);
    rng.Shuffle(&dataset);
    // A Poisson stream conditioned on its count: the arrival times are
    // sorted uniform draws over the span the rate gives, so every op
    // offers exactly the same load and only its burstiness is drawn.
    std::vector<double> arrival_s(kServeQueries);
    for (double& t : arrival_s) {
      t = rng.NextDouble() * kServeQueries / kServeArrivalsPerSec;
    }
    std::sort(arrival_s.begin(), arrival_s.end());
    queries_.assign(kServeQueries, {});
    for (int i = 0; i < kServeQueries; ++i) {
      svc::QuerySpec& q = queries_[i];
      q.query_id = static_cast<std::uint64_t>(i) + 1;
      q.gen = catalog[dataset[i]];
      q.priority = i % 3;
      q.submit_at = sim::FromSeconds(arrival_s[i]);
    }
    virtual_tuples_ = static_cast<double>(kServeQueries) * 2.0 *
                      static_cast<double>(kServeTuplesPerGpu * 8) *
                      kServeVirtualScale;

    // Oracle: one reference join per dataset the stream touches.
    std::map<int, join::LocalJoinStats> per_dataset;
    for (int d : std::set<int>(dataset.begin(), dataset.end())) {
      std::pair<data::DistRelation, data::DistRelation> in;
      {
        ScopedSpan span(log, "data.gen", op);
        in = data::MakeJoinInput(catalog[d]);
      }
      ScopedSpan span(log, "oracle", op);
      per_dataset[d] = join::ReferenceJoin(in.first, in.second);
    }
    expect_matches_ = expect_checksum_ = 0;
    for (int d : dataset) {
      expect_matches_ += per_dataset[d].matches;
      expect_checksum_ += per_dataset[d].checksum;
    }
  }

  OpOutcome Run(std::uint64_t op, SpanLog* log) override {
    OpOutcome out;
    out.queries = kServeQueries;
    const auto start = Clock::now();
    Result<svc::ServiceResult> res = sched_.Run(queries_);
    out.host_ms = MsSince(start);
    if (!res.ok()) {
      out.error = res.status().ToString();
      return out;
    }
    const svc::ServiceResult& sr = res.value();
    if (sr.total_matches != expect_matches_ ||
        sr.checksum != expect_checksum_) {
      out.error = "service totals disagree with the per-dataset oracles";
      return out;
    }
    out.ok = true;
    // Latency runs from the due (submit) time, so queueing counts; the
    // report's Latency() starts at admission.
    std::vector<double> queue_ms, slowdown;
    for (const obs::report::QueryOutcome& q : sr.tenancy.queries) {
      out.query_ms.push_back(sim::ToMillis(q.complete_at - q.submit_at));
      queue_ms.push_back(sim::ToMillis(q.QueueDelay()));
      slowdown.push_back(q.Slowdown());
      out.join_sim_s += sim::ToSeconds(q.Latency());
      out.sim_s += sim::ToSeconds(q.complete_at - q.submit_at);
    }
    out.virtual_tuples = virtual_tuples_;
    if (log == nullptr) return out;

    Result<svc::ServiceResult> traced = Status::Internal("not run");
    {
      ScopedSpan op_span(log, "op", op);
      ScopedSpan span(log, "svc.run", op);
      traced = sched_.Run(queries_);
    }
    out.traced_ms = log->RootMs("op", op);
    if (!traced.ok() || !SameRun(traced.value(), sr)) {
      out.ok = false;
      out.error = "traced service run diverged";
      return out;
    }
    std::map<std::string, double>& sim = out.sim_layer;
    AddNetLayer(sr.net, &sim);
    sim["join.matches"] = static_cast<double>(sr.total_matches);
    sim["svc.queue_delay_ms_p90"] = Percentile(queue_ms, 0.9);
    sim["svc.slowdown_p50"] = Percentile(slowdown, 0.5);
    const std::map<std::string, double> self = log->SelfMsByName(op);
    AddCommonHostLayer(self, &out.host_layer);
    out.host_layer["svc.run_ms"] = self.at("svc.run");
    return out;
  }

 private:
  svc::ServiceOptions Options(int host_threads) const {
    svc::ServiceOptions o;
    o.join.virtual_scale = kServeVirtualScale;
    o.join.host_threads = host_threads;
    o.inflight_limit = 8;
    o.arbitration = net::ArbitrationKind::kFairShare;
    o.measure_solo = true;
    // Mid-stream faults: an NVLink flaps and recovers at 30% of the
    // expected stream span, then the inter-socket QPI runs at half speed
    // from 50% on.
    const double span_s = kServeQueries / kServeArrivalsPerSec;
    net::FaultPlan& f = o.join.transfer.faults;
    f.Flap(topo_->ResolveLinkSpec("gpu0-gpu3").value(),
           sim::FromSeconds(0.3 * span_s), 10 * sim::kMillisecond, 3);
    f.Degrade(topo_->ResolveLinkSpec("qpi0").value(), 0.5,
              sim::FromSeconds(0.5 * span_s));
    return o;
  }

  static bool SameRun(const svc::ServiceResult& a,
                      const svc::ServiceResult& b) {
    if (a.total_matches != b.total_matches || a.checksum != b.checksum ||
        a.net.packets != b.net.packets ||
        a.net.wire_bytes != b.net.wire_bytes ||
        a.net.last_delivery != b.net.last_delivery ||
        a.tenancy.queries.size() != b.tenancy.queries.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.tenancy.queries.size(); ++i) {
      if (a.tenancy.queries[i].complete_at !=
          b.tenancy.queries[i].complete_at) {
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<topo::Topology> topo_;
  svc::QueryScheduler sched_;
  std::vector<svc::QuerySpec> queries_;
  double virtual_tuples_ = 0;
  std::uint64_t expect_matches_ = 0;
  std::uint64_t expect_checksum_ = 0;
};

std::unique_ptr<Workload> MakeServeMixed(int host_threads) {
  return std::make_unique<ServeWorkload>(host_threads);
}

// ---------------------------------------------------------------------
// tpch6: Q3, Q5, Q10, Q12, Q14, Q19 through exec::Engine per op.

constexpr double kTpchFunctionalSf = 0.05;
constexpr double kTpchVirtualSf = 250.0;

struct QueryAnswer {
  double value = 0;
  std::uint64_t rows = 0;
};

class TpchWorkload : public Workload {
 public:
  explicit TpchWorkload(int host_threads)
      : topo_(topo::MakeDgx1V()), gpus_(topo::FirstNGpus(8)) {
    mg_.join.virtual_scale = kTpchVirtualSf / kTpchFunctionalSf;
    mg_.join.host_threads = host_threads;
    dprj_.join = join::MgJoinOptions::Dprj();
    dprj_.join.virtual_scale = mg_.join.virtual_scale;
    dprj_.join.host_threads = host_threads;
  }

  void Prepare(std::uint64_t op, std::uint64_t op_seed,
               SpanLog* log) override {
    {
      ScopedSpan span(log, "data.gen", op);
      db_ = tpch::GenerateTpch(kTpchFunctionalSf, 8, op_seed);
    }
    // Oracle: the same query under the DPRJ baseline must give the same
    // answer (the property tpch_test relies on).
    ScopedSpan span(log, "oracle", op);
    oracle_.clear();
    for (const auto& [name, fn] : tpch::AllQueries()) {
      exec::Engine eng(topo_.get(), gpus_, dprj_);
      Result<tpch::QueryOutput> q = fn(eng, db_);
      oracle_.push_back(q.ok() ? QueryAnswer{q.value().value,
                                             q.value().result_rows}
                               : QueryAnswer{std::nan(""), 0});
    }
  }

  OpOutcome Run(std::uint64_t op, SpanLog* log) override {
    OpOutcome out;
    const auto queries = tpch::AllQueries();
    out.queries = queries.size();
    std::vector<Result<tpch::QueryOutput>> results;
    const auto start = Clock::now();
    for (const auto& [name, fn] : queries) {
      exec::Engine eng(topo_.get(), gpus_, mg_);
      results.push_back(fn(eng, db_));
    }
    out.host_ms = MsSince(start);
    out.ok = true;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!results[i].ok()) {
        out.ok = false;
        out.error = queries[i].first + ": " + results[i].status().ToString();
        continue;
      }
      const tpch::QueryOutput& q = results[i].value();
      const QueryAnswer& want = oracle_[i];
      if (q.result_rows != want.rows ||
          !(std::abs(q.value - want.value) <=
            std::abs(want.value) * 1e-9 + 1e-9)) {
        out.ok = false;
        out.error = queries[i].first + " disagrees with the DPRJ oracle";
        continue;
      }
      out.query_ms.push_back(sim::ToMillis(q.time));
      out.sim_s += sim::ToSeconds(q.time);
      out.virtual_tuples += q.ops.rows_joined;
      out.join_sim_s += sim::ToSeconds(q.time);
    }
    if (!out.ok || log == nullptr) return out;

    std::map<std::string, double>& sim = out.sim_layer;
    {
      ScopedSpan op_span(log, "op", op);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& [name, fn] = queries[i];
        Result<tpch::QueryOutput> q = Status::Internal("not run");
        {
          ScopedSpan span(log, "tpch." + name, op);
          exec::Engine eng(topo_.get(), gpus_, mg_);
          q = fn(eng, db_);
        }
        const tpch::QueryOutput& first = results[i].value();
        if (!q.ok() || q.value().time != first.time ||
            q.value().value != first.value ||
            q.value().result_rows != first.result_rows) {
          out.ok = false;
          out.error = "traced " + name + " diverged";
        }
        sim["tpch." + name + ".sim_ms"] = sim::ToMillis(first.time);
        sim["tpch.rows_joined"] += first.ops.rows_joined;
        sim["tpch.join_output_rows"] += first.ops.join_output_rows;
      }
    }
    out.traced_ms = log->RootMs("op", op);
    const std::map<std::string, double> self = log->SelfMsByName(op);
    AddCommonHostLayer(self, &out.host_layer);
    for (const auto& [name, fn] : queries) {
      out.host_layer["tpch." + name + ".host_ms"] = self.at("tpch." + name);
    }
    return out;
  }

 private:
  std::unique_ptr<topo::Topology> topo_;
  std::vector<int> gpus_;
  exec::EngineOptions mg_;
  exec::EngineOptions dprj_;
  tpch::TpchData db_;
  std::vector<QueryAnswer> oracle_;
};

std::unique_ptr<Workload> MakeTpch6(int host_threads) {
  return std::make_unique<TpchWorkload>(host_threads);
}

}  // namespace

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      // SLOs: serve_mixed's is ~2.2x the mean solo latency; the others
      // sit well above any latency their inputs produce, so a miss there
      // means a modelling regression.
      {"fabric8", 24, 250.0, MakeFabric8},
      {"host_skew8", 3, 2.0, MakeHostSkew8},
      {"serve_mixed", 4, 4.0, MakeServeMixed},
      {"tpch6", 2, 1500.0, MakeTpch6},
  };
  return kAll;
}

}  // namespace perfbench
