#include "scenario/runner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "common/bitutil.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "data/generator.h"
#include "exec/engine.h"
#include "join/join_types.h"
#include "join/local_join.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "svc/service.h"
#include "topo/presets.h"

namespace mgjoin::scenario {

namespace {

/// One-column table per shard carrying the relation's keys, the form
/// exec::Engine::HashJoin consumes.
exec::DistTable KeysToTable(const data::DistRelation& rel) {
  exec::DistTable t;
  t.shards.resize(rel.shards.size());
  for (std::size_t g = 0; g < rel.shards.size(); ++g) {
    exec::Column& col = t.shards[g].AddColumn("key", exec::ColType::kInt64);
    col.ints.reserve(rel.shards[g].size());
    for (const data::Tuple& tup : rel.shards[g]) {
      col.ints.push_back(static_cast<std::int64_t>(tup.key));
    }
  }
  return t;
}

/// The relation HashJoin derives internally: same keys, ids replaced by
/// global row position. Running the oracle over this makes its checksum
/// directly comparable to the engine's.
data::DistRelation GlobalRowRelation(const data::DistRelation& rel,
                                     int* max_domain_bits) {
  data::DistRelation out;
  out.shards.resize(rel.shards.size());
  std::uint32_t max_key = 0;
  std::uint32_t next_global = 0;
  for (std::size_t g = 0; g < rel.shards.size(); ++g) {
    out.shards[g].reserve(rel.shards[g].size());
    for (const data::Tuple& tup : rel.shards[g]) {
      max_key = std::max(max_key, tup.key);
      out.shards[g].push_back(data::Tuple{tup.key, next_global++});
    }
  }
  *max_domain_bits = std::max(
      *max_domain_bits,
      std::max(1, Log2Ceil(static_cast<std::uint64_t>(max_key) + 1)));
  return out;
}

/// Per-query delivered-bytes totals from the sampled per-flow telemetry,
/// keyed by FlowTag::query_id. A run with one query yields one entry;
/// multi-tenant service runs yield one per tenant.
std::map<std::uint64_t, std::uint64_t> FlowDeliveredByQuery(
    const obs::TelemetrySampler& telemetry) {
  std::map<std::uint64_t, std::uint64_t> by_query;
  for (const auto& series : telemetry.series()) {
    if (series.is_flow && series.metric == "delivered_bytes") {
      by_query[series.tag.query_id] += series.data.last();
    }
  }
  return by_query;
}

/// The spec's engine knobs as MG-Join options, observed by `hooks`.
join::MgJoinOptions JoinOptions(const ScenarioSpec& spec,
                                const topo::Topology& topo,
                                obs::ObsHooks hooks) {
  join::MgJoinOptions opts;
  opts.policy = spec.PolicyKind();
  opts.transfer.packet_bytes = spec.packet_kb * kKiB;
  opts.transfer.batch_packets = spec.batch_packets;
  opts.transfer.ring_buffer_bytes =
      static_cast<std::uint64_t>(spec.ring_mb) * kMiB;
  opts.use_compression = spec.compression;
  opts.virtual_scale = spec.virtual_scale;
  opts.host_threads = spec.threads;
  opts.transfer.obs = hooks;
  if (!spec.faults.empty()) {
    // Validation already proved the spec parses.
    opts.transfer.faults = net::FaultPlan::Parse(spec.faults, topo).value();
  }
  return opts;
}

/// The spec's workload shape; `seed` is the spec's.
data::GenOptions GenOptionsFor(const ScenarioSpec& spec, int gpus) {
  data::GenOptions gen;
  gen.tuples_per_relation =
      spec.tuples_per_gpu * static_cast<std::uint64_t>(gpus);
  gen.num_gpus = gpus;
  gen.placement_zipf = spec.placement_zipf;
  gen.key_zipf = spec.key_zipf;
  gen.seed = spec.seed;
  return gen;
}

/// What a run kind hands the verdict tail both kinds share: the
/// fabric's delivered payload and the checks only that kind can make on
/// the parsed-back trace and on the delivered bytes per FlowTag query id.
struct KindRun {
  bool ok = false;
  std::uint64_t payload_bytes = 0;
  std::function<void(const std::vector<obs::TraceEvent>&, ScenarioVerdict*)>
      check_trace;
  std::function<void(const std::map<std::uint64_t, std::uint64_t>&,
                     ScenarioVerdict*)>
      check_flows;
};

/// spec.queries == 1: one equi-join through exec::Engine::HashJoin,
/// checked pair by pair against a single-node ReferenceJoin. Fills v's
/// result figures and adds the result-vs-oracle failures.
KindRun RunSingleJoin(const ScenarioSpec& spec, const topo::Topology& topo,
                      const topo::GpuSet& gpus,
                      const join::MgJoinOptions& join, ScenarioVerdict* v) {
  const auto [r, s] = data::MakeJoinInput(
      GenOptionsFor(spec, static_cast<int>(gpus.size())));
  // The oracle: a single-node hash join over the same keys, ids
  // rewritten to global row positions exactly as HashJoin does.
  int domain_bits = 1;
  data::DistRelation rr = GlobalRowRelation(r, &domain_bits);
  data::DistRelation ss = GlobalRowRelation(s, &domain_bits);
  rr.domain_bits = domain_bits;
  ss.domain_bits = domain_bits;
  const join::LocalJoinStats oracle = join::ReferenceJoin(rr, ss);
  v->reference_matches = oracle.matches;

  exec::EngineOptions opts;
  opts.join = join;
  exec::Engine engine(&topo, gpus, opts);
  auto joined = engine.HashJoin(KeysToTable(r), "key", KeysToTable(s), "key");
  if (!joined.ok()) {
    v->failures.push_back("join failed: " + joined.status().ToString());
    return {};
  }
  const exec::Engine::Joined& out = joined.value();
  v->matches = out.stats.matches;
  v->checksum = out.stats.checksum;
  v->sim_total = engine.elapsed();
  v->shuffled_bytes = out.stats.shuffled_bytes;
  v->fault_reroutes = out.stats.net.fault_reroutes;
  v->fault_aborts = out.stats.net.fault_aborts;

  if (out.stats.matches != oracle.matches) {
    v->failures.push_back("matches " + std::to_string(out.stats.matches) +
                          " != reference " + std::to_string(oracle.matches));
  }
  if (out.stats.checksum != oracle.checksum) {
    v->failures.push_back("checksum mismatch vs reference join");
  }
  if (out.pairs.size() != out.stats.matches) {
    v->failures.push_back(
        "materialized " + std::to_string(out.pairs.size()) +
        " pairs but counted " + std::to_string(out.stats.matches) +
        " matches");
  }
  std::uint64_t pair_checksum = 0;
  for (const auto& [rid, sid] : out.pairs) {
    join::AccumulateMatch(rid, sid, &pair_checksum);
  }
  if (pair_checksum != oracle.checksum) {
    v->failures.push_back("pair-set checksum mismatch vs reference join");
  }

  KindRun run{true, out.stats.net.payload_bytes, {}, {}};
  run.check_trace = [](const std::vector<obs::TraceEvent>& events,
                       ScenarioVerdict* v) {
    const obs::report::RunReport rep = obs::report::BuildRunReport(events);
    const auto& cp = rep.critical_path;
    if (cp.total == 0) {
      v->failures.push_back("critical path attributes zero time");
    }
    sim::SimTime cursor = 0;
    bool tiles = true;
    for (const auto& slice : cp.slices) {
      if (slice.begin != cursor) tiles = false;
      cursor = slice.end;
    }
    if (!tiles || cursor != cp.total) {
      v->failures.push_back("critical-path slices do not tile [0, total]");
    }
  };
  // A single-query run must attribute all its traffic to one query id.
  run.check_flows = [](const std::map<std::uint64_t, std::uint64_t>& by_query,
                       ScenarioVerdict* v) {
    if (by_query.size() > 1) {
      v->failures.push_back("single-query run attributed flows to " +
                            std::to_string(by_query.size()) +
                            " distinct query ids");
    }
  };
  return run;
}

/// spec.queries > 1: a multi-tenant service run through
/// svc::QueryScheduler, checked per query (oracle matches, admission
/// timeline, FlowTag attribution). Fills v's result figures and adds
/// the result-vs-oracle failures.
KindRun RunService(const ScenarioSpec& spec, const topo::Topology& topo,
                   const topo::GpuSet& gpus, const join::MgJoinOptions& join,
                   ScenarioVerdict* v) {
  const std::vector<svc::QuerySpec> queries = svc::TenantQueries(
      GenOptionsFor(spec, static_cast<int>(gpus.size())), spec.queries);
  std::map<std::uint64_t, join::LocalJoinStats> oracles;
  for (const svc::QuerySpec& qs : queries) {
    auto [r, s] = data::MakeJoinInput(qs.gen);
    oracles[qs.query_id] = join::ReferenceJoin(r, s);
    v->reference_matches += oracles[qs.query_id].matches;
  }

  svc::ServiceOptions opts;
  opts.join = join;
  opts.inflight_limit = spec.inflight;
  net::ParseArbitration(spec.arbitration, &opts.arbitration);
  auto res = svc::QueryScheduler(&topo, gpus, opts).Run(queries);
  if (!res.ok()) {
    v->failures.push_back("service run failed: " + res.status().ToString());
    return {};
  }
  const svc::ServiceResult& out = res.value();
  v->matches = out.total_matches;
  v->checksum = out.checksum;
  v->sim_total = out.tenancy.makespan;
  v->shuffled_bytes = out.net.payload_bytes;
  v->fault_reroutes = out.net.fault_reroutes;
  v->fault_aborts = out.net.fault_aborts;

  std::uint64_t oracle_checksum = 0;
  for (const auto& [qid, oracle] : oracles) oracle_checksum += oracle.checksum;
  if (out.tenancy.queries.size() != queries.size()) {
    v->failures.push_back("service completed " +
                          std::to_string(out.tenancy.queries.size()) +
                          " of " + std::to_string(queries.size()) +
                          " queries");
  }
  for (const obs::report::QueryOutcome& q : out.tenancy.queries) {
    const auto it = oracles.find(q.query_id);
    if (it == oracles.end()) {
      v->failures.push_back("unknown query id " + std::to_string(q.query_id) +
                            " in tenancy report");
      continue;
    }
    if (q.matches != it->second.matches) {
      v->failures.push_back(
          "query " + std::to_string(q.query_id) + " matches " +
          std::to_string(q.matches) + " != reference " +
          std::to_string(it->second.matches));
    }
    if (q.complete_at <= q.admit_at || q.admit_at < q.submit_at) {
      v->failures.push_back("query " + std::to_string(q.query_id) +
                            " has a non-causal admission timeline");
    }
    if (q.solo_latency == 0 || q.Latency() == 0) {
      v->failures.push_back("query " + std::to_string(q.query_id) +
                            " is missing latency measurements");
    }
  }
  if (out.checksum != oracle_checksum) {
    v->failures.push_back("summed checksum mismatch vs reference joins");
  }

  KindRun run{true, out.net.payload_bytes, {}, {}};
  // The svc layer emits one admit span per query; the per-GPU phase
  // tiling is a single-query notion.
  run.check_trace = [n = queries.size()](
                        const std::vector<obs::TraceEvent>& events,
                        ScenarioVerdict* v) {
    std::size_t admits = 0;
    for (const obs::TraceEvent& ev : events) {
      if (ev.track == "svc.admission" && ev.name == "admit") ++admits;
    }
    if (admits != n) {
      v->failures.push_back("trace shows " + std::to_string(admits) +
                            " admissions for " + std::to_string(n) +
                            " queries");
    }
  };
  run.check_flows = [outcomes = out.tenancy.queries](
                        const std::map<std::uint64_t, std::uint64_t>& by_query,
                        ScenarioVerdict* v) {
    for (const obs::report::QueryOutcome& q : outcomes) {
      const auto it = by_query.find(q.query_id);
      const std::uint64_t seen = it == by_query.end() ? 0 : it->second;
      if (seen != q.payload_bytes) {
        v->failures.push_back(
            "query " + std::to_string(q.query_id) + " flow telemetry " +
            std::to_string(seen) + " bytes != its payload " +
            std::to_string(q.payload_bytes));
      }
    }
  };
  return run;
}

}  // namespace

std::string ScenarioVerdict::ToText() const {
  std::ostringstream out;
  out << (passed ? "PASS" : "FAIL") << ": matches=" << matches
      << " reference=" << reference_matches
      << " sim_ms=" << sim::ToMillis(sim_total)
      << " shuffled_bytes=" << shuffled_bytes
      << " fault_reroutes=" << fault_reroutes
      << " fault_aborts=" << fault_aborts
      << " auditor_violations=" << auditor_violations
      << " trace_events=" << trace_events
      << " telemetry_ticks=" << telemetry_ticks << "\n";
  for (const std::string& f : failures) out << "  check failed: " << f << "\n";
  return out.str();
}

ScenarioVerdict RunScenario(const ScenarioSpec& spec) {
  ScenarioVerdict v;
  if (const Status st = ValidateScenario(spec); !st.ok()) {
    v.failures.push_back("spec invalid: " + st.ToString());
    return v;
  }
  const auto topo = spec.MakeTopology();
  const topo::GpuSet gpus = topo::FirstNGpus(spec.ResolvedGpus(*topo));

  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler telemetry(obs::TelemetrySampler::IntervalFromEnv());
  obs::InvariantAuditor auditor;
  std::vector<std::string> violations;
  auditor.set_failure_handler(
      [&violations](const std::string& m) { violations.push_back(m); });
  // Scenarios always sample: it exercises the determinism contract
  // (sampling must not perturb the run) on every corpus entry and fuzz
  // iteration, and the exposition below is verdict-checked.
  const join::MgJoinOptions join =
      JoinOptions(spec, *topo, {&trace, &metrics, &auditor, &telemetry});

  // The thread knob stresses the determinism contract; restore the
  // process default afterwards so runs do not leak into each other.
  if (spec.threads > 0) {
    ThreadPool::SetDefaultThreads(static_cast<std::size_t>(spec.threads));
  }
  const KindRun run = spec.queries > 1
                          ? RunService(spec, *topo, gpus, join, &v)
                          : RunSingleJoin(spec, *topo, gpus, join, &v);
  if (spec.threads > 0) ThreadPool::SetDefaultThreads(0);
  v.auditor_violations = violations.size();
  if (!run.ok) {
    for (const std::string& m : violations) v.failures.push_back(m);
    return v;
  }

  v.trace_events = trace.num_events();
  v.trace_json = trace.ToJson();
  v.telemetry_ticks = telemetry.ticks();
  v.telemetry_series = telemetry.series().size();
  v.openmetrics = obs::OpenMetricsText(&metrics, &telemetry);

  // --- The spec's match assertion (the kind checked its oracle). ---
  if (spec.expect_matches >= 0 &&
      v.matches != static_cast<std::uint64_t>(spec.expect_matches)) {
    v.failures.push_back("expect_matches " +
                         std::to_string(spec.expect_matches) +
                         " but got " + std::to_string(v.matches));
  }

  // --- Auditor (includes the no-progress deadlock watchdog). ---
  for (const std::string& m : violations) v.failures.push_back(m);

  // --- Trace well-formedness. ---
  if (trace.num_events() == 0) {
    v.failures.push_back("run recorded no trace events");
  } else {
    auto events = obs::report::EventsFromTraceJson(v.trace_json);
    if (!events.ok()) {
      v.failures.push_back("trace does not parse back: " +
                           events.status().ToString());
    } else {
      bool join_total = false;
      for (const obs::TraceEvent& ev : events.value()) {
        if (ev.track == "join.phases" && ev.name == "join_total") {
          join_total = true;
        }
      }
      if (!join_total) {
        v.failures.push_back("trace is missing the join_total phase span");
      }
      run.check_trace(events.value(), &v);
    }
  }
  if (v.sim_total == 0) {
    v.failures.push_back("simulated time did not advance");
  }

  // --- Telemetry well-formedness + per-flow cross-check. ---
  if (const Status st = obs::LintOpenMetrics(v.openmetrics); !st.ok()) {
    v.failures.push_back("openmetrics exposition malformed: " +
                         st.ToString());
  }
  if (run.payload_bytes > 0 && telemetry.ticks() == 0) {
    v.failures.push_back("telemetry took no samples despite traffic");
  }
  // Grouped by FlowTag query id, the per-query totals must sum to the
  // fabric's delivered payload.
  const std::map<std::uint64_t, std::uint64_t> by_query =
      FlowDeliveredByQuery(telemetry);
  std::uint64_t flow_total = 0;
  for (const auto& [qid, bytes] : by_query) flow_total += bytes;
  if (flow_total != run.payload_bytes) {
    v.failures.push_back("per-flow delivered totals " +
                         std::to_string(flow_total) +
                         " != TransferStats payload_bytes " +
                         std::to_string(run.payload_bytes));
  }
  run.check_flows(by_query, &v);

  v.passed = v.failures.empty();
  return v;
}

}  // namespace mgjoin::scenario
