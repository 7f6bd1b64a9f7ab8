#include "svc/service.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace mgjoin::svc {

namespace {

// Flow ids encode (query index << shift) | per-query ordinal, so the
// deliver callback maps a packet back to its query with one shift — no
// map lookup on the per-packet path.
constexpr int kFlowIdShift = 20;

/// One distinct dataset of a run: its host-side preparation and its solo
/// latency, shared by every query over it.
struct Dataset {
  data::GenOptions gen;
  join::PreparedJoin prepared;
  sim::SimTime solo_latency = 0;
};

/// One query's state in the shared simulation.
struct QueryState {
  const QuerySpec* spec = nullptr;
  const Dataset* dataset = nullptr;
  sim::SimTime admit_at = 0;
  sim::SimTime complete_at = 0;
  std::vector<sim::SimTime> last_arrival;  // per dense GPU, absolute
  sim::SimTime last_delivery = 0;
  std::uint64_t pending = 0;
  bool done = false;
};

}  // namespace

std::vector<QuerySpec> TenantQueries(const data::GenOptions& base, int n) {
  std::vector<QuerySpec> queries(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    QuerySpec& qs = queries[static_cast<std::size_t>(q)];
    qs.query_id = static_cast<std::uint64_t>(q + 1);
    qs.gen = base;
    qs.gen.seed = base.seed + static_cast<std::uint64_t>(q);
    qs.priority = q % 3;
  }
  return queries;
}

QueryScheduler::QueryScheduler(const topo::Topology* topo,
                               std::vector<int> gpus,
                               ServiceOptions options)
    : topo_(topo), gpus_(std::move(gpus)), options_(std::move(options)) {
  MGJ_CHECK(topo_ != nullptr);
  MGJ_CHECK(!gpus_.empty());
  if (options_.join.host_threads > 0) {
    ThreadPool::SetDefaultThreads(
        static_cast<std::size_t>(options_.join.host_threads));
  }
}

Result<ServiceResult> QueryScheduler::Run(
    const std::vector<QuerySpec>& queries) const {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries submitted");
  }
  if (options_.join.virtual_scale <= 0) {
    return Status::InvalidArgument("virtual_scale must be > 0");
  }
  if (options_.inflight_limit < 0) {
    return Status::InvalidArgument("inflight_limit must be >= 0");
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (std::size_t j = i + 1; j < queries.size(); ++j) {
      if (queries[i].query_id == queries[j].query_id) {
        return Status::InvalidArgument(
            "duplicate query_id " +
            std::to_string(queries[i].query_id));
      }
    }
  }

  // ---- Host phases, once per distinct dataset: generation, the
  // functional join and the solo baseline all run before the shared
  // simulation, so its event loop is pure timing. The preparing join is
  // timing-only (no obs sinks, no faults, FIFO): its host-phase timers
  // stay out of the run's metrics, and its Simulate is the solo run on
  // an idle, healthy fabric. Both caches live for this Run only.
  // The distinct datasets are found in query order, then prepared one
  // task per dataset (DESIGN.md Sec 15). Errors are read in dataset
  // order after the loop, so they do not depend on the thread count.
  join::MgJoinOptions solo_opts = options_.join;
  solo_opts.transfer.obs = obs::ObsHooks{};
  solo_opts.transfer.faults = net::FaultPlan{};
  solo_opts.transfer.arbitration = net::ArbitrationKind::kFifo;
  solo_opts.materialize_pairs = false;
  solo_opts.host_threads = 0;  // the constructor already applied it
  solo_opts.query_id = 0;
  const join::MgJoin solo_join(topo_, gpus_, solo_opts);

  std::deque<Dataset> datasets;  // stable addresses for QueryState
  std::vector<QueryState> states(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    data::GenOptions gen = queries[qi].gen;
    gen.num_gpus = static_cast<int>(gpus_.size());
    Dataset* dataset = nullptr;
    for (Dataset& d : datasets) {
      if (d.gen == gen) dataset = &d;
    }
    if (dataset == nullptr) {
      dataset = &datasets.emplace_back();
      dataset->gen = gen;
    }
    states[qi].spec = &queries[qi];
    states[qi].dataset = dataset;
    states[qi].last_arrival.assign(gpus_.size(), 0);
  }
  std::vector<Status> prepare_status(datasets.size());
  ParallelFor(0, datasets.size(), [&](std::size_t i) {
    Dataset& d = datasets[i];
    Result<join::PreparedJoin> prepared = [&] {
      const auto [r, s] = data::MakeJoinInput(d.gen);
      return solo_join.Prepare(r, s);
    }();
    if (!prepared.ok()) {
      prepare_status[i] = prepared.status();
      return;
    }
    d.prepared = std::move(prepared).value();
    if (options_.measure_solo) {
      d.solo_latency = solo_join.Simulate(d.prepared).timing.total;
    }
  });
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    MGJ_RETURN_NOT_OK(prepare_status[i]);
    MGJ_CHECK(datasets[i].prepared.flows.size() <
              (std::size_t{1} << kFlowIdShift))
        << "dataset " << i << " has too many flows";
  }

  // ---- Shared fabric: one simulator, one engine, all tenants.
  sim::Simulator sim;
  auto policy = net::MakePolicy(options_.join.policy,
                                options_.join.transfer.max_intermediates);
  net::TransferOptions topts = options_.join.transfer;
  topts.arbitration = options_.arbitration;
  net::TransferEngine engine(&sim, topo_, gpus_, policy.get(), topts);

  obs::TraceRecorder* tr = topts.obs.trace;
  const int svc_track = tr != nullptr ? tr->Track("svc.admission") : -1;

  std::deque<std::size_t> admit_queue;
  std::vector<std::size_t> admission_order;
  int active = 0;

  std::function<void(std::size_t)> schedule_completion;
  std::function<void()> try_admit;

  schedule_completion = [&](std::size_t qi) {
    const QueryState& q = states[qi];
    const sim::SimTime end = q.dataset->prepared.CompleteTime(
        q.admit_at, q.last_arrival, q.last_delivery);
    MGJ_CHECK(end >= sim.Now()) << "completion scheduled in the past";
    sim.ScheduleAt(end, [&, qi] {
      QueryState& q = states[qi];
      q.done = true;
      q.complete_at = sim.Now();
      --active;
      if (tr != nullptr) {
        tr->Span(tr->Track("svc.q" + std::to_string(q.spec->query_id)),
                 "svc", "query", q.admit_at, q.complete_at,
                 {{"query", q.spec->query_id},
                  {"payload_bytes", q.dataset->prepared.payload_bytes},
                  {"matches", q.dataset->prepared.matches}});
      }
      try_admit();
    });
  };

  try_admit = [&] {
    while (!admit_queue.empty() &&
           (options_.inflight_limit == 0 ||
            active < options_.inflight_limit)) {
      const std::size_t qi = admit_queue.front();
      admit_queue.pop_front();
      QueryState& q = states[qi];
      const join::PreparedJoin& p = q.dataset->prepared;
      q.admit_at = sim.Now();
      admission_order.push_back(qi);
      ++active;
      if (tr != nullptr) {
        tr->Instant(svc_track, "svc", "admit", sim.Now(),
                    {{"query", q.spec->query_id},
                     {"active", static_cast<std::uint64_t>(active)}});
      }
      if (p.payload_bytes == 0) {
        // Nothing to shuffle (e.g. every partition stayed local): the
        // query completes on compute time alone.
        schedule_completion(qi);
        continue;
      }
      q.pending = p.payload_bytes;
      p.AdmitFlows(&engine, q.admit_at,
                   static_cast<std::uint64_t>(qi) << kFlowIdShift,
                   q.spec->query_id, q.spec->priority);
    }
  };

  engine.set_deliver_callback(
      [&](const net::Packet& pkt, sim::SimTime when) {
        const std::size_t qi =
            static_cast<std::size_t>(pkt.flow_id >> kFlowIdShift);
        QueryState& q = states[qi];
        sim::SimTime& at =
            q.last_arrival[q.dataset->prepared.dense[pkt.final_dst()]];
        at = std::max(at, when);
        q.last_delivery = std::max(q.last_delivery, when);
        MGJ_CHECK(q.pending >= pkt.payload_bytes);
        q.pending -= pkt.payload_bytes;
        if (q.pending == 0) schedule_completion(qi);
      });

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    sim.ScheduleAt(queries[qi].submit_at, [&, qi] {
      admit_queue.push_back(qi);
      if (tr != nullptr) {
        tr->Instant(svc_track, "svc", "submit", sim.Now(),
                    {{"query", queries[qi].query_id}});
      }
      try_admit();
    });
  }

  engine.Start();  // no pre-start flows: queries admit dynamically
  sim.Run();
  MGJ_CHECK(engine.AllDone()) << "service run did not drain the fabric";

  // ---- Assemble the report (admission order).
  ServiceResult out;
  out.net = engine.stats();
  out.tenancy.arbitration = net::ArbitrationKindName(options_.arbitration);
  out.tenancy.inflight_limit = options_.inflight_limit;
  sim::SimTime last_complete = 0;
  for (const std::size_t qi : admission_order) {
    const QueryState& s = states[qi];
    const join::PreparedJoin& p = s.dataset->prepared;
    MGJ_CHECK(s.done) << "query " << s.spec->query_id << " never completed";
    obs::report::QueryOutcome q;
    q.query_id = s.spec->query_id;
    q.priority = s.spec->priority;
    q.submit_at = s.spec->submit_at;
    q.admit_at = s.admit_at;
    q.complete_at = s.complete_at;
    q.payload_bytes = p.payload_bytes;
    q.matches = p.matches;
    q.solo_latency = s.dataset->solo_latency;
    out.tenancy.queries.push_back(q);
    out.total_matches += p.matches;
    out.checksum += p.checksum;
    last_complete = std::max(last_complete, s.complete_at);
  }
  MGJ_CHECK(out.tenancy.queries.size() == queries.size())
      << "not every query was admitted";
  out.tenancy.Finalize();
  if (tr != nullptr) {
    // The analytics pipeline keys on a "join_total" span covering the
    // whole run (obs/report span contract).
    tr->Span(tr->Track("join.phases"), "join", "join_total", 0,
             last_complete,
             {{"matches", out.total_matches},
              {"queries",
               static_cast<std::uint64_t>(queries.size())}});
  }
  return out;
}

}  // namespace mgjoin::svc
