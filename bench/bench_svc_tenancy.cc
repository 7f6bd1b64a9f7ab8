// Multi-tenant service bench: 8 concurrent MG-Join queries through the
// svc::QueryScheduler on a DGX-1V, once per link-arbitration policy
// (DESIGN.md Sec 15). Reports admission->completion latency quantiles,
// makespan and the mean slowdown-vs-solo — the SLO surface the
// service-smoke CI job gates on. All series are simulated time, so the
// committed baseline must match exactly at a fixed MGJ_BENCH_SCALE.

#include "bench/bench_util.h"
#include "obs/report.h"
#include "svc/service.h"

using namespace mgjoin;
using namespace mgjoin::bench;

namespace {

constexpr int kQueries = 8;

svc::ServiceResult RunService(const topo::Topology* topo,
                              const std::vector<int>& gpus,
                              net::ArbitrationKind arbitration,
                              int inflight) {
  svc::ServiceOptions opts;
  opts.arbitration = arbitration;
  opts.inflight_limit = inflight;
  opts.join.virtual_scale = kPaperScale;
  EnvObs& env = EnvObs::Instance();
  env.Attach(&opts.join.transfer, *topo);
  const std::size_t mark = env.EventsRecorded();

  data::GenOptions gen;
  gen.tuples_per_relation =
      ScaledTuplesPerGpu() * static_cast<std::uint64_t>(gpus.size());
  gen.num_gpus = static_cast<int>(gpus.size());
  const std::vector<svc::QuerySpec> queries =
      svc::TenantQueries(gen, kQueries);

  svc::QueryScheduler sched(topo, gpus, opts);
  svc::ServiceResult res = sched.Run(queries).ValueOrDie();
  BenchReport& report = BenchReport::Instance();
  if (report.enabled()) {
    report.SetTopology(*topo, static_cast<int>(gpus.size()));
    const double secs = sim::ToSeconds(res.tenancy.makespan);
    report.AddRun(env.TakeEventsSince(mark),
                  secs <= 0 ? 0.0
                            : static_cast<double>(res.net.payload_bytes) /
                                  secs);
  }
  return res;
}

}  // namespace

int main() {
  PrintHeader("svc_tenancy", "Service tenancy",
              "per-query SLO quantiles for 8 concurrent joins per link "
              "arbitration policy, DGX-1V");
  auto topo = topo::MakeDgx1V();
  const auto gpus = topo::FirstNGpus(8);

  const net::ArbitrationKind policies[] = {
      net::ArbitrationKind::kFifo,
      net::ArbitrationKind::kFairShare,
      net::ArbitrationKind::kPriority,
  };

  BenchReport& rep = BenchReport::Instance();
  rep.Meta("p50_latency_ms", "ms", false);
  rep.Meta("p95_latency_ms", "ms", false);
  rep.Meta("makespan_ms", "ms", false);
  rep.Meta("mean_slowdown", "x", false);
  std::printf("%-10s %-10s %-10s %-10s %-12s %-10s\n", "policy", "p50_ms",
              "p95_ms", "p99_ms", "makespan_ms", "slowdown");
  for (const net::ArbitrationKind kind : policies) {
    const svc::ServiceResult res =
        RunService(topo.get(), gpus, kind, /*inflight=*/0);
    const obs::report::SloStats& slo = res.tenancy.slo;
    double slowdown = 0.0;
    for (const obs::report::QueryOutcome& q : res.tenancy.queries) {
      slowdown += q.Slowdown();
    }
    slowdown /= static_cast<double>(res.tenancy.queries.size());
    const std::string label = net::ArbitrationKindName(kind);
    std::printf("%-10s %-10.3f %-10.3f %-10.3f %-12.3f %-10.2f\n",
                label.c_str(), static_cast<double>(slo.p50_ns) / 1e6,
                static_cast<double>(slo.p95_ns) / 1e6,
                static_cast<double>(slo.p99_ns) / 1e6,
                sim::ToMillis(res.tenancy.makespan), slowdown);
    rep.Point("p50_latency_ms", label,
              static_cast<double>(slo.p50_ns) / 1e6);
    rep.Point("p95_latency_ms", label,
              static_cast<double>(slo.p95_ns) / 1e6);
    rep.Point("makespan_ms", label, sim::ToMillis(res.tenancy.makespan));
    rep.Point("mean_slowdown", label, slowdown);
  }
  return 0;
}
