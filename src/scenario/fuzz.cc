#include "scenario/fuzz.h"

#include <sys/stat.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "scenario/corpus.h"
#include "topo/presets.h"

namespace mgjoin::scenario {

namespace {

std::vector<std::string> SplitClauses(const std::string& faults) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= faults.size()) {
    std::size_t comma = faults.find(',', start);
    if (comma == std::string::npos) comma = faults.size();
    if (comma > start) out.push_back(faults.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::string JoinClauses(const std::vector<std::string>& clauses) {
  std::string out;
  for (const std::string& c : clauses) {
    if (!out.empty()) out += ',';
    out += c;
  }
  return out;
}

int ResolvedGpuCount(const ScenarioSpec& spec) {
  return spec.ResolvedGpus(*spec.MakeTopology());
}

/// Knobs counted as "away from default" by the shrinker's size measure.
/// The workload axes (faults, zipfs, tuples, gpus) have their own
/// components and are excluded here.
std::uint64_t NonDefaultKnobs(const ScenarioSpec& spec) {
  const ScenarioSpec def;
  std::uint64_t n = 0;
  n += spec.topology != def.topology;
  n += spec.policy != def.policy;
  n += spec.packet_kb != def.packet_kb;
  n += spec.batch_packets != def.batch_packets;
  n += spec.ring_mb != def.ring_mb;
  n += spec.compression != def.compression;
  n += spec.threads != def.threads;
  n += spec.seed != def.seed;
  n += spec.virtual_scale != def.virtual_scale;
  n += spec.expect_matches != def.expect_matches;
  return n;
}

/// A fault group that is survivable by construction: a down paired with
/// a later restore, a degrade (never blocks), or full flap cycles
/// (FaultPlan guarantees a flap ends restored). Links are addressed by
/// raw `link<id>` so the grammar works on every topology preset.
std::string MakeFaultGroup(const topo::Topology& topo, Rng* rng) {
  const int link = static_cast<int>(
      rng->Uniform(static_cast<std::uint64_t>(topo.num_links())));
  const unsigned long long t0 = 100 + rng->Uniform(2900);  // us
  char buf[160];
  switch (rng->Uniform(3)) {
    case 0: {
      const unsigned long long t1 = t0 + 200 + rng->Uniform(2800);
      std::snprintf(buf, sizeof(buf),
                    "down:link%d:@%lluus,restore:link%d:@%lluus", link, t0,
                    link, t1);
      break;
    }
    case 1: {
      const double factor = 0.1 + 0.05 * static_cast<double>(rng->Uniform(17));
      std::snprintf(buf, sizeof(buf), "degrade:link%d:%.2f:@%lluus", link,
                    factor, t0);
      break;
    }
    default: {
      const unsigned long long half = 100 + rng->Uniform(400);
      const int cycles = 1 + static_cast<int>(rng->Uniform(4));
      std::snprintf(buf, sizeof(buf), "flap:link%d:@%lluus:%lluusx%d", link,
                    t0, half, cycles);
      break;
    }
  }
  return buf;
}

void ApplyOneMutation(ScenarioSpec* spec, Rng* rng) {
  static const std::uint64_t kTuples[] = {512, 1024, 2048, 4096, 8192, 16384};
  static const std::uint64_t kPacketKb[] = {256, 512, 1024, 2048, 4096};
  static const int kBatches[] = {1, 2, 4, 8, 16};
  static const int kRingMb[] = {2, 4, 8, 16, 64};
  static const int kThreads[] = {0, 1, 2, 8};
  static const double kScales[] = {64, 256, 512, 1024};

  switch (rng->Uniform(14)) {
    case 0:
      spec->key_zipf = 0.1 * static_cast<double>(rng->Uniform(26));
      break;
    case 1:
      spec->placement_zipf = 0.1 * static_cast<double>(rng->Uniform(21));
      break;
    case 2:
      spec->tuples_per_gpu = kTuples[rng->Uniform(6)];
      break;
    case 3:
      spec->gpus = 1 + static_cast<int>(rng->Uniform(
                           static_cast<std::uint64_t>(
                               spec->MakeTopology()->num_gpus())));
      break;
    case 4:
      // Changing the machine invalidates link-addressed faults and the
      // GPU bound, so reset both.
      spec->topology = topo::kMachinePresets[rng->Uniform(
          std::size(topo::kMachinePresets))].name;
      spec->faults.clear();
      spec->gpus = 0;
      break;
    case 5:
      spec->policy =
          net::kPolicyNames[rng->Uniform(std::size(net::kPolicyNames))].name;
      break;
    case 6:
      spec->packet_kb = kPacketKb[rng->Uniform(5)];
      break;
    case 7:
      spec->batch_packets = kBatches[rng->Uniform(5)];
      break;
    case 8:
      spec->ring_mb = kRingMb[rng->Uniform(5)];
      break;
    case 9:
      spec->compression = !spec->compression;
      break;
    case 10:
      spec->threads = kThreads[rng->Uniform(4)];
      break;
    case 11:
      spec->seed = rng->Uniform(1u << 20);
      break;
    case 12:
      spec->virtual_scale = kScales[rng->Uniform(4)];
      break;
    default: {
      const std::string group = MakeFaultGroup(*spec->MakeTopology(), rng);
      if (spec->faults.empty()) {
        spec->faults = group;
      } else if (SplitClauses(spec->faults).size() < 6) {
        spec->faults += "," + group;
      } else {
        spec->faults = group;
      }
      break;
    }
  }
}

}  // namespace

ScenarioSpec MutateSpec(const ScenarioSpec& base, Rng* rng) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    ScenarioSpec spec = base;
    const int edits = 1 + static_cast<int>(rng->Uniform(3));
    for (int e = 0; e < edits; ++e) ApplyOneMutation(&spec, rng);
    // A zero-skew workload has structurally unique keys, so half the
    // time assert the exact match count as a fuzzed invariant.
    if (spec.key_zipf == 0.0 && rng->Uniform(2) == 0) {
      spec.expect_matches = static_cast<std::int64_t>(
          spec.tuples_per_gpu *
          static_cast<std::uint64_t>(ResolvedGpuCount(spec)));
    } else {
      spec.expect_matches = -1;
    }
    if (ValidateScenario(spec).ok()) return spec;
  }
  return base;
}

std::vector<std::uint64_t> SpecSizeVector(const ScenarioSpec& spec) {
  return {
      static_cast<std::uint64_t>(SplitClauses(spec.faults).size()),
      static_cast<std::uint64_t>(spec.placement_zipf > 0.0) +
          static_cast<std::uint64_t>(spec.key_zipf > 0.0),
      spec.tuples_per_gpu,
      static_cast<std::uint64_t>(ResolvedGpuCount(spec)),
      NonDefaultKnobs(spec),
  };
}

ScenarioSpec ShrinkSpec(ScenarioSpec spec,
                        const FailurePredicate& still_fails) {
  const ScenarioSpec def;
  bool progressed = true;
  while (progressed) {
    progressed = false;

    std::vector<ScenarioSpec> candidates;
    auto with = [&](auto edit) {
      ScenarioSpec c = spec;
      edit(&c);
      candidates.push_back(std::move(c));
    };

    if (!spec.faults.empty()) {
      with([](ScenarioSpec* c) { c->faults.clear(); });
      const std::vector<std::string> clauses = SplitClauses(spec.faults);
      for (std::size_t i = 0; i < clauses.size(); ++i) {
        with([&](ScenarioSpec* c) {
          std::vector<std::string> kept = clauses;
          kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(i));
          c->faults = JoinClauses(kept);
        });
      }
    }
    if (spec.key_zipf > 0.0) {
      with([](ScenarioSpec* c) { c->key_zipf = 0.0; });
    }
    if (spec.placement_zipf > 0.0) {
      with([](ScenarioSpec* c) { c->placement_zipf = 0.0; });
    }
    if (spec.tuples_per_gpu > 64) {
      with([](ScenarioSpec* c) { c->tuples_per_gpu = 64; });
      with([](ScenarioSpec* c) { c->tuples_per_gpu /= 2; });
    }
    const int resolved = ResolvedGpuCount(spec);
    if (resolved > 1) {
      with([](ScenarioSpec* c) { c->gpus = 1; });
      with([&](ScenarioSpec* c) { c->gpus = resolved / 2; });
    }
    with([&](ScenarioSpec* c) { c->topology = def.topology; });
    with([&](ScenarioSpec* c) { c->policy = def.policy; });
    with([&](ScenarioSpec* c) { c->packet_kb = def.packet_kb; });
    with([&](ScenarioSpec* c) { c->batch_packets = def.batch_packets; });
    with([&](ScenarioSpec* c) { c->ring_mb = def.ring_mb; });
    with([&](ScenarioSpec* c) { c->compression = def.compression; });
    with([&](ScenarioSpec* c) { c->threads = def.threads; });
    with([&](ScenarioSpec* c) { c->seed = def.seed; });
    with([&](ScenarioSpec* c) { c->virtual_scale = def.virtual_scale; });
    with([&](ScenarioSpec* c) { c->expect_matches = def.expect_matches; });

    const std::vector<std::uint64_t> size = SpecSizeVector(spec);
    for (ScenarioSpec& c : candidates) {
      if (c == spec) continue;
      if (!ValidateScenario(c).ok()) continue;
      // Lexicographic strict decrease guarantees termination.
      if (!(SpecSizeVector(c) < size)) continue;
      if (!still_fails(c)) continue;
      spec = std::move(c);
      progressed = true;
      break;
    }
  }
  return spec;
}

FuzzResult RunFuzz(const FuzzOptions& opts) {
  FuzzResult result;

  std::vector<ScenarioSpec> seeds;
  for (const NamedScenario& named : Corpus()) {
    if (!opts.only.empty() && opts.only != named.name) continue;
    auto spec = LoadScenario(named.text);
    if (spec.ok()) seeds.push_back(std::move(spec).value());
  }
  if (seeds.empty()) return result;

  if (!opts.artifact_dir.empty()) {
    ::mkdir(opts.artifact_dir.c_str(), 0755);  // EEXIST is fine
  }

  Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 1);
  for (int iter = 0; iter < opts.iters; ++iter) {
    ScenarioSpec spec =
        MutateSpec(seeds[rng.Uniform(seeds.size())], &rng);
    spec.name = "fuzz-s" + std::to_string(opts.seed) + "-i" +
                std::to_string(iter);
    if (opts.verbose) {
      std::fprintf(stderr, "[fuzz] iter %d: %s\n", iter,
                   spec.ToText().c_str());
    }
    const ScenarioVerdict verdict = RunScenario(spec);
    ++result.iterations;
    if (verdict.passed) continue;

    FuzzFailure failure;
    failure.original = spec;
    failure.minimized = ShrinkSpec(
        spec, [](const ScenarioSpec& s) { return !RunScenario(s).passed; });
    failure.minimized.name = spec.name + "-min";
    const ScenarioVerdict min_verdict = RunScenario(failure.minimized);
    failure.verdict_text = min_verdict.ToText();

    if (!opts.artifact_dir.empty()) {
      const std::string stem = opts.artifact_dir + "/" + failure.minimized.name;
      failure.spec_path = stem + ".scenario";
      failure.trace_path = stem + ".trace.json";
      if (!obs::WriteTextFile(failure.spec_path, failure.minimized.ToText())
               .ok() ||
          !obs::WriteTextFile(failure.trace_path, min_verdict.trace_json)
               .ok()) {
        failure.spec_path.clear();
        failure.trace_path.clear();
      }
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

}  // namespace mgjoin::scenario
