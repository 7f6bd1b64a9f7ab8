#ifndef MGJOIN_SCENARIO_FUZZ_H_
#define MGJOIN_SCENARIO_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace mgjoin::scenario {

/// True when `spec` should be considered a failure worth keeping. The
/// shrinker minimizes *with respect to this predicate*, so it works for
/// both the real fuzz loop (`!RunScenario(s).passed`) and synthetic
/// predicates in tests.
using FailurePredicate = std::function<bool(const ScenarioSpec&)>;

/// \brief Returns a mutated, *valid* variant of `base`.
///
/// Applies 1-3 random edits (skew factors, workload size, GPU count,
/// topology, routing policy, transfer knobs, threads, seed, and fault
/// groups that are survivable by construction: down+restore pairs,
/// degrades, full flap cycles) and re-validates; invalid mutants are
/// retried, and `base` itself is returned if no valid mutant is found.
/// Deterministic given the Rng state.
ScenarioSpec MutateSpec(const ScenarioSpec& base, Rng* rng);

/// \brief Size measure driving the shrinker, ordered lexicographically:
/// (fault clauses, nonzero skew axes, tuples_per_gpu, GPUs, knobs away
/// from default). Every accepted shrink step strictly decreases this
/// vector, so shrinking terminates.
std::vector<std::uint64_t> SpecSizeVector(const ScenarioSpec& spec);

/// \brief Greedily shrinks `spec` to a minimal failing repro: repeatedly
/// applies the first candidate edit (clear/drop fault clauses, zero the
/// skews, shrink the workload, reduce GPUs, reset knobs to defaults)
/// that both validates and still satisfies `still_fails`, until no
/// candidate does. The result still fails and no single candidate edit
/// of it does better — a local minimum under SpecSizeVector.
ScenarioSpec ShrinkSpec(ScenarioSpec spec, const FailurePredicate& still_fails);

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iters = 50;
  /// Directory for minimized-repro artifacts ("" disables writing).
  std::string artifact_dir;
  /// Fuzz only mutants of this corpus entry ("" = whole corpus).
  std::string only;
  bool verbose = false;
};

/// One minimized failure found by the fuzz loop.
struct FuzzFailure {
  ScenarioSpec original;   ///< the mutant that first failed
  ScenarioSpec minimized;  ///< shrunk repro (still fails)
  std::string verdict_text;  ///< ToText() of the minimized run's verdict
  std::string spec_path;   ///< artifact paths ("" when not written)
  std::string trace_path;
};

struct FuzzResult {
  int iterations = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// \brief The property-based fuzz loop: for each iteration, pick a
/// corpus scenario, mutate it, run it, and on a failed verdict shrink to
/// a minimal repro and write `<name>.scenario` + `<name>.trace.json`
/// into `artifact_dir`. Fully deterministic from `seed`.
FuzzResult RunFuzz(const FuzzOptions& opts);

}  // namespace mgjoin::scenario

#endif  // MGJOIN_SCENARIO_FUZZ_H_
