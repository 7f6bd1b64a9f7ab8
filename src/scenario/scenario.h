#ifndef MGJOIN_SCENARIO_SCENARIO_H_
#define MGJOIN_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/fault_plan.h"
#include "net/routing_policy.h"
#include "topo/topology.h"

namespace mgjoin::scenario {

/// \brief One adversarial scenario: a complete, self-contained
/// description of a join run — workload, topology, fault schedule and
/// every engine knob — in a form that can be parsed, serialized,
/// mutated and shrunk (DESIGN.md Sec 12).
///
/// The DSL is a flat `key = value` list, one assignment per line (or
/// `;`-separated on a single line); `#` starts a comment. Unknown keys
/// are errors so typos fail loudly. Example:
///
///   name = hot-key-flap-storm
///   topology = dgx1
///   gpus = 8
///   tuples_per_gpu = 8192
///   key_zipf = 1.5
///   faults = flap:nvlink2:@1ms:250usx4
///
/// Every omitted key keeps its default, so a spec is exactly as long as
/// its deviation from the healthy baseline run — which is what makes
/// shrinking meaningful: the minimal failing spec *is* the repro.
struct ScenarioSpec {
  /// Identifier (no whitespace); becomes the artifact file stem.
  std::string name;
  /// Machine preset, a topo::kMachinePresets name.
  std::string topology = "dgx1";
  /// Participating GPUs (dense prefix); 0 = all GPUs of the preset.
  int gpus = 0;
  /// Functional tuples per GPU per relation.
  std::uint64_t tuples_per_gpu = 8192;
  /// Zipf factor of tuple placement across GPUs (Fig 5b/9 axis).
  double placement_zipf = 0.0;
  /// Zipf factor of key frequency in S (heavy hitters).
  double key_zipf = 0.0;
  /// Routing policy, a net::kPolicyNames name.
  std::string policy = "adaptive";
  /// Packet payload in KiB.
  std::uint64_t packet_kb = 2048;
  /// Packets per batch.
  int batch_packets = 8;
  /// Ring-buffer capacity per (receiver, upstream) pair in MiB.
  int ring_mb = 64;
  /// Transfer compression on/off.
  bool compression = true;
  /// Host worker threads (0 = MGJ_THREADS env, then hardware). The
  /// determinism contract makes this a pure stress knob: results and
  /// traces must not change with it.
  int threads = 0;
  /// Workload generator seed.
  std::uint64_t seed = 42;
  /// Timing-layer scale multiplier (functional data stays small).
  double virtual_scale = 1.0;
  /// Concurrent queries sharing the fabric (multi-tenant service;
  /// DESIGN.md Sec 15). 1 = the plain single-query runner.
  int queries = 1;
  /// Admission limit: queries on the fabric at once (0 = unlimited).
  int inflight = 0;
  /// Link arbitration between tenants: fifo | fair | priority.
  std::string arbitration = "fifo";
  /// Link fault schedule (net::FaultPlan grammar), "" = healthy fabric.
  std::string faults;
  /// Optional assertion: exact expected match count (-1 = unset). With
  /// key_zipf = 0 every key matches exactly once, so z=0 specs can pin
  /// matches structurally; it is also the fuzzer's self-test hook.
  std::int64_t expect_matches = -1;

  bool operator==(const ScenarioSpec&) const = default;

  /// Canonical serialization: fixed key order, round-trips exactly
  /// through Parse. Defaults are written out (except expect_matches
  /// when unset) so a spec file is self-documenting.
  std::string ToText() const;

  /// Builds the spec's topology preset (topo::kMachinePresets); nullptr
  /// for a name ValidateScenario rejects.
  std::unique_ptr<topo::Topology> MakeTopology() const;

  /// Dense GPU count after resolving gpus == 0 against the preset.
  int ResolvedGpus(const topo::Topology& topo) const;

  /// Parsed routing policy (validation guarantees the string is known).
  net::PolicyKind PolicyKind() const;
};

/// Parses the DSL. Errors name the offending line and key.
Result<ScenarioSpec> ParseScenario(const std::string& text);

/// \brief Semantic validation: known topology/policy, ranges on every
/// knob, fault spec parses against the topology, and the fault plan is
/// *survivable* (no link left down at end of schedule — an unsurvivable
/// plan would deadlock the distribution by construction, which is a
/// spec bug, not an engine bug).
Status ValidateScenario(const ScenarioSpec& spec);

/// Parse + Validate in one step (the loader entry point).
Result<ScenarioSpec> LoadScenario(const std::string& text);

/// Reads and loads a spec file.
Result<ScenarioSpec> LoadScenarioFile(const std::string& path);

}  // namespace mgjoin::scenario

#endif  // MGJOIN_SCENARIO_SCENARIO_H_
