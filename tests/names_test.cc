// Table-driven test over the shared name tables: net::kPolicyNames and
// topo::kMachinePresets are the only vocabularies the parsers, scenario
// validation and the mgjoin CLI accept, so the three cannot drift apart.
// Also checks that the CLI rejects out-of-range numeric flags by name.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "net/routing_policy.h"
#include "scenario/scenario.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

// Exit code of `mgjoin <args>`, its stdout discarded; its stderr is read
// through a pipe (so concurrent runs share no file) into `err` if given.
int RunCli(const std::string& args, std::string* err = nullptr) {
  const std::string cmd =
      std::string(MGJ_CLI_PATH) + " " + args + " 2>&1 > /dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::string text;
  char buf[256];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    text.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (err != nullptr) *err = std::move(text);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

scenario::ScenarioSpec SmallSpec() {
  scenario::ScenarioSpec spec;
  spec.name = "names";
  spec.tuples_per_gpu = 64;
  return spec;
}

TEST(NameTablesTest, EveryPolicyKindRoundTripsThroughOneName) {
  // kCentralized is the last enumerator.
  for (int k = 0; k <= static_cast<int>(net::PolicyKind::kCentralized); ++k) {
    const auto kind = static_cast<net::PolicyKind>(k);
    int names = 0;
    for (const net::PolicyName& p : net::kPolicyNames) {
      if (p.kind != kind) continue;
      ++names;
      net::PolicyKind parsed = net::PolicyKind::kDirect;
      ASSERT_TRUE(net::ParsePolicy(p.name, &parsed)) << p.name;
      EXPECT_EQ(parsed, kind) << p.name;
    }
    EXPECT_EQ(names, 1) << net::PolicyKindName(kind);
  }
  net::PolicyKind unused;
  EXPECT_FALSE(net::ParsePolicy("bogus", &unused));
  EXPECT_FALSE(net::ParsePolicy("", &unused));
  EXPECT_FALSE(net::ParsePolicy("Adaptive", &unused));
}

TEST(NameTablesTest, EveryMachineNameBuildsItsPreset) {
  std::set<std::string> names;
  for (const topo::MachinePreset& m : topo::kMachinePresets) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name << " listed twice";
    const auto topo = topo::MakeMachine(m.name);
    ASSERT_NE(topo, nullptr) << m.name;
    EXPECT_EQ(topo->ToString(), m.make()->ToString()) << m.name;
  }
  EXPECT_EQ(topo::MakeMachine("bogus"), nullptr);
  EXPECT_EQ(topo::MakeMachine(""), nullptr);
}

TEST(NameTablesTest, ScenariosAcceptExactlyTheTableNames) {
  for (const topo::MachinePreset& m : topo::kMachinePresets) {
    scenario::ScenarioSpec spec = SmallSpec();
    spec.topology = m.name;
    EXPECT_TRUE(scenario::ValidateScenario(spec).ok()) << m.name;
  }
  for (const net::PolicyName& p : net::kPolicyNames) {
    scenario::ScenarioSpec spec = SmallSpec();
    spec.policy = p.name;
    EXPECT_TRUE(scenario::ValidateScenario(spec).ok()) << p.name;
    EXPECT_EQ(spec.PolicyKind(), p.kind) << p.name;
  }
  scenario::ScenarioSpec spec = SmallSpec();
  spec.topology = "bogus";
  const Status bad_machine = scenario::ValidateScenario(spec);
  EXPECT_NE(bad_machine.message().find(NameList(topo::kMachinePresets)),
            std::string::npos)
      << bad_machine.ToString();
  spec = SmallSpec();
  spec.policy = "bogus";
  const Status bad_policy = scenario::ValidateScenario(spec);
  EXPECT_NE(bad_policy.message().find(NameList(net::kPolicyNames)),
            std::string::npos)
      << bad_policy.ToString();
}

TEST(NameTablesTest, CliAcceptsExactlyTheTableNames) {
  for (const topo::MachinePreset& m : topo::kMachinePresets) {
    EXPECT_EQ(RunCli(std::string("topo --machine=") + m.name), 0) << m.name;
  }
  EXPECT_EQ(RunCli("topo --machine=bogus"), 1);
  for (const net::PolicyName& p : net::kPolicyNames) {
    EXPECT_EQ(RunCli(std::string("join --machine=single --tuples=64 "
                                 "--policy=") +
                     p.name),
              0)
        << p.name;
  }
  EXPECT_EQ(RunCli("join --machine=single --tuples=64 --policy=bogus"), 1);
}

// Numeric flags outside their range exit 1 naming the flag before any
// work runs. `--tuples=-1` used to abort in the generator (exit 134),
// which a test that only expects failure would not tell apart.
TEST(CliFlagsTest, OutOfRangeNumbersExitOneNamingTheFlag) {
  const std::pair<const char*, const char*> cases[] = {
      {"join --tuples=-1", "--tuples must be 1.."},
      {"join --gpus=8 --tuples=536870912", "--tuples must be 1..536870911"},
      {"join --packet-kb=0", "--packet-kb must be 1.."},
      {"serve --queries=0", "--queries must be 1..64"},
      {"serve --inflight=-1", "--inflight must be 0.."},
  };
  for (const auto& [args, message] : cases) {
    std::string err;
    EXPECT_EQ(RunCli(args, &err), 1) << args;
    EXPECT_NE(err.find(message), std::string::npos) << args << ": " << err;
  }
}

}  // namespace
}  // namespace mgjoin
