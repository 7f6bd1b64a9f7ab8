// Table-driven test over the shared name tables: net::kPolicyNames and
// topo::kMachinePresets are the only vocabularies the parsers, scenario
// validation and the mgjoin CLI accept, so the three cannot drift apart.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <set>
#include <string>

#include "net/routing_policy.h"
#include "scenario/scenario.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

// Exit code of `mgjoin <args>`, its output discarded.
int RunCli(const std::string& args) {
  const std::string cmd =
      std::string(MGJ_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
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

}  // namespace
}  // namespace mgjoin
