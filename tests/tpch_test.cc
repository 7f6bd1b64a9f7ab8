// Tests for the TPC-H layer: generator fidelity, query correctness
// (MG-Join vs DPRJ engines must agree), and the OmniSci model's NA
// behaviour.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>

#include "exec/engine.h"
#include "topo/presets.h"
#include "tpch/dbgen.h"
#include "tpch/omnisci_model.h"
#include "tpch/queries.h"

namespace mgjoin::tpch {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = topo::MakeDgx1V().release();
    db_ = new TpchData(GenerateTpch(0.01, 4));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete topo_;
    db_ = nullptr;
    topo_ = nullptr;
  }

  exec::Engine MakeEngine(join::MgJoinOptions jopts = {}) {
    exec::EngineOptions opts;
    opts.join = jopts;
    opts.join.virtual_scale = 25000.0;  // SF 0.01 -> virtual SF 250
    return exec::Engine(topo_, topo::FirstNGpus(4), opts);
  }

  static topo::Topology* topo_;
  static TpchData* db_;
};

topo::Topology* TpchTest::topo_ = nullptr;
TpchData* TpchTest::db_ = nullptr;

TEST_F(TpchTest, GeneratorCardinalities) {
  EXPECT_EQ(db_->orders.rows(), 15000u);
  EXPECT_EQ(db_->customer.rows(), 1500u);
  EXPECT_EQ(db_->supplier.rows(), 100u);
  EXPECT_EQ(db_->part.rows(), 2000u);
  EXPECT_EQ(db_->nation.rows(), 25u);
  EXPECT_EQ(db_->region.rows(), 5u);
  // ~4 lines per order on average.
  EXPECT_GT(db_->lineitem.rows(), 3 * db_->orders.rows());
  EXPECT_LT(db_->lineitem.rows(), 5 * db_->orders.rows());
}

TEST_F(TpchTest, ForeignKeysResolve) {
  std::set<std::int64_t> orderkeys;
  for (const auto& shard : db_->orders.shards) {
    for (auto k : shard.col("o_orderkey").ints) orderkeys.insert(k);
  }
  for (const auto& shard : db_->lineitem.shards) {
    for (auto k : shard.col("l_orderkey").ints) {
      ASSERT_TRUE(orderkeys.count(k)) << "dangling l_orderkey " << k;
    }
  }
}

TEST_F(TpchTest, LineitemDatesAreConsistent) {
  for (const auto& shard : db_->lineitem.shards) {
    const auto& ship = shard.col("l_shipdate").ints;
    const auto& receipt = shard.col("l_receiptdate").ints;
    for (std::size_t i = 0; i < ship.size(); ++i) {
      EXPECT_LT(ship[i], receipt[i]);
    }
  }
}

TEST_F(TpchTest, DictionariesArePopulated) {
  EXPECT_EQ(db_->customer.shards[0].dict("c_mktsegment").size(), 5u);
  EXPECT_EQ(db_->lineitem.shards[0].dict("l_shipmode").size(),
            static_cast<std::size_t>(codes::kNumModes));
  EXPECT_EQ(db_->part.shards[0].dict("p_brand").size(), 25u);
  EXPECT_EQ(db_->part.shards[0].dict("p_container").size(),
            static_cast<std::size_t>(codes::kNumContainers));
  EXPECT_EQ(db_->part.shards[0].dict("p_type").size(),
            static_cast<std::size_t>(codes::kNumTypes));
  // Q19's container groups name-check.
  const auto& cont = db_->part.shards[0].dict("p_container");
  EXPECT_EQ(cont[codes::kContSmCase], "SM CASE");
  EXPECT_EQ(cont[codes::kContMedBag], "MED BAG");
  EXPECT_EQ(cont[codes::kContLgPkg], "LG PKG");
}

TEST_F(TpchTest, AllQueriesRunAndEnginesAgree) {
  for (const auto& [name, fn] : AllQueries()) {
    exec::Engine mg = MakeEngine();
    exec::Engine dprj = MakeEngine(join::MgJoinOptions::Dprj());
    auto a = fn(mg, *db_);
    auto b = fn(dprj, *db_);
    ASSERT_TRUE(a.ok()) << name << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << name;
    // Same functional answer regardless of the join backend (summation
    // order may differ, so compare with a relative tolerance).
    EXPECT_NEAR(a.value().value, b.value().value,
                std::abs(a.value().value) * 1e-9 + 1e-9)
        << name;
    EXPECT_EQ(a.value().result_rows, b.value().result_rows) << name;
    EXPECT_GT(a.value().time, 0u) << name;
    // DPRJ must not be faster.
    EXPECT_GE(b.value().time, a.value().time) << name;
  }
}

// Exact answers of every query at SF 0.01 on 4 GPUs, under both join
// backends. Doubles are hex-float literals and compare by bit pattern, so
// any change in what a query reads, charges or sums (summation order
// included) shows up here.
TEST_F(TpchTest, QueryOutputsMatchPinnedValues) {
  struct Pinned {
    const char* name;
    bool dprj;
    double value;
    std::uint64_t result_rows;
    sim::SimTime time;
    double ops[7];  // OpCounts in declaration order
  };
  const Pinned kPinned[] = {
      {"Q3", false, 0x1.3ba668ee69b0fp+21, 10u, 619210315570u,
       {0x1.c7a2c2ep+30, 0x1.108578fp+31, 0x1.beb1f16p+30, 0x1.8fc7cp+21,
        0x1.d9db5f8p+32, 0x1.896402p+28, 0x1.6c92dc32p+34}},
      {"Q5", false, 0x1.2c76144a535ccp+21, 5u, 1112750356820u,
       {0x1.c83b596p+30, 0x1.c376a56p+31, 0x1.91fdd9ep+31, 0x1.4p+2,
        0x1.db0c8c8p+32, 0x1.8bc65cp+28, 0x1.6ca5ef02p+34}},
      {"Q10", false, 0x1.789dc55c201d9p+22, 20u, 998070987314u,
       {0x1.c7a2c2ep+30, 0x1.967642ap+31, 0x1.6549c26p+31, 0x1.3e255p+23,
        0x1.d9db5f8p+32, 0x1.896402p+28, 0x1.6c92dc32p+34}},
      {"Q12", false, 0x1.51p+8, 2u, 435620010977u,
       {0x1.beb1f16p+30, 0x1.beb1f16p+30, 0x1.6549c26p+30, 0x1p+1,
        0x1.bf08ebp+32, 0x1.65a0bcp+28, 0x1.6ae5b4eap+34}},
      {"Q14", false, 0x1.05665553eaa2dp+4, 1u, 418217819617u,
       {0x1.7135846p+30, 0x1.7135846p+30, 0x1.6549c26p+30, 0x1p+0,
        0x1.dcd65p+29, 0x1.7d784p+25, 0x1.52aed2dap+34}},
      {"Q19", false, 0x1.1a0c19e3809cp+16, 1u, 527828971422u,
       {0x1.7135846p+30, 0x1.7135846p+30, 0x1.6549c26p+30, 0x1.24f8p+16,
        0x1.dcd65p+29, 0x1.7d784p+25, 0x1.52aed2dap+34}},
      {"Q3", true, 0x1.3ba668ee69b0fp+21, 10u, 683587815715u,
       {0x1.c7a2c2ep+30, 0x1.108578fp+31, 0x1.beb1f16p+30, 0x1.8fc7cp+21,
        0x1.d9db5f8p+32, 0x1.896402p+28, 0x1.6c92dc32p+34}},
      {"Q5", true, 0x1.2c76144a535ccp+21, 5u, 1216941259093u,
       {0x1.c83b596p+30, 0x1.c376a56p+31, 0x1.91fdd9ep+31, 0x1.4p+2,
        0x1.db0c8c8p+32, 0x1.8bc65cp+28, 0x1.6ca5ef02p+34}},
      {"Q10", true, 0x1.789dc55c201d9p+22, 20u, 1092786412784u,
       {0x1.c7a2c2ep+30, 0x1.967642ap+31, 0x1.6549c26p+31, 0x1.3e255p+23,
        0x1.d9db5f8p+32, 0x1.896402p+28, 0x1.6c92dc32p+34}},
      {"Q12", true, 0x1.51p+8, 2u, 486071451951u,
       {0x1.beb1f16p+30, 0x1.beb1f16p+30, 0x1.6549c26p+30, 0x1p+1,
        0x1.bf08ebp+32, 0x1.65a0bcp+28, 0x1.6ae5b4eap+34}},
      {"Q14", true, 0x1.05665553eaa29p+4, 1u, 462746650722u,
       {0x1.7135846p+30, 0x1.7135846p+30, 0x1.6549c26p+30, 0x1p+0,
        0x1.dcd65p+29, 0x1.7d784p+25, 0x1.52aed2dap+34}},
      {"Q19", true, 0x1.1a0c19e3809cp+16, 1u, 572357802527u,
       {0x1.7135846p+30, 0x1.7135846p+30, 0x1.6549c26p+30, 0x1.24f8p+16,
        0x1.dcd65p+29, 0x1.7d784p+25, 0x1.52aed2dap+34}},
  };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::size_t checked = 0;
  for (const bool dprj : {false, true}) {
    for (const auto& [name, fn] : AllQueries()) {
      const Pinned* want = nullptr;
      for (const Pinned& p : kPinned) {
        if (p.name == name && p.dprj == dprj) want = &p;
      }
      ASSERT_NE(want, nullptr) << name;
      exec::Engine eng =
          dprj ? MakeEngine(join::MgJoinOptions::Dprj()) : MakeEngine();
      auto r = fn(eng, *db_);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      const QueryOutput& q = r.value();
      const std::string where = name + (dprj ? " (DPRJ)" : " (MG-Join)");
      EXPECT_EQ(bits(q.value), bits(want->value)) << where;
      EXPECT_EQ(q.result_rows, want->result_rows) << where;
      EXPECT_EQ(q.time, want->time) << where;
      const double got_ops[7] = {
          q.ops.rows_scanned,     q.ops.rows_joined,
          q.ops.join_output_rows, q.ops.rows_out,
          q.ops.replicated_bytes, q.ops.replicated_rows,
          q.ops.local_bytes};
      for (int i = 0; i < 7; ++i) {
        EXPECT_EQ(bits(got_ops[i]), bits(want->ops[i]))
            << where << " OpCounts field " << i;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

TEST_F(TpchTest, Q14PercentageIsPlausible) {
  exec::Engine eng = MakeEngine();
  auto q = RunQ14(eng, *db_);
  ASSERT_TRUE(q.ok());
  // 25 of 150 part types are PROMO -> ~16.7% of revenue.
  EXPECT_GT(q.value().value, 8.0);
  EXPECT_LT(q.value().value, 25.0);
}

TEST_F(TpchTest, Q12CountsAreBounded) {
  exec::Engine eng = MakeEngine();
  auto q = RunQ12(eng, *db_);
  ASSERT_TRUE(q.ok());
  EXPECT_LE(q.value().result_rows, 2u);  // MAIL and SHIP
  EXPECT_LT(q.value().value,
            static_cast<double>(db_->lineitem.rows()));
}

TEST_F(TpchTest, OmnisciNaPatternMatchesPaper) {
  // At virtual SF 250, the shared-nothing GPU model must reject the
  // orders/customer-joining queries and accept the part-joining ones.
  const std::set<std::string> expect_na = {"Q3", "Q5", "Q10", "Q12"};
  for (const auto& [name, fn] : AllQueries()) {
    exec::Engine eng = MakeEngine();
    auto q = fn(eng, *db_);
    ASSERT_TRUE(q.ok());
    const auto gpu = EstimateOmnisci(q.value().ops, OmnisciMode::kGpu, 8);
    EXPECT_EQ(!gpu.supported, expect_na.count(name) > 0)
        << name << ": per-GPU bytes " << gpu.per_gpu_bytes;
    const auto cpu = EstimateOmnisci(q.value().ops, OmnisciMode::kCpu, 8);
    EXPECT_TRUE(cpu.supported);
    EXPECT_GT(cpu.time, q.value().time) << name;
  }
}

TEST_F(TpchTest, OmnisciGpuSupportsSmallScale) {
  // At a small virtual scale everything fits on-device.
  exec::EngineOptions opts;
  opts.join.virtual_scale = 100.0;  // SF 1
  exec::Engine eng(topo_, topo::FirstNGpus(4), opts);
  auto q = RunQ3(eng, *db_);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(
      EstimateOmnisci(q.value().ops, OmnisciMode::kGpu, 8).supported);
}

}  // namespace
}  // namespace mgjoin::tpch
