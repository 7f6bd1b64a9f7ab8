// Tests for the mini relational engine: tables, projections, joins,
// pair gathers, materialization and the simulated query clock.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "exec/engine.h"
#include "exec/table.h"
#include "topo/presets.h"

namespace mgjoin::exec {
namespace {

using Pair = std::pair<std::uint32_t, std::uint32_t>;

DistTable MakeKv(int shards, const std::vector<std::int64_t>& keys,
                 const std::vector<std::int64_t>& values) {
  DistTable t;
  t.shards.resize(shards);
  for (Table& s : t.shards) {
    s.AddColumn("k", ColType::kInt32);
    s.AddColumn("v", ColType::kInt64);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Table& s = t.shards[i % shards];
    s.col("k").ints.push_back(keys[i]);
    s.col("v").ints.push_back(values[i]);
  }
  return t;
}

TEST(TableTest, ColumnsAndRows) {
  Table t;
  t.AddColumn("a", ColType::kInt32);
  t.AddColumn("b", ColType::kDouble);
  t.col("a").ints = {1, 2, 3};
  t.col("b").doubles = {1.5, 2.5, 3.5};
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.TotalBytes(), 3 * 4 + 3 * 8u);
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_FALSE(t.HasColumn("z"));
}

TEST(TableTest, DateConversion) {
  EXPECT_EQ(DateToDays(1970, 1, 1), 0);
  EXPECT_EQ(DateToDays(1970, 1, 2), 1);
  EXPECT_EQ(DateToDays(1995, 3, 15), 9204);
  // Ordering holds across the TPC-H date range.
  EXPECT_LT(DateToDays(1992, 1, 1), DateToDays(1998, 8, 2));
  EXPECT_LT(DateToDays(1994, 12, 31), DateToDays(1995, 1, 1));
}

// A table with one int and one double column whose values encode the
// global row id: `int_name` = base + row, `double_name` = row + 0.5.
DistTable MakeStacked(const std::vector<int>& shard_rows,
                      const std::string& int_name,
                      const std::string& double_name, std::int64_t base) {
  DistTable t;
  t.shards.resize(shard_rows.size());
  std::int64_t row = 0;
  for (std::size_t s = 0; s < shard_rows.size(); ++s) {
    Table& shard = t.shards[s];
    shard.AddColumn(int_name, ColType::kInt64);
    shard.AddColumn(double_name, ColType::kDouble);
    for (int i = 0; i < shard_rows[s]; ++i, ++row) {
      shard.col(int_name).ints.push_back(base + row);
      shard.col(double_name).doubles.push_back(static_cast<double>(row) + 0.5);
    }
  }
  return t;
}

TEST(TableTest, GatherPairsKeepsPairOrderAcrossUnevenShards) {
  // Left global rows: shard0 = 0..2, shard1 empty, shard2 = 3,
  // shard3 = 4..5. Right: shard0 empty, shard1 = 0..2.
  const DistTable left = MakeStacked({3, 0, 1, 2}, "l", "lx", 100);
  const DistTable right = MakeStacked({0, 3}, "r", "rx", 200);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {5, 0}, {0, 2}, {3, 1}, {3, 0}, {2, 2}, {4, 1}};
  const Table out = GatherPairs(left, right, pairs, {"l", "lx"}, {"rx", "r"});
  EXPECT_EQ(out.column_names(),
            (std::vector<std::string>{"l", "lx", "rx", "r"}));
  EXPECT_EQ(out.col("lx").type, ColType::kDouble);
  EXPECT_EQ(out.col("r").type, ColType::kInt64);
  ASSERT_EQ(out.rows(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [lrow, rrow] = pairs[i];
    EXPECT_EQ(out.col("l").ints[i], 100 + lrow) << i;
    EXPECT_EQ(out.col("lx").doubles[i], lrow + 0.5) << i;
    EXPECT_EQ(out.col("r").ints[i], 200 + rrow) << i;
    EXPECT_EQ(out.col("rx").doubles[i], rrow + 0.5) << i;
  }
  // One side may contribute no columns.
  const Table right_only = GatherPairs(left, right, pairs, {}, {"r"});
  EXPECT_EQ(right_only.column_names(), std::vector<std::string>{"r"});
  EXPECT_EQ(right_only.col("r").ints[0], 200);
}

// The values of column `name` at global rows `ids`, found one row at a
// time by walking the shards in order.
template <typename T>
std::vector<T> ReferenceGather(const DistTable& t, const std::string& name,
                               std::vector<T> Column::*values,
                               const std::vector<std::uint32_t>& ids) {
  std::vector<T> out;
  for (std::uint32_t id : ids) {
    std::size_t s = 0;
    while (id >= t.shards[s].rows()) id -= t.shards[s++].rows();
    out.push_back((t.shards[s].col(name).*values)[id]);
  }
  return out;
}

// `n` pairs that address every row of both sides in a scattered order.
std::vector<Pair> ScatteredPairs(std::size_t n, std::uint32_t left_rows,
                                 std::uint32_t right_rows) {
  std::vector<Pair> pairs(n);
  for (std::size_t i = 0; i < n; ++i) {
    pairs[i] = {static_cast<std::uint32_t>(i * 7919 % left_rows),
                static_cast<std::uint32_t>(i * 104729 % right_rows)};
  }
  return pairs;
}

TEST(GatherPairsDeathTest, OutOfRangeRowDies) {
  // The range check runs inside a morsel, here the last of three, which
  // may be on a pool worker. Threadsafe style: a forked child has no
  // pool workers, so a ParallelFor in it could hang.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const DistTable left = MakeStacked({2, 0, 3}, "l", "lx", 0);
  const DistTable right = MakeStacked({1}, "r", "rx", 0);
  std::vector<Pair> pairs(3 * kGatherMorsel, Pair{4, 0});
  pairs.back().first = 5;  // one past the last left row
  EXPECT_DEATH(
      {
        ThreadPool::SetDefaultThreads(8);
        GatherPairs(left, right, pairs, {"l"}, {"r"});
      },
      "row 5 out of range");
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : topo_(topo::MakeDgx1V()) {}
  Engine MakeEngine(int g) {
    return Engine(topo_.get(), topo::FirstNGpus(g), EngineOptions{});
  }
  std::unique_ptr<topo::Topology> topo_;
};

TEST_F(EngineTest, ProjectKeepsColumnsAndChargesTheirScan) {
  Engine eng = MakeEngine(2);
  // Shard 0 holds 4 rows, shard 1 holds 3.
  DistTable t = MakeKv(2, {1, 2, 3, 4, 5, 6, 7}, {10, 20, 30, 40, 50, 60, 70});
  DistTable out = eng.Project(t, {"k"});
  ASSERT_EQ(out.num_shards(), 2);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(out.shards[s].column_names(), std::vector<std::string>{"k"});
    EXPECT_EQ(out.shards[s].col("k").type, ColType::kInt32);
    EXPECT_EQ(out.shards[s].col("k").ints, t.shards[s].col("k").ints);
  }
  // Exactly one scan of the kept 4-byte column per shard.
  Engine ref = MakeEngine(2);
  ref.ChargeScan({4 * 4, 3 * 4});
  EXPECT_EQ(eng.elapsed(), ref.elapsed());
  EXPECT_GT(eng.elapsed(), 0u);
}

TEST_F(EngineTest, HashJoinFindsAllMatches) {
  Engine eng = MakeEngine(4);
  DistTable l = MakeKv(4, {1, 2, 3, 4, 5, 6, 7, 8}, {0, 0, 0, 0, 0, 0, 0, 0});
  DistTable r = MakeKv(4, {2, 4, 6, 8, 10}, {2, 4, 6, 8, 10});
  auto j = eng.HashJoin(l, "k", r, "k");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j.value().pairs.size(), 4u);  // keys 2,4,6,8
  const Table m = GatherPairs(l, r, j.value().pairs, {"k"}, {"v"});
  EXPECT_EQ(m.rows(), 4u);
  for (std::uint64_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(m.col("k").ints[i], m.col("v").ints[i]);  // right v == k
  }
}

TEST_F(EngineTest, HashJoinHandlesDuplicates) {
  Engine eng = MakeEngine(2);
  DistTable l = MakeKv(2, {7, 7, 7}, {1, 2, 3});
  DistTable r = MakeKv(2, {7, 7}, {4, 5});
  auto j = eng.HashJoin(l, "k", r, "k");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().pairs.size(), 6u);  // 3 x 2 cross product on key 7
}

TEST_F(EngineTest, HashJoinRejectsNegativeKeys) {
  Engine eng = MakeEngine(2);
  DistTable l = MakeKv(2, {-1, 2}, {0, 0});
  DistTable r = MakeKv(2, {1, 2}, {0, 0});
  EXPECT_FALSE(eng.HashJoin(l, "k", r, "k").ok());
}

TEST_F(EngineTest, HashJoinRejectsOutOfRangeRightKeys) {
  Engine eng = MakeEngine(2);
  DistTable l = MakeKv(2, {1, 2}, {0, 0});
  DistTable r = MakeKv(2, {2, std::int64_t{1} << 32}, {0, 0});
  EXPECT_FALSE(eng.HashJoin(l, "k", r, "k").ok());
  // The largest 32-bit key is still accepted.
  DistTable edge = MakeKv(2, {2, 0xFFFFFFFFll}, {0, 0});
  EXPECT_TRUE(eng.HashJoin(l, "k", edge, "k").ok());
}

TEST_F(EngineTest, MaterializeJoinGathersBothSides) {
  Engine eng = MakeEngine(2);
  DistTable l = MakeKv(2, {1, 2, 3}, {10, 20, 30});
  DistTable r = MakeKv(2, {3, 2, 1}, {300, 200, 100});
  auto j = eng.HashJoin(l, "k", r, "k");
  ASSERT_TRUE(j.ok());
  DistTable out = eng.MaterializeJoin(l, r, j.value().pairs, {"v"}, {"k"});
  EXPECT_EQ(out.rows(), 3u);
  // v (left) must be 10x the joined key.
  for (const Table& shard : out.shards) {
    for (std::uint64_t i = 0; i < shard.rows(); ++i) {
      EXPECT_EQ(shard.col("v").ints[i], 10 * shard.col("k").ints[i]);
    }
  }
}

TEST_F(EngineTest, MaterializeJoinPlacesRowIOnShardIModG) {
  constexpr int kGpus = 3;
  Engine eng = MakeEngine(kGpus);
  const DistTable left = MakeStacked({2, 0, 3}, "l", "lx", 100);
  const DistTable right = MakeStacked({1, 1, 2}, "r", "rx", 200);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {4, 0}, {0, 3}, {2, 1}, {1, 2}, {3, 3}, {0, 0}, {4, 2}};
  DistTable out = eng.MaterializeJoin(left, right, pairs, {"l"}, {"rx"});
  ASSERT_EQ(out.num_shards(), kGpus);
  EXPECT_EQ(out.rows(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Table& shard = out.shards[i % kGpus];
    const std::size_t row = i / kGpus;
    EXPECT_EQ(shard.col("l").ints[row], 100 + pairs[i].first) << i;
    EXPECT_EQ(shard.col("rx").doubles[row], pairs[i].second + 0.5) << i;
  }
  // Charged as one gather of (8 + 8) bytes per pair, spread evenly.
  Engine ref = MakeEngine(kGpus);
  ref.ChargeGather(std::vector<std::uint64_t>(kGpus, 7 * 16 / kGpus));
  EXPECT_EQ(eng.elapsed(), ref.elapsed());
}

TEST_F(EngineTest, GatherPairsIsThreadCountInvariant) {
  // Uneven shards, one of them empty, and pairs covering six full
  // morsels plus a partial one.
  const DistTable left = MakeStacked({20011, 0, 7, 31000}, "l", "lx", 100);
  const DistTable right = MakeStacked({3, 40009, 11}, "r", "rx", 200);
  const std::vector<Pair> pairs =
      ScatteredPairs(6 * kGatherMorsel + 5000, left.rows(), right.rows());
  std::vector<std::uint32_t> left_ids, right_ids;
  for (const auto& [l, r] : pairs) {
    left_ids.push_back(l);
    right_ids.push_back(r);
  }
  const auto want_l = ReferenceGather(left, "l", &Column::ints, left_ids);
  const auto want_lx =
      ReferenceGather(left, "lx", &Column::doubles, left_ids);
  const auto want_r = ReferenceGather(right, "r", &Column::ints, right_ids);
  const auto want_rx =
      ReferenceGather(right, "rx", &Column::doubles, right_ids);
  for (const std::size_t threads : {1, 8}) {
    ThreadPool::SetDefaultThreads(threads);
    const Table out =
        GatherPairs(left, right, pairs, {"lx", "l"}, {"r", "rx"});
    EXPECT_EQ(out.col("l").ints, want_l) << threads;
    EXPECT_EQ(out.col("lx").doubles, want_lx) << threads;
    EXPECT_EQ(out.col("r").ints, want_r) << threads;
    EXPECT_EQ(out.col("rx").doubles, want_rx) << threads;
    // One side with no columns.
    const Table right_only = GatherPairs(left, right, pairs, {}, {"rx"});
    EXPECT_EQ(right_only.column_names(), std::vector<std::string>{"rx"});
    EXPECT_EQ(right_only.col("rx").doubles, want_rx) << threads;

    // MaterializeJoin: each of 3 output shards gathers two full morsels
    // plus a partial one, and row `i` lands on shard `i % 3`.
    Engine eng = MakeEngine(3);
    const DistTable m = eng.MaterializeJoin(left, right, pairs, {"l"},
                                            {"rx"});
    ASSERT_EQ(m.num_shards(), 3);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const Table& shard = m.shards[i % 3];
      ASSERT_EQ(shard.col("l").ints[i / 3], want_l[i]) << threads << " " << i;
      ASSERT_EQ(shard.col("rx").doubles[i / 3], want_rx[i])
          << threads << " " << i;
    }
    Engine ref = MakeEngine(3);
    ref.ChargeGather(std::vector<std::uint64_t>(3, pairs.size() * 16 / 3));
    EXPECT_EQ(eng.elapsed(), ref.elapsed()) << threads;
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST_F(EngineTest, MaterializeJoinOfNoPairsKeepsColumnTypes) {
  Engine eng = MakeEngine(2);
  const DistTable left = MakeStacked({1, 1}, "l", "lx", 0);
  const DistTable right = MakeKv(2, {1, 2}, {0, 0});
  DistTable out = eng.MaterializeJoin(left, right, {}, {"lx", "l"}, {"k"});
  ASSERT_EQ(out.num_shards(), 2);
  EXPECT_EQ(out.rows(), 0u);
  for (const Table& shard : out.shards) {
    EXPECT_EQ(shard.column_names(),
              (std::vector<std::string>{"lx", "l", "k"}));
    EXPECT_EQ(shard.col("lx").type, ColType::kDouble);
    EXPECT_EQ(shard.col("l").type, ColType::kInt64);
    EXPECT_EQ(shard.col("k").type, ColType::kInt32);
  }
}

TEST_F(EngineTest, ClockAdvancesMonotonically) {
  Engine eng = MakeEngine(4);
  const sim::SimTime t0 = eng.elapsed();
  eng.ChargeScan({kMiB, kMiB, kMiB, kMiB});
  const sim::SimTime t1 = eng.elapsed();
  EXPECT_GT(t1, t0);
  eng.ChargeGather({kMiB, kMiB, kMiB, kMiB});
  const sim::SimTime t2 = eng.elapsed();
  // Random gathers cost more than streaming scans, and cross the fabric.
  EXPECT_GT(t2 - t1, t1 - t0);
}

TEST_F(EngineTest, VirtualScaleStretchesTheClock) {
  EngineOptions big;
  big.join.virtual_scale = 1000.0;
  Engine e1(topo_.get(), topo::FirstNGpus(2), EngineOptions{});
  Engine e2(topo_.get(), topo::FirstNGpus(2), big);
  e1.ChargeScan({kMiB, kMiB});
  e2.ChargeScan({kMiB, kMiB});
  EXPECT_GT(e2.elapsed(), e1.elapsed());
}

}  // namespace
}  // namespace mgjoin::exec
