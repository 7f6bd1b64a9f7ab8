// Tests for the data layer: generators, radix partitioning, and the
// transfer compression (round-trip properties).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "data/compression.h"
#include "data/generator.h"
#include "data/relation.h"

namespace mgjoin::data {
namespace {

TEST(RelationTest, RadixPartitionTakesTopBits) {
  // domain_bits = 8, radix_bits = 3: partition = top 3 of 8 bits.
  EXPECT_EQ(RadixPartition(0b00000000, 8, 3), 0u);
  EXPECT_EQ(RadixPartition(0b00100000, 8, 3), 1u);
  EXPECT_EQ(RadixPartition(0b11100000, 8, 3), 7u);
  EXPECT_EQ(RadixPartition(0b11111111, 8, 3), 7u);
  EXPECT_EQ(RadixPartition(12345, 20, 0), 0u);
}

TEST(GeneratorTest, UniqueKeysAndFullCoverage) {
  GenOptions opts;
  opts.tuples_per_relation = 100000;
  opts.num_gpus = 4;
  auto [r, s] = MakeJoinInput(opts);
  EXPECT_EQ(r.TotalTuples(), 100000u);
  EXPECT_EQ(s.TotalTuples(), 100000u);
  std::set<std::uint32_t> r_keys, s_keys;
  for (const Shard& sh : r.shards) {
    for (const Tuple& t : sh) r_keys.insert(t.key);
  }
  for (const Shard& sh : s.shards) {
    for (const Tuple& t : sh) s_keys.insert(t.key);
  }
  // Sequentially generated, shuffled: every key exactly once per side.
  EXPECT_EQ(r_keys.size(), 100000u);
  EXPECT_EQ(s_keys.size(), 100000u);
  EXPECT_EQ(*r_keys.rbegin(), 99999u);
}

TEST(GeneratorTest, BalancedPlacementByDefault) {
  GenOptions opts;
  opts.tuples_per_relation = 1000;
  opts.num_gpus = 8;
  auto [r, s] = MakeJoinInput(opts);
  for (const Shard& sh : r.shards) EXPECT_EQ(sh.size(), 125u);
}

TEST(GeneratorTest, DeterministicBySeed) {
  GenOptions opts;
  opts.tuples_per_relation = 5000;
  opts.num_gpus = 2;
  auto [r1, s1] = MakeJoinInput(opts);
  auto [r2, s2] = MakeJoinInput(opts);
  EXPECT_EQ(r1.shards[0], r2.shards[0]);
  EXPECT_EQ(s1.shards[1], s2.shards[1]);
  opts.seed = 43;
  auto [r3, s3] = MakeJoinInput(opts);
  EXPECT_NE(r1.shards[0], r3.shards[0]);
}

TEST(GeneratorTest, OptionsDifferingInAnyFieldAreUnequal) {
  // GenOptions equality keys the service's per-run dataset cache, so
  // two options that generate different data must never compare equal.
  // A new field breaks this assert: give it a mutation below.
  static_assert(sizeof(GenOptions) == 40, "add the new field's mutation");
  const std::vector<std::function<void(GenOptions*)>> mutations = {
      [](GenOptions* o) { o->tuples_per_relation += 1; },
      [](GenOptions* o) { o->num_gpus += 1; },
      [](GenOptions* o) { o->placement_zipf += 0.25; },
      [](GenOptions* o) { o->key_zipf += 0.25; },
      [](GenOptions* o) { o->seed += 1; },
  };
  const GenOptions base;
  EXPECT_TRUE(base == GenOptions{});
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    GenOptions changed = base;
    mutations[i](&changed);
    EXPECT_FALSE(changed == base) << "field " << i;
  }
}

TEST(GeneratorTest, PlacementZipfSkewsShardSizes) {
  const auto even = PlacementSizes(80000, 8, 0.0);
  EXPECT_EQ(even[0], 10000u);
  EXPECT_EQ(even[7], 10000u);
  const auto skewed = PlacementSizes(80000, 8, 1.0);
  EXPECT_GT(skewed[0], 2 * skewed[7]);
  std::uint64_t total = 0;
  for (auto v : skewed) total += v;
  EXPECT_EQ(total, 80000u);
}

TEST(GeneratorTest, KeyZipfCreatesHeavyHitters) {
  GenOptions opts;
  opts.tuples_per_relation = 100000;
  opts.num_gpus = 1;
  opts.key_zipf = 1.0;
  auto [r, s] = MakeJoinInput(opts);
  std::map<std::uint32_t, std::uint64_t> freq;
  for (const Tuple& t : s.shards[0]) ++freq[t.key];
  std::uint64_t max_freq = 0;
  for (const auto& [k, f] : freq) max_freq = std::max(max_freq, f);
  // z=1 over 100k values: the hottest key carries ~8% of tuples.
  EXPECT_GT(max_freq, 2000u);
  // R stays unique.
  std::set<std::uint32_t> r_keys;
  for (const Tuple& t : r.shards[0]) r_keys.insert(t.key);
  EXPECT_EQ(r_keys.size(), r.shards[0].size());
}

// -- Compression ------------------------------------------------------------

TEST(BitIoTest, RoundTripMixedWidths) {
  BitWriter w;
  w.Put(0b101, 3);
  w.Put(0xDEADBEEF, 32);
  w.Put(0, 0);
  w.Put(1, 1);
  w.Put(0x3FFF, 14);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.Get(3), 0b101u);
  EXPECT_EQ(r.Get(32), 0xDEADBEEFu);
  EXPECT_EQ(r.Get(0), 0u);
  EXPECT_EQ(r.Get(1), 1u);
  EXPECT_EQ(r.Get(14), 0x3FFFu);
}

class CompressionTest : public ::testing::TestWithParam<
                            std::tuple<int, int, std::size_t>> {};

TEST_P(CompressionTest, RoundTrip) {
  const auto [domain_bits, radix_bits, n] = GetParam();
  Rng rng(7 + n);
  const std::uint32_t partition = static_cast<std::uint32_t>(
      rng.Uniform(1ull << radix_bits));
  std::vector<Tuple> tuples(n);
  const int suffix = domain_bits - radix_bits;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t sfx =
        static_cast<std::uint32_t>(rng.Uniform(1ull << suffix));
    tuples[i].key = (partition << suffix) | sfx;
    tuples[i].id = static_cast<std::uint32_t>(1000000 + rng.Uniform(50000));
  }
  auto cp = CompressPartition(tuples.data(), tuples.size(), partition,
                              domain_bits, radix_bits);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  auto back = DecompressPartition(cp.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), tuples);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CompressionTest,
    ::testing::Values(std::make_tuple(20, 12, std::size_t{1}),
                      std::make_tuple(20, 12, std::size_t{100}),
                      std::make_tuple(20, 12, std::size_t{5000}),
                      std::make_tuple(30, 12, std::size_t{3000}),
                      std::make_tuple(16, 4, std::size_t{2049}),
                      std::make_tuple(12, 12, std::size_t{64}),
                      std::make_tuple(24, 1, std::size_t{777})));

TEST(CompressionTest, RejectsForeignTuples) {
  std::vector<Tuple> tuples{{0xFFFFFFFF, 1}};
  auto cp = CompressPartition(tuples.data(), 1, /*partition=*/0,
                              /*domain_bits=*/32, /*radix_bits=*/4);
  EXPECT_FALSE(cp.ok());
}

TEST(CompressionTest, AchievesPaperRatio) {
  // Paper: 1.3x-2x compression on the shuffle traffic. Sequential ids
  // within a partition block delta-compress well.
  const int domain_bits = 29;  // 512M-tuple key domain
  const int radix_bits = 12;
  Rng rng(3);
  std::vector<Tuple> tuples(4096);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].key = static_cast<std::uint32_t>(
        rng.Uniform(1u << (domain_bits - radix_bits)));
    tuples[i].id = static_cast<std::uint32_t>(i * 17);  // clustered ids
  }
  const std::uint64_t est = EstimateCompressedBytes(
      tuples.data(), tuples.size(), domain_bits, radix_bits);
  const double ratio =
      static_cast<double>(tuples.size() * kTupleBytes) /
      static_cast<double>(est);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 2.6);
}

TEST(CompressionTest, EstimateMatchesActualPayload) {
  Rng rng(11);
  std::vector<Tuple> random(3000);
  for (auto& t : random) {
    t.key = static_cast<std::uint32_t>(rng.Uniform(1u << 8));
    t.id = static_cast<std::uint32_t>(rng.Uniform(1u << 30));
  }
  // One block whose ids span the whole uint32 range (32-bit deltas),
  // and one block of identical ids (zero-width deltas).
  std::vector<Tuple> full_range(kIdsPerBlock);
  std::vector<Tuple> identical(kIdsPerBlock);
  for (std::size_t i = 0; i < full_range.size(); ++i) {
    full_range[i].key = identical[i].key =
        static_cast<std::uint32_t>(rng.Uniform(1u << 8));
    full_range[i].id = static_cast<std::uint32_t>(rng.Uniform(1ull << 32));
    identical[i].id = 123456789u;
  }
  full_range[7].id = 0;
  full_range[1500].id = 0xFFFFFFFFu;
  for (const auto* tuples : {&random, &full_range, &identical}) {
    const std::uint64_t est =
        EstimateCompressedBytes(tuples->data(), tuples->size(), 20, 12);
    auto cp = CompressPartition(tuples->data(), tuples->size(), 0, 20, 12);
    ASSERT_TRUE(cp.ok());
    EXPECT_NEAR(static_cast<double>(est),
                static_cast<double>(cp.value().WireBytes()), 32.0);
  }
}

TEST(CompressionTest, EmptyPartition) {
  auto cp = CompressPartition(nullptr, 0, 0, 20, 12);
  ASSERT_TRUE(cp.ok());
  auto back = DecompressPartition(cp.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
  EXPECT_EQ(EstimateCompressedBytes(nullptr, 0, 20, 12), 0u);
}

}  // namespace
}  // namespace mgjoin::data
