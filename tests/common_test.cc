// Unit tests for src/common: Status/Result, units, RNG/Zipf, bit
// utilities and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace mgjoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad packet size");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad packet size");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status ChainedHelper(int x, int* out) {
  MGJ_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int v = 0;
  EXPECT_TRUE(ChainedHelper(5, &v).ok());
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(ChainedHelper(-5, &v).ok());
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kMiB), "2.0 MiB");
  EXPECT_EQ(FormatBytes(3 * kGiB), "3.0 GiB");
  EXPECT_EQ(FormatBandwidth(25.0 * kGBps), "25.0 GB/s");
}

TEST(UnitsTest, PaperTupleUnits) {
  // The paper's "M" is 2^20 and "B" is 2^30.
  EXPECT_EQ(kMTuples, 1048576u);
  EXPECT_EQ(kBTuples, 1024u * kMTuples);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(ZipfTest, ZeroSkewIsRoughlyUniform) {
  ZipfGenerator gen(10, 0.0, 99);
  std::map<std::uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.ValueAt(i)];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02) << "value " << v;
  }
}

TEST(ZipfTest, HighSkewConcentratesOnHead) {
  ZipfGenerator gen(1000, 1.0, 99);
  const std::size_t n = 100000;
  std::vector<std::uint32_t> draws(n);
  gen.ValuesAt(0, n, draws.data());
  const auto head = std::count_if(draws.begin(), draws.end(),
                                  [](std::uint32_t v) { return v < 10; });
  // With z=1 over 1000 values, the top 10 values carry ~39% of the mass.
  EXPECT_GT(head, static_cast<std::ptrdiff_t>(n / 3));
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator gen(37, 0.75, 1);
  std::vector<std::uint32_t> draws(10000);
  gen.ValuesAt(5, draws.size(), draws.data());
  for (const std::uint32_t v : draws) EXPECT_LT(v, 37u);
}

TEST(ZipfTest, SingleValueDomainIsConstant) {
  // n=1 leaves no randomness at all: every draw is 0, at any skew.
  for (const double z : {0.0, 1.0, 6.0}) {
    ZipfGenerator gen(1, z, 123);
    std::vector<std::uint32_t> draws(100, 7);
    gen.ValuesAt(0, draws.size(), draws.data());
    for (std::uint64_t i = 0; i < draws.size(); ++i) {
      EXPECT_EQ(gen.ValueAt(i), 0u) << "z=" << z;
      EXPECT_EQ(draws[i], 0u) << "z=" << z;
    }
  }
}

TEST(ZipfTest, VeryLargeSkewIsNearlyDegenerate) {
  // At z > 4 the distribution is almost all rank 0, without overflowing
  // the CDF normalization.
  ZipfGenerator gen(1000, 6.0, 31);
  const int n = 20000;
  int head = 0;
  for (int i = 0; i < n; ++i) {
    if (gen.ValueAt(static_cast<std::uint64_t>(i)) == 0) ++head;
  }
  EXPECT_GT(head, n * 95 / 100);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    EXPECT_LT(gen.ValueAt(i), 1000u);
  }
}

TEST(ZipfTest, ValuesAtMatchesValueAt) {
  // The batched draws are a pipeline over the same search: equal to
  // ValueAt at unaligned starts, for batches shorter than the pipeline,
  // and for a domain small enough to have a single guide bucket.
  for (const std::uint64_t n : {1ull, 10ull, 1000ull, 100003ull}) {
    for (const double z : {0.0, 1.0, 6.0}) {
      const ZipfGenerator gen(n, z, /*seed=*/n + 5);
      for (const std::uint64_t first : {0ull, 1ull, 33ull, 1000003ull}) {
        for (const std::size_t count : {0, 1, 5, 31, 32, 33, 1000}) {
          std::vector<std::uint32_t> draws(count);
          gen.ValuesAt(first, count, draws.data());
          for (std::size_t j = 0; j < count; ++j) {
            ASSERT_EQ(draws[j], gen.ValueAt(first + j))
                << "n=" << n << " z=" << z << " first=" << first
                << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(ZipfDeathTest, EmptyDomainDies) {
  EXPECT_DEATH(ZipfGenerator(0, 1.0), "at least one value");
}

TEST(BitUtilTest, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(0), 0);
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(2), 1);
  EXPECT_EQ(Log2Ceil(3), 2);
  EXPECT_EQ(Log2Ceil(4), 2);
  EXPECT_EQ(Log2Ceil(4096), 12);
  EXPECT_EQ(Log2Ceil(4097), 13);
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(4096), 4096u);
  EXPECT_EQ(NextPow2(4097), 8192u);
}

TEST(BitUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
}

TEST(BitUtilTest, ExtractBits) {
  EXPECT_EQ(ExtractBits(0xABCD1234, 0, 4), 0x4u);
  EXPECT_EQ(ExtractBits(0xABCD1234, 28, 4), 0xAu);
  EXPECT_EQ(ExtractBits(0xFFFFFFFF, 0, 32), 0xFFFFFFFFu);
  EXPECT_EQ(ExtractBits(0xFFFFFFFF, 5, 0), 0u);
}

TEST(HashTest, MixesSequentialKeys) {
  // Radix partitioning takes top bits; sequential keys must spread.
  std::map<std::uint32_t, int> buckets;
  for (std::uint32_t k = 0; k < 65536; ++k) {
    ++buckets[HashKey(k) >> 28];  // 16 buckets
  }
  EXPECT_EQ(buckets.size(), 16u);
  for (const auto& [b, c] : buckets) {
    EXPECT_NEAR(c, 4096, 600) << "bucket " << b;
  }
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(HashKey(42), HashKey(42));
  EXPECT_EQ(HashKey64(42), HashKey64(42));
  EXPECT_NE(HashKey(42), HashKey(43));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<int> hits(257, 0);
  ParallelFor(0, 257, [&hits](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  bool ran = false;
  ParallelFor(5, 5, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndNoTaskIsLost) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter, i] {
      if (i == 57) throw std::runtime_error("task 57 failed");
      counter.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Every non-throwing task still ran: a failure must not drop work.
  EXPECT_EQ(counter.load(), 199);
  // The error is consumed by the rethrow; the pool is reusable.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      ParallelFor(0, 64,
                  [](std::size_t i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  // Dynamic claim: tasks race on one counter, so any lost or repeated
  // claim shows up as a count other than one.
  constexpr std::size_t kN = 100003;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetDefaultThreads(threads);
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(0, kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
    // Nested: every inner range runs inline, each index once.
    constexpr std::size_t kOuter = 37, kInner = kN / kOuter;
    std::vector<std::atomic<int>> nested(kOuter * kInner);
    ParallelFor(0, kOuter, [&nested](std::size_t o) {
      ParallelFor(o * kInner, (o + 1) * kInner,
                  [&nested](std::size_t i) { nested[i].fetch_add(1); });
    });
    for (std::size_t i = 0; i < nested.size(); ++i) {
      ASSERT_EQ(nested[i].load(), 1) << "nested index " << i;
    }
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(ThreadPoolTest, ParallelForThrowsAtSeveralIndicesAndPoolRecovers) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetDefaultThreads(threads);
    EXPECT_THROW(ParallelFor(0, 1000,
                             [](std::size_t i) {
                               if (i % 97 == 3) {
                                 throw std::runtime_error("boom");
                               }
                             }),
                 std::runtime_error)
        << threads;
    // The pool is reusable: a clean run afterwards covers its range.
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, 1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(ThreadPoolTest, StressManyWaves) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&sum] { sum.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(sum.load(), 50u * 64u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A ParallelFor from inside a pool task must not block on the pool it
  // runs on (deadlock) or fan out N^2 tasks; it runs inline.
  std::atomic<int> inner_total{0};
  ParallelFor(0, 16, [&inner_total](std::size_t) {
    EXPECT_TRUE(ThreadPool::Default()->num_threads() < 2 ||
                ThreadPool::InWorker());
    ParallelFor(0, 8, [&inner_total](std::size_t) {
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 16 * 8);
}

TEST(ThreadPoolTest, ParallelForChunkedCoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  ParallelForChunked(0, 1000, 64,
                     [&hits](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                     });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ResolveThreadCountPolicy) {
  const std::size_t hw = std::max<std::size_t>(
      std::thread::hardware_concurrency(), 1);
  const std::size_t cap = std::max<std::size_t>(hw, 8);
  // Explicit requests are honored up to the cap.
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(2), 2u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(100000), cap);
  // MGJ_THREADS fills in when no explicit request is made.
  ::setenv("MGJ_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), 3u);
  ::setenv("MGJ_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), cap);
  ::unsetenv("MGJ_THREADS");
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), hw);
}

TEST(ThreadPoolTest, SetDefaultThreadsResizesPool) {
  ThreadPool::SetDefaultThreads(2);
  EXPECT_EQ(ThreadPool::Default()->num_threads(), 2u);
  ThreadPool::SetDefaultThreads(4);
  EXPECT_EQ(ThreadPool::Default()->num_threads(), 4u);
  ThreadPool::SetDefaultThreads(0);  // back to the environment default
  EXPECT_EQ(ThreadPool::Default()->num_threads(),
            ThreadPool::ResolveThreadCount(0));
}

TEST(IndexPermutationTest, IsBijectionOnRange) {
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull, 4096ull, 65537ull}) {
    IndexPermutation perm(n, /*seed=*/123);
    std::vector<bool> seen(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t v = perm.Apply(i);
      ASSERT_LT(v, n);
      ASSERT_FALSE(seen[v]) << "duplicate image at n=" << n;
      seen[v] = true;
    }
  }
}

TEST(IndexPermutationTest, ApplyInPlaceMatchesApply) {
  // Batches of any length, including empty ones and lengths that are not
  // a multiple of the internal batch, must equal Apply entry by entry,
  // on sequential and on scattered inputs.
  const std::size_t kChunks[] = {0, 1, 3, 255, 256, 257, 1000};
  for (const std::uint64_t n : {1ull, 2ull, 3ull, 4ull, 5ull, 255ull, 256ull,
                                257ull, (1ull << 16) + 1}) {
    const IndexPermutation perm(n, /*seed=*/n * 7 + 1);
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    std::size_t done = 0;
    for (std::size_t c = 0; done < n; ++c) {
      const std::size_t count =
          std::min<std::size_t>(kChunks[c % std::size(kChunks)], n - done);
      perm.ApplyInPlace(v.data() + done, count);
      done += count;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], perm.Apply(i)) << "n=" << n << " i=" << i;
    }
    perm.ApplyInPlace(v.data(), v.size());
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], perm.Apply(perm.Apply(i))) << "n=" << n << " i=" << i;
    }
  }
}

TEST(IndexPermutationTest, SeedChangesPermutation) {
  const std::uint64_t n = 4096;
  IndexPermutation a(n, 1), b(n, 2);
  int differing = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (a.Apply(i) != b.Apply(i)) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(n) / 2);
}

TEST(IndexPermutationTest, ActuallyShuffles) {
  const std::uint64_t n = 1u << 16;
  IndexPermutation perm(n, 42);
  std::uint64_t fixed_points = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (perm.Apply(i) == i) ++fixed_points;
  }
  // A random permutation has ~1 expected fixed point.
  EXPECT_LT(fixed_points, n / 100);
}

TEST(CounterHashTest, DeterministicAndSeedSeparated) {
  EXPECT_EQ(CounterHash(1, 5), CounterHash(1, 5));
  EXPECT_NE(CounterHash(1, 5), CounterHash(2, 5));
  EXPECT_NE(CounterHash(1, 5), CounterHash(1, 6));
  const double d = CounterDouble(9, 9);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(ZipfTest, ValueAtIsOrderIndependent) {
  ZipfGenerator zipf(1000, 1.0, /*seed=*/7);
  // Same positions evaluated in any order give the same values.
  const std::uint64_t a = zipf.ValueAt(10);
  const std::uint64_t b = zipf.ValueAt(3);
  EXPECT_EQ(zipf.ValueAt(3), b);
  EXPECT_EQ(zipf.ValueAt(10), a);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    EXPECT_LT(zipf.ValueAt(i), 1000u);
  }
}

TEST(ZipfTest, ValueAtConcentratesOnHeadUnderSkew) {
  ZipfGenerator zipf(1000, 1.5, /*seed=*/11);
  std::uint64_t head = 0;
  const std::uint64_t draws = 20000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    if (zipf.ValueAt(i) < 10) ++head;
  }
  // With z=1.5 the top-10 ranks carry well over half the mass.
  EXPECT_GT(head, draws / 2);
}

TEST(LoggingDeathTest, AtFatalHooksRunBeforeAbort) {
  // The hook chain is what flushes traces/metrics when an MGJ_CHECK
  // trips (bench::EnvObs registers one); it must run between the fatal
  // message and the abort, in the aborting process.
  EXPECT_DEATH(
      {
        AtFatal([] { std::fprintf(stderr, "at-fatal-hook-ran\n"); });
        MGJ_CHECK(false) << "boom";
      },
      "boom.*at-fatal-hook-ran");
}

}  // namespace
}  // namespace mgjoin
