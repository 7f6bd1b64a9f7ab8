#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/bitutil.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace mgjoin {

namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64 finalizer: bijective 64-bit mix.
inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// splitmix64, used to expand the seed into the xoshiro state.
inline std::uint64_t SplitMix64(std::uint64_t* state) {
  return Mix64(*state += 0x9E3779B97F4A7C15ull);
}

// Morsel size of the parallel Zipf table builds.
constexpr std::size_t kTableGrain = 1u << 16;

// Domain separation of the Zipf draws from other streams of one seed.
constexpr std::uint64_t kZipfStream = 0x5A1FD00Dull;

// Draws per ValuesAt pipeline batch.
constexpr std::size_t kDrawBatch = 32;

// Entries per ApplyInPlace batch.
constexpr std::size_t kPermuteBatch = 256;
}  // namespace

std::uint64_t CounterHash(std::uint64_t seed, std::uint64_t i) {
  return Mix64(seed + (i + 1) * 0x9E3779B97F4A7C15ull);
}

double CounterDouble(std::uint64_t seed, std::uint64_t i) {
  return static_cast<double>(CounterHash(seed, i) >> 11) * 0x1.0p-53;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::Uniform(std::uint64_t bound) {
  // Lemire's nearly-divisionless method would be overkill here; a simple
  // rejection loop keeps the distribution exactly uniform.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double z, std::uint64_t seed)
    : n_(n), z_(z), seed_(seed) {
  MGJ_CHECK(n >= 1) << "a Zipf distribution needs at least one value";
  MGJ_CHECK(n <= (1ull << 32)) << "guide entries are 32-bit indices";
  cdf_.resize(n);
  // The pow() calls dominate and are independent, so they parallelize;
  // the prefix sum stays serial so the floating-point accumulation
  // order (and thus the cdf) is identical at any thread count.
  ParallelForChunked(0, n, kTableGrain,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         cdf_[i] = 1.0 / std::pow(
                                             static_cast<double>(i + 1), z);
                       }
                     });
  double sum = 0.0;
  for (auto& c : cdf_) {
    sum += c;
    c = sum;
  }
  const double inv = 1.0 / sum;
  ParallelForChunked(0, n, kTableGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) cdf_[i] *= inv;
  });
  cdf_.back() = 1.0;  // guard against rounding

  // guide_[k] is the first i with cdf_[i] >= k / 2^b, i.e. with
  // floor(cdf_[i] * 2^b) >= k. Index i owns the k in
  // (floor(cdf_[i-1] * 2^b), floor(cdf_[i] * 2^b)], so morsels write
  // disjoint ranges. Rounding can leave entries just above the final
  // 1.0; clamping their bucket to 2^b keeps the buckets monotone.
  const int b = Log2Ceil(std::max<std::uint64_t>(n >> 3, 1));
  const std::uint64_t buckets = 1ull << b;
  guide_shift_ = 53 - b;
  guide_.resize(buckets + 1);
  const auto bucket_of = [&](std::size_t i) {
    return std::min(
        static_cast<std::uint64_t>(cdf_[i] * static_cast<double>(buckets)),
        buckets);
  };
  ParallelForChunked(0, n, kTableGrain, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t k = lo == 0 ? 0 : bucket_of(lo - 1) + 1;
    for (std::size_t i = lo; i < hi; ++i) {
      for (const std::uint64_t last = bucket_of(i); k <= last; ++k) {
        guide_[k] = static_cast<std::uint32_t>(i);
      }
    }
  });
}

std::uint64_t ZipfGenerator::DrawBits(std::uint64_t i) const {
  // The same bits CounterDouble(seed_ ^ kZipfStream, i) scales to [0, 1).
  return CounterHash(seed_ ^ kZipfStream, i) >> 11;
}

std::uint32_t ZipfGenerator::SearchRun(std::uint64_t bits, std::uint32_t lo,
                                       std::uint32_t hi) const {
  // bits * 2^-53 lies in bucket k = bits >> guide_shift_, so the full
  // table's first cdf >= u lies in [guide_[k], guide_[k+1]]: entries
  // before guide_[k] are < k / 2^b <= u and cdf_[guide_[k+1]] >=
  // (k+1) / 2^b > u.
  const double u = static_cast<double>(bits) * 0x1.0p-53;
  const double* first = cdf_.data() + lo;
  return lo + static_cast<std::uint32_t>(
                  std::lower_bound(first, cdf_.data() + hi, u) - first);
}

std::uint64_t ZipfGenerator::ValueAt(std::uint64_t i) const {
  const std::uint64_t bits = DrawBits(i);
  const std::uint32_t* g = &guide_[bits >> guide_shift_];
  return SearchRun(bits, g[0], g[1]);
}

void ZipfGenerator::ValuesAt(std::uint64_t first, std::size_t count,
                             std::uint32_t* out) const {
  // A three-stage pipeline per batch: hash and prefetch the guide
  // entries, then read them and prefetch the start and the middle (the
  // search's first probe) of each cdf run, then search. Each stage's
  // misses overlap across the batch.
  std::uint64_t bits[kDrawBatch];
  std::uint32_t lo[kDrawBatch];
  std::uint32_t hi[kDrawBatch];
  for (std::size_t done = 0; done < count; done += kDrawBatch) {
    const std::size_t m = std::min(kDrawBatch, count - done);
    for (std::size_t j = 0; j < m; ++j) {
      bits[j] = DrawBits(first + done + j);
      __builtin_prefetch(&guide_[bits[j] >> guide_shift_]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t* g = &guide_[bits[j] >> guide_shift_];
      lo[j] = g[0];
      hi[j] = g[1];
      __builtin_prefetch(&cdf_[lo[j]]);
      __builtin_prefetch(&cdf_[lo[j] + (hi[j] - lo[j]) / 2]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      out[done + j] = SearchRun(bits[j], lo[j], hi[j]);
    }
  }
}

IndexPermutation::IndexPermutation(std::uint64_t n, std::uint64_t seed)
    : n_(n) {
  // Smallest even-width domain 2^(2h) >= n, h >= 1, so the cycle walk
  // visits < 4 out-of-range points in expectation.
  half_bits_ = (Log2Ceil(std::max<std::uint64_t>(n, 2)) + 1) / 2;
  half_mask_ = (1ull << half_bits_) - 1;
  std::uint64_t sm = seed;
  for (auto& k : keys_) k = SplitMix64(&sm);
}

std::uint64_t IndexPermutation::EncryptOnce(std::uint64_t i) const {
  std::uint64_t l = i >> half_bits_;
  std::uint64_t r = i & half_mask_;
  for (const std::uint64_t key : keys_) {
    const std::uint64_t f = Mix64(r + key) & half_mask_;
    const std::uint64_t next_r = l ^ f;
    l = r;
    r = next_r;
  }
  return (l << half_bits_) | r;
}

std::uint64_t IndexPermutation::Apply(std::uint64_t i) const {
  if (n_ <= 1) return 0;
  // Cycle-walk: the Feistel network permutes the power-of-four domain,
  // so repeatedly encrypting an in-domain point must return to [0, n).
  do {
    i = EncryptOnce(i);
  } while (i >= n_);
  return i;
}

void IndexPermutation::ApplyInPlace(std::uint32_t* v,
                                    std::size_t count) const {
  MGJ_CHECK(n_ <= (1ull << 32)) << "images must fit 32 bits";
  if (n_ <= 1) {
    std::fill(v, v + count, 0u);
    return;
  }
  // The same cycle walk as Apply, one round at a time over a batch:
  // `pending` lists, compacted, the entries still outside [0, n). The
  // Feistel domain is at most 2^32, so every step fits in v itself.
  std::uint32_t pending[kPermuteBatch];
  for (std::size_t done = 0; done < count; done += kPermuteBatch) {
    std::uint32_t* x = v + done;
    const std::size_t m = std::min(kPermuteBatch, count - done);
    std::size_t left = 0;
    for (std::size_t j = 0; j < m; ++j) {
      x[j] = static_cast<std::uint32_t>(EncryptOnce(x[j]));
      pending[left] = static_cast<std::uint32_t>(j);
      left += x[j] >= n_;
    }
    while (left > 0) {
      std::size_t still = 0;
      for (std::size_t t = 0; t < left; ++t) {
        const std::uint32_t j = pending[t];
        x[j] = static_cast<std::uint32_t>(EncryptOnce(x[j]));
        pending[still] = j;
        still += x[j] >= n_;
      }
      left = still;
    }
  }
}

}  // namespace mgjoin
