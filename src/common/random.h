#ifndef MGJOIN_COMMON_RANDOM_H_
#define MGJOIN_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mgjoin {

/// \brief Fast, reproducible pseudo-random generator (xoshiro256**).
///
/// All data generation in the repository goes through this generator so
/// that every experiment is bit-reproducible from its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Returns the next 64 random bits.
  std::uint64_t Next();

  /// Returns a uniform integer in [0, bound). bound must be > 0.
  std::uint64_t Uniform(std::uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double NextDouble();

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(Uniform(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

/// \brief Zipf-distributed integer generator over [0, n), counter-based.
///
/// Uses the inverse-CDF method over a precomputed cumulative table
/// `cdf_` (one double per value: 64 MB at 8M values, far beyond the
/// caches). A guide table (Chen and Asau's indexed search) narrows each
/// draw's search: `guide_[k]` is the first index whose cdf is >= k/2^b,
/// with 2^b near n/8, so a draw with uniform u only searches
/// `cdf_[guide_[k] .. guide_[k+1]]` for k = floor(u * 2^b). 2^b is a
/// power of two, so k/2^b and floor(u * 2^b) are exact and the draw
/// returns exactly the index a search of the whole table returns.
/// z = 0 degenerates to the uniform distribution, matching the paper's
/// "Zipf factor" axis in Figures 5b and 9.
class ZipfGenerator {
 public:
  /// \param n     number of distinct values, 1 <= n <= 2^32
  /// \param z     Zipf skew parameter (>= 0)
  /// \param seed  stream seed
  ZipfGenerator(std::uint64_t n, double z, std::uint64_t seed = 42);

  /// \brief The Zipf value of stream position `i`, independent of call
  /// order and of every other position.
  ///
  /// Morsels evaluate disjoint index ranges concurrently and the output
  /// is identical at any thread count.
  std::uint64_t ValueAt(std::uint64_t i) const;

  /// Writes ValueAt(first + j) to out[j] for j < count. Draws are
  /// pipelined so that their cache misses overlap.
  void ValuesAt(std::uint64_t first, std::size_t count,
                std::uint32_t* out) const;

  std::uint64_t n() const { return n_; }
  double z() const { return z_; }

 private:
  /// The 53 random bits of position `i`; u = bits * 2^-53 is the
  /// position's uniform draw.
  std::uint64_t DrawBits(std::uint64_t i) const;
  /// First index in [lo, hi] whose cdf is >= bits * 2^-53, given that
  /// cdf_[hi] is.
  std::uint32_t SearchRun(std::uint64_t bits, std::uint32_t lo,
                          std::uint32_t hi) const;

  std::uint64_t n_;
  double z_;
  std::uint64_t seed_;
  int guide_shift_ = 53;              // k = bits >> guide_shift_
  std::vector<double> cdf_;           // cumulative probabilities, size n
  std::vector<std::uint32_t> guide_;  // 2^b + 1 bucket starts
};

/// \brief Seeded bijection on [0, n): a 4-round Feistel network over the
/// enclosing power-of-four domain, cycle-walked back into range.
///
/// Apply(i) is O(1) expected and reads only immutable state, so a
/// permutation can be evaluated at arbitrary positions from many
/// threads at once — this is what makes shuffled-key generation
/// embarrassingly parallel *and* thread-count invariant (each position's
/// key is a pure function of (seed, position)). Replaces the sequential
/// Fisher-Yates shuffle in the workload generator.
class IndexPermutation {
 public:
  IndexPermutation(std::uint64_t n, std::uint64_t seed);

  /// The image of `i` (i < n) under the permutation; always < n.
  std::uint64_t Apply(std::uint64_t i) const;

  /// Replaces each v[j] (< n) by Apply(v[j]). Requires n <= 2^32. The
  /// batch encrypts every entry once, then re-encrypts only the entries
  /// still out of range, so the cycle walk's branch stays off the
  /// multiply chain.
  void ApplyInPlace(std::uint32_t* v, std::size_t count) const;

  std::uint64_t n() const { return n_; }

 private:
  std::uint64_t EncryptOnce(std::uint64_t i) const;

  std::uint64_t n_;
  int half_bits_;           // each Feistel half is this wide
  std::uint64_t half_mask_;
  std::uint64_t keys_[4];
};

/// Stateless counter hash: the 64-bit value of stream `seed` at counter
/// `i` (splitmix64 finalizer over the keyed counter). The building block
/// of every counter-based stream above.
std::uint64_t CounterHash(std::uint64_t seed, std::uint64_t i);

/// CounterHash mapped to a uniform double in [0, 1).
double CounterDouble(std::uint64_t seed, std::uint64_t i);

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_RANDOM_H_
