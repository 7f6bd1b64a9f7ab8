#include "data/generator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace mgjoin::data {

namespace {

/// Morsel size for parallel key/tuple fills. Fixed, so chunk boundaries
/// (and therefore the output) never depend on the thread count. A
/// morsel's staged keys (64 KB) stay below glibc's mmap threshold, so
/// they come from the heap rather than from fresh, faulting pages.
constexpr std::size_t kGenGrain = 1u << 14;

}  // namespace

std::vector<std::uint64_t> PlacementSizes(std::uint64_t total, int num_gpus,
                                          double placement_zipf) {
  std::vector<std::uint64_t> sizes(num_gpus, 0);
  if (num_gpus <= 0) return sizes;
  if (placement_zipf <= 0.0) {
    for (int g = 0; g < num_gpus; ++g) {
      sizes[g] = total / num_gpus + (static_cast<std::uint64_t>(g) <
                                             total % num_gpus
                                         ? 1
                                         : 0);
    }
    return sizes;
  }
  double norm = 0.0;
  std::vector<double> w(num_gpus);
  for (int g = 0; g < num_gpus; ++g) {
    w[g] = 1.0 / std::pow(static_cast<double>(g + 1), placement_zipf);
    norm += w[g];
  }
  std::uint64_t assigned = 0;
  for (int g = 0; g < num_gpus; ++g) {
    sizes[g] = static_cast<std::uint64_t>(
        static_cast<double>(total) * w[g] / norm);
    assigned += sizes[g];
  }
  sizes[0] += total - assigned;  // rounding remainder to the heavy GPU
  return sizes;
}

namespace {

// Fills one relation: `draw(first, count, out)` writes the ranks of
// global positions [first, first + count), which `perm` maps to keys;
// ids are the positions, and shard g holds the next sizes[g] positions.
// Each tuple is a pure function of its position, so morsels of
// positions fill in parallel, whatever the shard sizes. A morsel stages
// its keys and permutes them as one batch, so the draws' cache misses
// overlap instead of waiting on the permutation's cycle walk, then
// writes each tuple straight into its shard.
template <typename DrawFn>
DistRelation Fill(const std::vector<std::uint64_t>& sizes, int domain_bits,
                  const DrawFn& draw, const IndexPermutation& perm) {
  DistRelation rel;
  rel.domain_bits = domain_bits;
  std::vector<std::uint64_t> starts(1, 0);
  for (const std::uint64_t size : sizes) {
    rel.shards.emplace_back(size);
    starts.push_back(starts.back() + size);
  }
  ParallelForChunked(
      0, starts.back(), kGenGrain, [&](std::size_t lo, std::size_t hi) {
        std::vector<std::uint32_t> keys(hi - lo);
        draw(lo, keys.size(), keys.data());
        perm.ApplyInPlace(keys.data(), keys.size());
        std::size_t g =
            std::upper_bound(starts.begin(), starts.end(), lo) -
            starts.begin() - 1;
        for (std::size_t p = lo; p < hi; ++p) {
          while (p == starts[g + 1]) ++g;
          rel.shards[g][p - starts[g]] =
              Tuple{keys[p - lo], static_cast<std::uint32_t>(p)};
        }
      });
  return rel;
}

// Writes the ranks first .. first + count - 1.
void Ranks(std::uint64_t first, std::size_t count, std::uint32_t* out) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = static_cast<std::uint32_t>(first + j);
  }
}

}  // namespace

std::pair<DistRelation, DistRelation> MakeJoinInput(const GenOptions& opts) {
  MGJ_CHECK(opts.num_gpus >= 1);
  const std::uint64_t n = opts.tuples_per_relation;
  MGJ_CHECK(n <= (1ull << 32)) << "keys and ids are 32-bit";
  const int domain_bits = std::max(1, Log2Ceil(n));
  const auto sizes = PlacementSizes(n, opts.num_gpus, opts.placement_zipf);

  // Every key is a pure function of (seed, position): shuffles are
  // seeded Feistel permutations and Zipf draws are counter-based, so
  // morsels fill disjoint ranges concurrently and the relations are
  // byte-identical at any thread count (the determinism contract).
  const IndexPermutation r_perm(n, CounterHash(opts.seed, 'R'));
  const IndexPermutation s_perm(n, CounterHash(opts.seed, 'S'));

  // S first, so the Zipf tables are freed before R is allocated. S has
  // unique shuffled keys for the uniform workload and Zipf-frequency
  // keys for skewed workloads (heavy hitters). n = 0 has no Zipf
  // distribution; both relations are then empty.
  DistRelation s;
  if (opts.key_zipf <= 0.0 || n == 0) {
    s = Fill(sizes, domain_bits, Ranks, s_perm);
  } else {
    // Rank-to-value map is itself a random permutation so that the hot
    // keys are scattered over the domain (and over radix partitions,
    // creating single-value skew partitions rather than one hot range).
    const ZipfGenerator zipf(n, opts.key_zipf, opts.seed ^ 0xD1CEu);
    s = Fill(
        sizes, domain_bits,
        [&zipf](std::uint64_t first, std::size_t count, std::uint32_t* out) {
          zipf.ValuesAt(first, count, out);
        },
        s_perm);
  }

  // R: sequential keys, shuffled (each key exactly once).
  DistRelation r = Fill(sizes, domain_bits, Ranks, r_perm);
  return {std::move(r), std::move(s)};
}

}  // namespace mgjoin::data
