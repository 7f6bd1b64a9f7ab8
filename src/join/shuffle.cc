#include "join/shuffle.h"

#include <algorithm>
#include <span>

#include "common/bitutil.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/compression.h"

namespace mgjoin::join {

namespace {

// One relation after the scatter. home[p] is where partition p's
// blocks are written: its owner, or its first owner when this relation
// is the broadcast (smaller) side of a split partition, or -1 when it
// is the larger side, which never moves (its holders are the owner set
// by construction). count and start are g x parts, row-major by
// source: the size of block (src, p) and its offset in its home's
// buffer (the source's own buffer when home is -1).
struct Scattered {
  std::vector<PartitionedTuples> recv;
  std::vector<int> home;
  std::vector<std::size_t> count;
  std::vector<std::size_t> start;
};

// The functional partition kernel plus data distribution for one
// relation: a count pass per shard, exact region offsets per (dst, p)
// with sources in ascending order inside each region, one stable
// scatter per shard straight into place, then the broadcast copies.
// Every source writes only its own blocks, so the result is identical
// at any thread count.
Scattered Scatter(const data::DistRelation& rel, bool is_r, int radix_bits,
                  const PartitionAssignment& assignment) {
  const int g = rel.num_shards();
  const std::uint32_t parts = 1u << radix_bits;
  auto part_of = [&](const data::Tuple& t) {
    return data::RadixPartition(t.key, rel.domain_bits, radix_bits);
  };
  Scattered out;
  out.home.resize(parts);
  for (std::uint32_t p = 0; p < parts; ++p) {
    const std::vector<int>& owners = assignment.owners[p];
    const bool stays =
        owners.size() > 1 && assignment.split_broadcast_r[p] != is_r;
    out.home[p] = stays ? -1 : owners[0];
  }
  out.count.assign(static_cast<std::size_t>(g) * parts, 0);
  out.start.resize(static_cast<std::size_t>(g) * parts);
  ParallelFor(0, g, [&](std::size_t src) {
    std::size_t* count = &out.count[src * parts];
    for (const data::Tuple& t : rel.shards[src]) ++count[part_of(t)];
  });

  // One pass in partition order: each destination's region offsets,
  // and each block's start, with sources in ascending order inside
  // every region of their home.
  out.recv.resize(g);
  for (PartitionedTuples& recv : out.recv) recv.offsets.resize(parts + 1);
  std::vector<std::size_t> fill(g, 0);
  for (std::uint32_t p = 0; p < parts; ++p) {
    for (int dst = 0; dst < g; ++dst) out.recv[dst].offsets[p] = fill[dst];
    const int home = out.home[p];
    for (int src = 0; src < g; ++src) {
      const std::size_t b = static_cast<std::size_t>(src) * parts + p;
      std::size_t& f = fill[home < 0 ? src : home];
      out.start[b] = f;
      f += out.count[b];
    }
    if (home < 0) continue;
    // Further owners of a broadcast partition mirror the first's region.
    const std::vector<int>& owners = assignment.owners[p];
    const std::size_t total = fill[home] - out.recv[home].offsets[p];
    for (std::size_t o = 1; o < owners.size(); ++o) fill[owners[o]] += total;
  }
  // Sized in parallel: first touching a large buffer is page faults.
  ParallelFor(0, g, [&](std::size_t dst) {
    out.recv[dst].offsets[parts] = fill[dst];
    out.recv[dst].tuples.resize(fill[dst]);
  });

  ParallelFor(0, g, [&](std::size_t src) {
    std::vector<data::Tuple*> cursor(parts);
    for (std::uint32_t p = 0; p < parts; ++p) {
      const int home = out.home[p] < 0 ? static_cast<int>(src) : out.home[p];
      cursor[p] = out.recv[home].tuples.data() + out.start[src * parts + p];
    }
    for (const data::Tuple& t : rel.shards[src]) *cursor[part_of(t)]++ = t;
  });

  // Broadcast partitions: every further owner gets a copy of the first
  // owner's region; all owners share one layout.
  constexpr std::size_t kPartGrain = 64;
  ParallelForChunked(0, parts, kPartGrain, [&](std::size_t lo,
                                               std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      const std::vector<int>& owners = assignment.owners[p];
      if (owners.size() < 2 || out.home[p] < 0) continue;
      const std::span<const data::Tuple> block = out.recv[owners[0]][p];
      for (std::size_t o = 1; o < owners.size(); ++o) {
        PartitionedTuples& recv = out.recv[owners[o]];
        std::copy(block.begin(), block.end(),
                  recv.tuples.begin() +
                      static_cast<std::ptrdiff_t>(recv.offsets[p]));
      }
    }
  });
  return out;
}

}  // namespace

ShuffleResult ShufflePartitions(const data::DistRelation& r,
                                const data::DistRelation& s,
                                int radix_bits,
                                const PartitionAssignment& assignment,
                                const std::vector<int>& gpus,
                                const ShuffleOptions& options) {
  const int g = static_cast<int>(gpus.size());
  const std::uint32_t parts = 1u << radix_bits;
  MGJ_CHECK(r.num_shards() == g && s.num_shards() == g);
  MGJ_CHECK(r.domain_bits == s.domain_bits);
  MGJ_CHECK(assignment.owners.size() == parts);

  Scattered rel[2] = {Scatter(r, true, radix_bits, assignment),
                      Scatter(s, false, radix_bits, assignment)};

  // Wire bytes per (src, dst), from each (src, p) block read in place.
  // Morsel = a fixed chunk of partitions with its own accumulators;
  // the totals are integer sums, so they are identical at any thread
  // count.
  struct ChunkAcc {
    std::vector<std::uint64_t> flow;  // g x g wire bytes, row-major
    std::uint64_t compressed = 0;
    std::uint64_t uncompressed = 0;
    std::uint64_t moved = 0;
  };
  constexpr std::size_t kPartGrain = 64;
  std::vector<ChunkAcc> chunk_acc((parts + kPartGrain - 1) / kPartGrain);
  // Estimate at the *virtual* key/id width: simulating inputs
  // virtual_scale larger widens the domain by log2(scale) bits.
  const int extra_bits = Log2Ceil(static_cast<std::uint64_t>(
      options.virtual_scale < 1.0 ? 1.0 : options.virtual_scale));

  ParallelForChunked(0, parts, kPartGrain, [&](std::size_t lo,
                                               std::size_t hi) {
    ChunkAcc& acc = chunk_acc[lo / kPartGrain];
    acc.flow.assign(static_cast<std::size_t>(g) * g, 0);
    for (const Scattered& sc : rel) {
      for (int src = 0; src < g; ++src) {
        for (std::size_t p = lo; p < hi; ++p) {
          const int home = sc.home[p];
          const std::size_t b = static_cast<std::size_t>(src) * parts + p;
          const std::size_t n = sc.count[b];
          // The larger side of a split partition stays put, and a block
          // at its single owner is local.
          if (n == 0 || home < 0) continue;
          const std::vector<int>& owners = assignment.owners[p];
          if (owners.size() == 1 && home == src) continue;
          const std::uint64_t raw = n * data::kTupleBytes;
          std::uint64_t wire = raw;
          if (options.use_compression) {
            wire = std::min(raw, data::EstimateCompressedBytes(
                                     sc.recv[home].tuples.data() + sc.start[b],
                                     n, r.domain_bits, radix_bits,
                                     extra_bits));
          }
          for (int dst : owners) {
            if (dst == src) continue;
            acc.flow[static_cast<std::size_t>(src) * g + dst] += wire;
            acc.compressed += wire;
            acc.uncompressed += raw;
            acc.moved += n;
          }
        }
      }
    }
  });

  ShuffleResult out;
  out.r_recv = std::move(rel[0].recv);
  out.s_recv = std::move(rel[1].recv);
  std::vector<std::vector<std::uint64_t>> flow_bytes(
      g, std::vector<std::uint64_t>(g, 0));
  for (const ChunkAcc& acc : chunk_acc) {
    if (acc.flow.empty()) continue;
    for (int src = 0; src < g; ++src) {
      for (int dst = 0; dst < g; ++dst) {
        flow_bytes[src][dst] +=
            acc.flow[static_cast<std::size_t>(src) * g + dst];
      }
    }
    out.compressed_bytes += acc.compressed;
    out.uncompressed_bytes += acc.uncompressed;
    out.moved_tuples += acc.moved;
  }

  // Build one flow per (src, dst) pair.
  std::uint64_t flow_id = 0;
  for (int src = 0; src < g; ++src) {
    for (int dst = 0; dst < g; ++dst) {
      if (flow_bytes[src][dst] == 0) continue;
      net::Flow f;
      f.id = flow_id++;
      f.src_gpu = gpus[src];
      f.dst_gpu = gpus[dst];
      f.bytes = static_cast<std::uint64_t>(
          static_cast<double>(flow_bytes[src][dst]) *
          options.virtual_scale);
      out.flows.push_back(f);
    }
  }
  return out;
}

}  // namespace mgjoin::join
