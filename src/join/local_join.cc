#include "join/local_join.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace mgjoin::join {

namespace {

using TupleSpan = std::span<const data::Tuple>;

// One worker's reusable buffers: per recursion level, that level's
// sub-buckets (they stay live while deeper levels split them), plus the
// leaf hash table.
struct Scratch {
  struct Level {
    PartitionedTuples r, s;
  };
  std::vector<Level> levels;
  std::vector<std::int32_t> heads, next;
};

// Nested-loop join of one shared-memory-sized co-partition (the paper's
// probe variant).
void NestedLoopCoPartition(TupleSpan r, TupleSpan s, bool materialize,
                           LocalJoinStats* stats) {
  for (const data::Tuple& a : r) {
    for (const data::Tuple& b : s) {
      if (a.key != b.key) continue;
      ++stats->matches;
      AccumulateMatch(a.id, b.id, &stats->checksum);
      if (materialize) stats->pairs.emplace_back(a.id, b.id);
    }
  }
}

// Joins one co-partition where at least one side is small: build a tiny
// chained hash table on the smaller side, probe with the other.
void JoinCoPartition(TupleSpan r, TupleSpan s, bool materialize,
                     Scratch* scratch, LocalJoinStats* stats) {
  if (r.empty() || s.empty()) return;
  const bool build_r = r.size() <= s.size();
  const TupleSpan build = build_r ? r : s;
  const TupleSpan probe = build_r ? s : r;

  const std::uint32_t slots =
      static_cast<std::uint32_t>(NextPow2(build.size() * 2));
  const std::uint32_t mask = slots - 1;
  std::vector<std::int32_t>& heads = scratch->heads;
  std::vector<std::int32_t>& next = scratch->next;
  heads.assign(slots, -1);
  next.resize(build.size());
  for (std::size_t i = 0; i < build.size(); ++i) {
    const std::uint32_t h = HashKey(build[i].key) & mask;
    next[i] = heads[h];
    heads[h] = static_cast<std::int32_t>(i);
  }
  for (const data::Tuple& t : probe) {
    const std::uint32_t h = HashKey(t.key) & mask;
    for (std::int32_t i = heads[h]; i >= 0; i = next[i]) {
      if (build[static_cast<std::size_t>(i)].key == t.key) {
        ++stats->matches;
        const data::Tuple& b = build[static_cast<std::size_t>(i)];
        if (build_r) {
          AccumulateMatch(b.id, t.id, &stats->checksum);
          if (materialize) stats->pairs.emplace_back(b.id, t.id);
        } else {
          AccumulateMatch(t.id, b.id, &stats->checksum);
          if (materialize) stats->pairs.emplace_back(t.id, b.id);
        }
      }
    }
  }
}

// Stable counting scatter of `in` into `out`'s fanout buckets.
template <typename BucketOf>
void ScatterByBucket(TupleSpan in, std::uint32_t fanout, BucketOf bucket_of,
                     PartitionedTuples* out) {
  std::vector<std::size_t>& off = out->offsets;
  off.assign(fanout + 1, 0);
  for (const data::Tuple& t : in) ++off[bucket_of(t.key) + 1];
  for (std::uint32_t b = 0; b < fanout; ++b) off[b + 1] += off[b];
  out->tuples.resize(in.size());
  // off[b] serves as bucket b's write cursor, ending at the start of
  // bucket b + 1; shift back afterwards.
  for (const data::Tuple& t : in) out->tuples[off[bucket_of(t.key)]++] = t;
  for (std::uint32_t b = fanout - 1; b > 0; --b) off[b] = off[b - 1];
  off[0] = 0;
}

// Recursively splits a co-partition on hash bits until one side fits
// shared memory, then probes. Sub-buckets are visited in ascending
// order and keep their input order.
void Recurse(TupleSpan r, TupleSpan s, int depth, const LocalJoinOptions& opts,
             Scratch* scratch, LocalJoinStats* stats) {
  if (r.empty() || s.empty()) return;
  stats->max_depth = std::max(stats->max_depth, depth);
  const std::uint64_t small_side = std::min(r.size(), s.size());
  if (small_side <= opts.shared_mem_tuples || depth >= opts.max_depth) {
    if (opts.probe == ProbeAlgorithm::kNestedLoop) {
      NestedLoopCoPartition(r, s, opts.materialize_pairs, stats);
    } else {
      JoinCoPartition(r, s, opts.materialize_pairs, scratch, stats);
    }
    return;
  }
  const int fanout_bits = opts.bits_per_pass;
  const std::uint32_t fanout = 1u << fanout_bits;
  const int shift = depth * fanout_bits;
  // Widened so a shift past the 32 hash bits is defined: by then every
  // tuple left shares its hash, hence its key and bucket.
  auto bucket_of = [&](std::uint32_t key) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(HashKey(key)) >> shift) & (fanout - 1));
  };
  Scratch::Level& level = scratch->levels[static_cast<std::size_t>(depth)];
  ScatterByBucket(r, fanout, bucket_of, &level.r);
  ScatterByBucket(s, fanout, bucket_of, &level.s);
  stats->partition_tuple_passes += r.size() + s.size();
  for (std::uint32_t b = 0; b < fanout; ++b) {
    Recurse(level.r[b], level.s[b], depth + 1, opts, scratch, stats);
  }
}

}  // namespace

LocalJoinStats LocalPartitionAndProbe(const PartitionedTuples* r_parts,
                                      const PartitionedTuples* s_parts,
                                      const LocalJoinOptions& options) {
  MGJ_CHECK(r_parts->size() == s_parts->size());
  // Morsel = a fixed chunk of received co-partitions: partitions share
  // no keys, so each runs the full recursion independently, and a
  // chunk's partitions run in order on one scratch into the chunk's
  // stats.
  constexpr std::size_t kPartGrain = 16;
  const std::size_t num_parts = r_parts->size();
  std::vector<LocalJoinStats> per_chunk((num_parts + kPartGrain - 1) /
                                        kPartGrain);
  ParallelForChunked(0, num_parts, kPartGrain, [&](std::size_t lo,
                                                   std::size_t hi) {
    LocalJoinStats& st = per_chunk[lo / kPartGrain];
    Scratch scratch;
    scratch.levels.resize(static_cast<std::size_t>(
        std::max(0, options.max_depth)));
    for (std::size_t p = lo; p < hi; ++p) {
      st.r_tuples += (*r_parts)[p].size();
      st.s_tuples += (*s_parts)[p].size();
      Recurse((*r_parts)[p], (*s_parts)[p], /*depth=*/0, options, &scratch,
              &st);
    }
  });
  // Merge in canonical chunk order. Counts and the checksum are
  // additive; pairs concatenate partition-by-partition, reproducing the
  // serial iteration byte-for-byte at any thread count.
  LocalJoinStats stats;
  for (LocalJoinStats& st : per_chunk) {
    stats.r_tuples += st.r_tuples;
    stats.s_tuples += st.s_tuples;
    stats.matches += st.matches;
    stats.checksum += st.checksum;
    stats.max_depth = std::max(stats.max_depth, st.max_depth);
    stats.partition_tuple_passes += st.partition_tuple_passes;
    stats.pairs.insert(stats.pairs.end(), st.pairs.begin(),
                       st.pairs.end());
  }
  return stats;
}

LocalJoinStats ReferenceJoin(const data::DistRelation& r,
                             const data::DistRelation& s) {
  // Fixed hash-bucket fanout: bucket membership depends only on the
  // key, so the per-bucket sub-joins are independent and their additive
  // stats merge to the same totals at any thread count.
  constexpr std::size_t kBuckets = 64;
  std::vector<std::vector<data::Tuple>> rb(kBuckets), sb(kBuckets);
  LocalJoinStats stats;
  for (const data::Shard& shard : r.shards) {
    stats.r_tuples += shard.size();
    for (const data::Tuple& t : shard) {
      rb[HashKey(t.key) & (kBuckets - 1)].push_back(t);
    }
  }
  for (const data::Shard& shard : s.shards) {
    stats.s_tuples += shard.size();
    for (const data::Tuple& t : shard) {
      sb[HashKey(t.key) & (kBuckets - 1)].push_back(t);
    }
  }
  std::vector<LocalJoinStats> per_bucket(kBuckets);
  ParallelFor(0, kBuckets, [&](std::size_t b) {
    LocalJoinStats& st = per_bucket[b];
    std::unordered_multimap<std::uint32_t, std::uint32_t> table;
    table.reserve(rb[b].size());
    for (const data::Tuple& t : rb[b]) table.emplace(t.key, t.id);
    for (const data::Tuple& t : sb[b]) {
      auto [lo, hi] = table.equal_range(t.key);
      for (auto it = lo; it != hi; ++it) {
        ++st.matches;
        AccumulateMatch(it->second, t.id, &st.checksum);
      }
    }
  });
  for (const LocalJoinStats& st : per_bucket) {
    stats.matches += st.matches;
    stats.checksum += st.checksum;
  }
  return stats;
}

}  // namespace mgjoin::join
