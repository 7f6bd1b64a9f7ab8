#include "exec/engine.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/thread_pool.h"
#include "gpusim/kernel_model.h"

namespace mgjoin::exec {

Engine::Engine(const topo::Topology* topo, std::vector<int> gpus,
               EngineOptions options)
    : topo_(topo), gpus_(std::move(gpus)), options_(std::move(options)) {
  MGJ_CHECK(!gpus_.empty());
  gpu_clock_.assign(gpus_.size(), 0);
  if (gpus_.size() > 1) {
    bisection_bw_ = topo_->BisectionBandwidth(gpus_);
  }
}

sim::SimTime Engine::elapsed() const {
  return *std::max_element(gpu_clock_.begin(), gpu_clock_.end());
}

void Engine::ChargeScan(const std::vector<std::uint64_t>& bytes_per_shard) {
  const gpusim::KernelModel kernels(options_.join.gpu);
  const double vs = options_.join.virtual_scale;
  for (std::size_t g = 0; g < gpu_clock_.size() && g < bytes_per_shard.size();
       ++g) {
    const auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(bytes_per_shard[g]) * vs);
    gpu_clock_[g] += kernels.LaunchOverhead() +
                     sim::TransferTime(bytes,
                                       options_.join.gpu.EffectiveHbm());
  }
}

void Engine::ChargeGather(
    const std::vector<std::uint64_t>& bytes_per_shard) {
  const gpusim::KernelModel kernels(options_.join.gpu);
  const double vs = options_.join.virtual_scale;
  const double bw = options_.join.gpu.hbm_bandwidth *
                    options_.join.gpu.gather_efficiency;
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < gpu_clock_.size() && g < bytes_per_shard.size();
       ++g) {
    const auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(bytes_per_shard[g]) * vs);
    total += bytes;
    gpu_clock_[g] += kernels.LaunchOverhead() +
                     sim::TransferTime(bytes, bw);
  }
  // A (1 - 1/g) fraction of the fetched rows lives on remote GPUs; that
  // payload streams over the fabric at a fraction of the bisection
  // bandwidth (late materialization moves values, not just row ids).
  const int g = num_gpus();
  if (g > 1 && bisection_bw_ > 0) {
    const double remote =
        static_cast<double>(total) * (1.0 - 1.0 / g);
    const sim::SimTime t = sim::FromSeconds(
        remote / (bisection_bw_ * kFabricGatherEfficiency));
    for (auto& clock : gpu_clock_) clock += t;
  }
}

DistTable Engine::Project(const DistTable& in,
                          const std::vector<std::string>& columns) {
  DistTable out;
  out.shards.resize(in.shards.size());
  std::vector<std::uint64_t> charged;
  charged.reserve(in.shards.size());
  for (std::size_t g = 0; g < in.shards.size(); ++g) {
    for (const std::string& name : columns) {
      const Column& src = in.shards[g].col(name);
      out.shards[g].AddColumn(name, src.type) = src;
    }
    charged.push_back(out.shards[g].TotalBytes());
  }
  ChargeScan(charged);
  return out;
}

Result<Engine::Joined> Engine::HashJoin(const DistTable& left,
                                        const std::string& left_key,
                                        const DistTable& right,
                                        const std::string& right_key) {
  if (left.num_shards() != num_gpus() || right.num_shards() != num_gpus()) {
    return Status::InvalidArgument("tables must be sharded per GPU");
  }
  // Build the (key, global row id) relation of each side, one shard per
  // task. Global ids stack the shards in order; GatherPairs reads them
  // back. The shards are sized here, on the calling thread: shards that
  // pool workers allocated came from their malloc arenas, which the
  // caller cannot reuse once it frees them, and raised tpch6's peak RSS
  // by ~5 MB.
  std::int64_t max_key = 0;
  auto key_relation = [&](const DistTable& t, const std::string& key,
                          data::DistRelation* rel) {
    const std::size_t g = gpus_.size();
    std::vector<const std::vector<std::int64_t>*> keys(g);
    std::vector<std::uint32_t> first_global(g);
    std::uint32_t next_global = 0;
    rel->shards.resize(g);
    for (std::size_t s = 0; s < g; ++s) {
      keys[s] = &t.shards[s].col(key).ints;
      first_global[s] = next_global;
      next_global += static_cast<std::uint32_t>(keys[s]->size());
      rel->shards[s].resize(keys[s]->size());
    }
    std::vector<std::int64_t> shard_max(g, 0);
    std::vector<char> bad(g, 0);
    ParallelFor(0, g, [&](std::size_t s) {
      data::Shard& out = rel->shards[s];
      std::int64_t m = 0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const std::int64_t k = (*keys[s])[i];
        if (k < 0 || k > 0xFFFFFFFFll) {
          bad[s] = 1;
          return;
        }
        m = std::max(m, k);
        out[i] = data::Tuple{static_cast<std::uint32_t>(k),
                             first_global[s] + static_cast<std::uint32_t>(i)};
      }
      shard_max[s] = m;
    });
    for (std::size_t s = 0; s < g; ++s) {
      if (bad[s] != 0) {
        return Status::InvalidArgument("join key out of 32-bit range");
      }
      max_key = std::max(max_key, shard_max[s]);
    }
    return Status::OK();
  };
  data::DistRelation r, s;
  MGJ_RETURN_NOT_OK(key_relation(left, left_key, &r));
  MGJ_RETURN_NOT_OK(key_relation(right, right_key, &s));
  const int domain_bits =
      std::max(1, Log2Ceil(static_cast<std::uint64_t>(max_key) + 1));
  r.domain_bits = domain_bits;
  s.domain_bits = domain_bits;

  join::MgJoinOptions jopts = options_.join;
  jopts.materialize_pairs = true;
  // Each join this engine runs is one query for attribution purposes:
  // give it a fresh id unless the caller pinned one.
  if (jopts.query_id == 0) jopts.query_id = ++next_query_id_;
  join::MgJoin join(topo_, gpus_, jopts);
  MGJ_ASSIGN_OR_RETURN(join::JoinResult res, join.Execute(r, s));

  // The join is a barrier across the participating GPUs.
  const sim::SimTime start = elapsed();
  for (auto& clock : gpu_clock_) clock = start + res.timing.total;

  Joined out;
  out.pairs = std::move(res.pairs);
  res.pairs.clear();
  out.stats = std::move(res);
  return out;
}

DistTable Engine::MaterializeJoin(
    const DistTable& left, const DistTable& right,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const std::vector<std::string>& left_cols,
    const std::vector<std::string>& right_cols) {
  const std::size_t g = gpus_.size();
  DistTable out;
  out.shards.reserve(g);
  // One shard at a time, each gather morsel-parallel inside. A
  // ParallelFor over the shards gathered ~20 ms faster per tpch6 op but
  // raised its peak RSS by ~10 MB: the output columns a pool worker
  // allocates come from that thread's malloc arena, which the caller's
  // later allocations cannot reuse.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mine;
  for (std::size_t d = 0; d < g; ++d) {
    mine.clear();
    for (std::size_t i = d; i < pairs.size(); i += g) mine.push_back(pairs[i]);
    out.shards.push_back(
        GatherPairs(left, right, mine, left_cols, right_cols));
  }
  // Gather cost: every output row fetches its row width from random
  // source rows, spread evenly.
  ChargeGather(std::vector<std::uint64_t>(g, out.TotalBytes() / g));
  return out;
}

}  // namespace mgjoin::exec
