#include "data/compression.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace mgjoin::data {

void BitWriter::Put(std::uint64_t value, int bits) {
  MGJ_DCHECK(bits >= 0 && bits <= 64);
  for (int i = 0; i < bits; ++i) {
    const std::uint64_t pos = bit_count_ + i;
    if (pos / 8 >= bytes_.size()) bytes_.push_back(0);
    if ((value >> i) & 1u) {
      bytes_[pos / 8] |= static_cast<std::uint8_t>(1u << (pos % 8));
    }
  }
  bit_count_ += bits;
}

std::vector<std::uint8_t> BitWriter::Finish() { return std::move(bytes_); }

std::uint64_t BitReader::Get(int bits) {
  std::uint64_t v = 0;
  for (int i = 0; i < bits && pos_ < size_bits_; ++i, ++pos_) {
    if ((data_[pos_ / 8] >> (pos_ % 8)) & 1u) v |= 1ull << i;
  }
  return v;
}

namespace {

int BitsFor(std::uint32_t max_value) {
  return max_value == 0 ? 0 : 32 - std::countl_zero(max_value);
}

}  // namespace

Result<CompressedPartition> CompressPartition(const Tuple* tuples,
                                              std::size_t n,
                                              std::uint32_t partition_id,
                                              int domain_bits,
                                              int radix_bits) {
  if (radix_bits < 0 || radix_bits > domain_bits) {
    return Status::InvalidArgument("radix_bits out of range");
  }
  const int suffix_bits = domain_bits - radix_bits;
  BitWriter w;
  for (std::size_t i = 0; i < n; ++i) {
    if (RadixPartition(tuples[i].key, domain_bits, radix_bits) !=
        partition_id) {
      return Status::InvalidArgument("tuple not in partition");
    }
    w.Put(tuples[i].key & ((suffix_bits >= 32)
                               ? 0xFFFFFFFFu
                               : ((1u << suffix_bits) - 1u)),
          suffix_bits);
  }
  // Ids: per block, min + null-suppressed deltas.
  for (std::size_t start = 0; start < n; start += kIdsPerBlock) {
    const std::size_t end = std::min(n, start + kIdsPerBlock);
    std::uint32_t min_id = tuples[start].id;
    std::uint32_t max_delta = 0;
    for (std::size_t i = start; i < end; ++i) {
      min_id = std::min(min_id, tuples[i].id);
    }
    for (std::size_t i = start; i < end; ++i) {
      max_delta = std::max(max_delta, tuples[i].id - min_id);
    }
    const int delta_bits = BitsFor(max_delta);
    w.Put(min_id, 32);
    w.Put(static_cast<std::uint64_t>(delta_bits), 6);
    for (std::size_t i = start; i < end; ++i) {
      w.Put(tuples[i].id - min_id, delta_bits);
    }
  }

  CompressedPartition cp;
  cp.partition_id = partition_id;
  cp.domain_bits = domain_bits;
  cp.radix_bits = radix_bits;
  cp.tuple_count = static_cast<std::uint32_t>(n);
  cp.payload = w.Finish();
  return cp;
}

Result<std::vector<Tuple>> DecompressPartition(
    const CompressedPartition& cp) {
  const int suffix_bits = cp.domain_bits - cp.radix_bits;
  if (suffix_bits < 0) return Status::InvalidArgument("bad header");
  BitReader r(cp.payload.data(), cp.payload.size());
  std::vector<Tuple> out(cp.tuple_count);
  const std::uint32_t prefix =
      (cp.radix_bits > 0 && suffix_bits < 32)
          ? (cp.partition_id << suffix_bits)
          : 0;
  for (std::uint32_t i = 0; i < cp.tuple_count; ++i) {
    out[i].key = prefix | static_cast<std::uint32_t>(r.Get(suffix_bits));
  }
  for (std::uint32_t start = 0; start < cp.tuple_count;
       start += kIdsPerBlock) {
    const std::uint32_t end =
        std::min(cp.tuple_count, start + kIdsPerBlock);
    const std::uint32_t min_id = static_cast<std::uint32_t>(r.Get(32));
    const int delta_bits = static_cast<int>(r.Get(6));
    for (std::uint32_t i = start; i < end; ++i) {
      out[i].id = min_id + static_cast<std::uint32_t>(r.Get(delta_bits));
    }
  }
  if (r.Exhausted() && cp.tuple_count > 0 &&
      cp.payload.empty()) {
    return Status::InvalidArgument("truncated payload");
  }
  return out;
}

std::uint64_t EstimateCompressedBytes(const Tuple* tuples, std::size_t n,
                                      int domain_bits, int radix_bits,
                                      int extra_bits) {
  if (n == 0) return 0;
  const int suffix_bits =
      std::min(32, domain_bits - radix_bits + extra_bits);
  std::uint64_t bits = static_cast<std::uint64_t>(n) * suffix_bits;
  for (std::size_t start = 0; start < n; start += kIdsPerBlock) {
    const std::size_t end = std::min(n, start + kIdsPerBlock);
    std::uint32_t min_id = tuples[start].id;
    std::uint32_t max_id = min_id;
    for (std::size_t i = start; i < end; ++i) {
      min_id = std::min(min_id, tuples[i].id);
      max_id = std::max(max_id, tuples[i].id);
    }
    const int delta_bits =
        std::min(32, BitsFor(max_id - min_id) + extra_bits);
    bits += 38 + static_cast<std::uint64_t>(end - start) * delta_bits;
  }
  return bits / 8 + 16;
}

Result<std::vector<CompressedPartition>> CompressPartitions(
    const std::vector<std::vector<Tuple>>& parts, int domain_bits,
    int radix_bits) {
  std::vector<Result<CompressedPartition>> results(
      parts.size(), Status::Internal("not compressed"));
  ParallelFor(0, parts.size(), [&](std::size_t p) {
    results[p] = CompressPartition(parts[p].data(), parts[p].size(),
                                   static_cast<std::uint32_t>(p),
                                   domain_bits, radix_bits);
  });
  std::vector<CompressedPartition> out;
  out.reserve(parts.size());
  for (auto& r : results) {
    if (!r.ok()) return r.status();
    out.push_back(std::move(r).value());
  }
  return out;
}

Result<std::vector<std::vector<Tuple>>> DecompressPartitions(
    const std::vector<CompressedPartition>& parts) {
  std::vector<Result<std::vector<Tuple>>> results(
      parts.size(), Status::Internal("not decompressed"));
  ParallelFor(0, parts.size(), [&](std::size_t p) {
    results[p] = DecompressPartition(parts[p]);
  });
  std::vector<std::vector<Tuple>> out;
  out.reserve(parts.size());
  for (auto& r : results) {
    if (!r.ok()) return r.status();
    out.push_back(std::move(r).value());
  }
  return out;
}

}  // namespace mgjoin::data
