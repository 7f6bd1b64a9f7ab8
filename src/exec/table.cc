#include "exec/table.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace mgjoin::exec {

Column& Table::AddColumn(const std::string& name, ColType type) {
  MGJ_CHECK(index_.count(name) == 0) << "duplicate column " << name;
  index_[name] = columns_.size();
  names_.push_back(name);
  columns_.emplace_back();
  columns_.back().type = type;
  return columns_.back();
}

const Column& Table::col(const std::string& name) const {
  auto it = index_.find(name);
  MGJ_CHECK(it != index_.end()) << "no column " << name;
  return columns_[it->second];
}

Column& Table::col(const std::string& name) {
  auto it = index_.find(name);
  MGJ_CHECK(it != index_.end()) << "no column " << name;
  return columns_[it->second];
}

std::uint64_t Table::rows() const {
  return columns_.empty() ? 0 : columns_.front().size();
}

std::uint64_t Table::TotalBytes() const {
  std::uint64_t bytes = 0;
  for (const Column& c : columns_) bytes += c.size() * c.ByteWidth();
  return bytes;
}

const std::vector<std::string>& Table::dict(const std::string& name) const {
  auto it = dicts_.find(name);
  MGJ_CHECK(it != dicts_.end()) << "no dictionary for " << name;
  return it->second;
}

namespace {

using Pair = std::pair<std::uint32_t, std::uint32_t>;

// How far ahead of the current pair a column fill prefetches its source
// row: enough to overlap a few L3/DRAM misses, short enough that the
// lines are still cached when read.
constexpr std::size_t kPrefetchAhead = 16;

// Writes dst[j] = src[shard[j]][row[j]] for j in [0, n).
template <typename T>
void FillSlice(const std::vector<const T*>& src, const std::uint32_t* shard,
               const std::uint32_t* row, std::size_t n, T* dst) {
  for (std::size_t j = 0; j < n; ++j) {
    if (j + kPrefetchAhead < n) {
      __builtin_prefetch(src[shard[j + kPrefetchAhead]] +
                         row[j + kPrefetchAhead]);
    }
    dst[j] = src[shard[j]][row[j]];
  }
}

// Appends to `out` `columns` of the rows of `t` that the pairs' `side`
// member addresses by global row id. Output row `i` is written only by
// the morsel holding pair `i`, so the output is thread-count invariant.
void GatherSide(const DistTable& t, std::span<const Pair> pairs,
                std::uint32_t Pair::*side,
                const std::vector<std::string>& columns, Table* out) {
  if (columns.empty()) return;
  MGJ_CHECK(!t.shards.empty()) << "gather from a table without shards";
  std::vector<std::uint64_t> base{0};
  for (const Table& s : t.shards) base.push_back(base.back() + s.rows());
  // Add every output column before taking pointers into any of them:
  // AddColumn may reallocate the table's column storage.
  for (const std::string& name : columns) {
    Column& dst = out->AddColumn(name, t.shards[0].col(name).type);
    if (dst.type == ColType::kDouble) {
      dst.doubles.resize(pairs.size());
    } else {
      dst.ints.resize(pairs.size());
    }
  }
  // Per column: each shard's source data and the output.
  struct Source {
    bool is_double = false;
    std::vector<const std::int64_t*> ints;
    std::vector<const double*> doubles;
    std::int64_t* int_out = nullptr;
    double* double_out = nullptr;
  };
  std::vector<Source> sources(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    Column& dst = out->col(columns[c]);
    for (const Table& s : t.shards) {
      const Column& src = s.col(columns[c]);
      sources[c].ints.push_back(src.ints.data());
      sources[c].doubles.push_back(src.doubles.data());
    }
    sources[c].is_double = dst.type == ColType::kDouble;
    sources[c].int_out = dst.ints.data();
    sources[c].double_out = dst.doubles.data();
  }
  ParallelForChunked(
      0, pairs.size(), kGatherMorsel, [&](std::size_t lo, std::size_t hi) {
        // Resolve each pair's (shard, local row) once for all columns.
        const std::size_t n = hi - lo;
        std::vector<std::uint32_t> shard(n);
        std::vector<std::uint32_t> row(n);
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t global = pairs[lo + j].*side;
          MGJ_CHECK(global < base.back())
              << "row " << global << " out of range";
          const std::size_t s =
              std::upper_bound(base.begin(), base.end(), global) -
              base.begin() - 1;
          shard[j] = static_cast<std::uint32_t>(s);
          row[j] = static_cast<std::uint32_t>(global - base[s]);
        }
        for (const Source& src : sources) {
          if (src.is_double) {
            FillSlice(src.doubles, shard.data(), row.data(), n,
                      src.double_out + lo);
          } else {
            FillSlice(src.ints, shard.data(), row.data(), n,
                      src.int_out + lo);
          }
        }
      });
}

}  // namespace

Table GatherPairs(const DistTable& left, const DistTable& right,
                  std::span<const Pair> pairs,
                  const std::vector<std::string>& left_cols,
                  const std::vector<std::string>& right_cols) {
  Table out;
  GatherSide(left, pairs, &Pair::first, left_cols, &out);
  GatherSide(right, pairs, &Pair::second, right_cols, &out);
  return out;
}

std::int32_t DateToDays(int year, int month, int day) {
  // Howard Hinnant's days_from_civil.
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

}  // namespace mgjoin::exec
