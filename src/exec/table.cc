#include "exec/table.h"

#include <algorithm>

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

// Appends to `out`, one column at a time, `columns` of the rows of `t`
// that the pairs' `side` member addresses by global row id.
void GatherSide(const DistTable& t, std::span<const Pair> pairs,
                std::uint32_t Pair::*side,
                const std::vector<std::string>& columns, Table* out) {
  if (columns.empty()) return;
  MGJ_CHECK(!t.shards.empty()) << "gather from a table without shards";
  // Resolve every pair's (shard, local row) once for all columns.
  std::vector<std::uint64_t> base{0};
  for (const Table& s : t.shards) base.push_back(base.back() + s.rows());
  std::vector<std::pair<std::size_t, std::uint64_t>> at;
  at.reserve(pairs.size());
  for (const auto& pair : pairs) {
    const std::uint64_t global = pair.*side;
    MGJ_CHECK(global < base.back()) << "row " << global << " out of range";
    const std::size_t s =
        std::upper_bound(base.begin(), base.end(), global) - base.begin() - 1;
    at.emplace_back(s, global - base[s]);
  }
  std::vector<const Column*> src(t.shards.size());
  for (const std::string& name : columns) {
    for (std::size_t s = 0; s < src.size(); ++s) {
      src[s] = &t.shards[s].col(name);
    }
    Column& dst = out->AddColumn(name, src[0]->type);
    auto gather = [&](auto values) {
      auto& to = dst.*values;
      to.reserve(at.size());
      for (const auto& [s, i] : at) to.push_back((src[s]->*values)[i]);
    };
    if (dst.type == ColType::kDouble) {
      gather(&Column::doubles);
    } else {
      gather(&Column::ints);
    }
  }
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
