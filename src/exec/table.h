#ifndef MGJOIN_EXEC_TABLE_H_
#define MGJOIN_EXEC_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace mgjoin::exec {

/// Column value types. Dates are stored as int32 days since 1970-01-01;
/// low-cardinality strings are dictionary-encoded int32 codes.
enum class ColType { kInt32, kInt64, kDouble, kDate, kDict };

/// \brief One column of a table shard.
///
/// Numeric/dict data lives in `ints`; kDouble lives in `doubles`. The
/// dictionary (for kDict) is shared via the enclosing Table's schema.
struct Column {
  ColType type = ColType::kInt64;
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;

  std::size_t size() const {
    return type == ColType::kDouble ? doubles.size() : ints.size();
  }
  std::uint64_t ByteWidth() const {
    switch (type) {
      case ColType::kInt32:
      case ColType::kDate:
      case ColType::kDict:
        return 4;
      case ColType::kInt64:
        return 8;
      case ColType::kDouble:
        return 8;
    }
    return 8;
  }
};

/// \brief A columnar table shard (the rows resident on one GPU).
class Table {
 public:
  /// Adds a column; all columns must end up the same length.
  Column& AddColumn(const std::string& name, ColType type);

  bool HasColumn(const std::string& name) const {
    return index_.count(name) > 0;
  }
  const Column& col(const std::string& name) const;
  Column& col(const std::string& name);

  std::uint64_t rows() const;
  std::uint64_t TotalBytes() const;

  /// Registers/returns the dictionary for a kDict column.
  std::vector<std::string>& dict(const std::string& name) {
    return dicts_[name];
  }
  const std::vector<std::string>& dict(const std::string& name) const;

  const std::vector<std::string>& column_names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  std::map<std::string, std::size_t> index_;
  std::map<std::string, std::vector<std::string>> dicts_;
};

/// \brief A table horizontally sharded over the participating GPUs.
struct DistTable {
  std::vector<Table> shards;

  std::uint64_t rows() const {
    std::uint64_t n = 0;
    for (const Table& t : shards) n += t.rows();
    return n;
  }
  std::uint64_t TotalBytes() const {
    std::uint64_t n = 0;
    for (const Table& t : shards) n += t.TotalBytes();
    return n;
  }
  int num_shards() const { return static_cast<int>(shards.size()); }
};

/// Days since 1970-01-01 for a calendar date (proleptic Gregorian).
std::int32_t DateToDays(int year, int month, int day);

/// Pairs per GatherPairs morsel (the ParallelForChunked grain).
inline constexpr std::size_t kGatherMorsel = 16384;

/// \brief Gathers the rows of a join's matched pairs into one table.
///
/// Each pair addresses a left and a right row by global row id (shards
/// stacked in order, as Engine::HashJoin numbers them). Output row `i`
/// holds `left_cols` of `pairs[i].first` followed by `right_cols` of
/// `pairs[i].second`, so pair order is kept. Runs over fixed morsels of
/// kGatherMorsel pairs on the default thread pool; each morsel fills its
/// slice of every column, so the output does not depend on the thread
/// count. A row id past the end of its table is fatal. Charges no
/// simulated time.
Table GatherPairs(
    const DistTable& left, const DistTable& right,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
    const std::vector<std::string>& left_cols,
    const std::vector<std::string>& right_cols);

}  // namespace mgjoin::exec

#endif  // MGJOIN_EXEC_TABLE_H_
