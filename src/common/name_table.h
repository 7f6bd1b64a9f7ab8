#ifndef MGJOIN_COMMON_NAME_TABLE_H_
#define MGJOIN_COMMON_NAME_TABLE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace mgjoin {

/// Lookups over a name table: a constexpr array of structs whose `name`
/// member is the spelling a flag or spec accepts (net::kPolicyNames,
/// topo::kMachinePresets). The entry called `name`, or nullptr.
template <typename Entry, std::size_t N>
const Entry* FindName(const Entry (&table)[N], std::string_view name) {
  for (const Entry& e : table) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

/// The table's names as "a|b|c", for error messages.
template <typename Entry, std::size_t N>
std::string NameList(const Entry (&table)[N]) {
  std::string out;
  for (const Entry& e : table) {
    if (!out.empty()) out += '|';
    out += e.name;
  }
  return out;
}

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_NAME_TABLE_H_
