#ifndef MGJOIN_COMMON_BITUTIL_H_
#define MGJOIN_COMMON_BITUTIL_H_

#include <bit>
#include <cstdint>

namespace mgjoin {

/// Returns the number of bits needed to represent values in [0, n)
/// (i.e. ceil(log2(n)) with Log2Ceil(1) == 0).
inline int Log2Ceil(std::uint64_t n) {
  if (n <= 1) return 0;
  return 64 - std::countl_zero(n - 1);
}

/// Rounds `n` up to the next power of two (NextPow2(0) == 1).
inline std::uint64_t NextPow2(std::uint64_t n) {
  if (n <= 1) return 1;
  return 1ull << Log2Ceil(n);
}

/// Integer division rounding up.
inline std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Extracts `bits` bits of `x` starting at bit `shift` (LSB order).
inline std::uint32_t ExtractBits(std::uint32_t x, int shift, int bits) {
  if (bits <= 0) return 0;
  return (x >> shift) & ((bits >= 32) ? 0xFFFFFFFFu : ((1u << bits) - 1u));
}

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_BITUTIL_H_
