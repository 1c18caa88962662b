// Footprint-mask kernels of the dense torus search.
//
// The dense engine's per-node work is three loops over `words`-length
// 64-bit coverage masks: the placement feasibility test (any overlapping
// bit between the coverage bitset and the footprint mask), the
// apply/undo toggle (word-wise XOR), and the first-uncovered-cell scan
// (first zero bit at or after a cursor).  They are plain inline loops;
// tests/test_mask_kernels.cpp pins their contracts.
#pragma once

#include <cstdint>

namespace latticesched {
namespace mask_kernels {

/// True when (cover[i] & mask[i]) != 0 for any i < words.
inline bool any_overlap_scalar(const std::uint64_t* cover,
                               const std::uint64_t* mask,
                               std::uint32_t words) {
  for (std::uint32_t i = 0; i < words; ++i) {
    if ((cover[i] & mask[i]) != 0) return true;
  }
  return false;
}

/// cover[i] ^= mask[i] for every i < words (applies or undoes a disjoint
/// placement footprint).
inline void toggle_scalar(std::uint64_t* cover, const std::uint64_t* mask,
                          std::uint32_t words) {
  for (std::uint32_t i = 0; i < words; ++i) cover[i] ^= mask[i];
}

/// Index of the first ZERO bit at or after `cursor` (cursor <
/// words * 64), or words * 64 when every bit from cursor on is set.
inline std::uint32_t first_uncovered_scalar(const std::uint64_t* cover,
                                            std::uint32_t words,
                                            std::uint32_t cursor) {
  std::uint32_t w = cursor / 64;
  std::uint64_t inv = ~cover[w] & (~std::uint64_t{0} << (cursor % 64));
  while (inv == 0) {
    if (++w >= words) return words * 64;
    inv = ~cover[w];
  }
  return w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(inv));
}

}  // namespace mask_kernels
}  // namespace latticesched
