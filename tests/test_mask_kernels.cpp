// Footprint-mask kernel tests: the contracts of the dense torus search's
// three inline mask loops.
#include <gtest/gtest.h>

#include "tiling/mask_kernels.hpp"

namespace latticesched {
namespace mask_kernels {
namespace {

TEST(MaskKernels, ScalarFirstUncoveredContract) {
  // One word, bit 3 clear.
  std::uint64_t one = ~std::uint64_t{0} & ~(std::uint64_t{1} << 3);
  EXPECT_EQ(first_uncovered_scalar(&one, 1, 0), 3u);
  EXPECT_EQ(first_uncovered_scalar(&one, 1, 3), 3u);
  // Past the only hole: bounded, returns words * 64.
  EXPECT_EQ(first_uncovered_scalar(&one, 1, 4), 64u);

  // Hole in a later word, cursor mid-word.
  std::uint64_t multi[3] = {~std::uint64_t{0}, ~std::uint64_t{0},
                            ~(std::uint64_t{1} << 17)};
  EXPECT_EQ(first_uncovered_scalar(multi, 3, 0), 2u * 64 + 17);
  EXPECT_EQ(first_uncovered_scalar(multi, 3, 100), 2u * 64 + 17);
  multi[2] = ~std::uint64_t{0};
  EXPECT_EQ(first_uncovered_scalar(multi, 3, 0), 3u * 64);

  // The empty mask: cursor itself is uncovered.
  std::uint64_t zero = 0;
  EXPECT_EQ(first_uncovered_scalar(&zero, 1, 0), 0u);
  EXPECT_EQ(first_uncovered_scalar(&zero, 1, 41), 41u);
}

TEST(MaskKernels, ScalarOverlapAndToggle) {
  std::uint64_t cover[2] = {0x0f, 0};
  std::uint64_t mask[2] = {0xf0, 0};
  EXPECT_FALSE(any_overlap_scalar(cover, mask, 2));
  toggle_scalar(cover, mask, 2);
  EXPECT_EQ(cover[0], 0xffu);
  EXPECT_TRUE(any_overlap_scalar(cover, mask, 2));
  toggle_scalar(cover, mask, 2);  // undo: toggle is an involution
  EXPECT_EQ(cover[0], 0x0fu);
  EXPECT_EQ(cover[1], 0u);
}

}  // namespace
}  // namespace mask_kernels
}  // namespace latticesched
