// Tests for the analytic BT model (Eqs. 1-3, Fig. 1), cross-validated
// against Monte-Carlo simulation of the independence model.

#include <gtest/gtest.h>

#include "analysis/bt_math.h"
#include "common/rng.h"

namespace nocbt::analysis {
namespace {

TEST(BtMath, ClosedFormMatchesEq2At32Bits) {
  // Eq. 2: E = x + y - xy/16 for W = 32.
  for (int x : {0, 1, 8, 16, 32}) {
    for (int y : {0, 3, 16, 31}) {
      EXPECT_NEAR(expected_bt(x, y, 32), x + y - (x * y) / 16.0, 1e-12)
          << "x=" << x << " y=" << y;
    }
  }
}

TEST(BtMath, Extremes) {
  // All-zeros vs all-zeros: no transitions; all-ones vs all-ones: none;
  // all-ones vs all-zeros: every wire flips.
  EXPECT_DOUBLE_EQ(expected_bt(0, 0, 32), 0.0);
  EXPECT_DOUBLE_EQ(expected_bt(32, 32, 32), 0.0);
  EXPECT_DOUBLE_EQ(expected_bt(32, 0, 32), 32.0);
  EXPECT_DOUBLE_EQ(expected_bt(0, 32, 32), 32.0);
}

TEST(BtMath, SymmetricInXAndY) {
  for (int x = 0; x <= 8; ++x)
    for (int y = 0; y <= 8; ++y)
      EXPECT_DOUBLE_EQ(expected_bt(x, y, 8), expected_bt(y, x, 8));
}

TEST(BtMath, ProbabilityBounds) {
  for (int x = 0; x <= 32; ++x) {
    for (int y = 0; y <= 32; ++y) {
      const double p = transition_probability(x, y, 32);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(BtMath, RejectsOutOfRange) {
  EXPECT_THROW((void)transition_probability(-1, 0, 32), std::invalid_argument);
  EXPECT_THROW((void)transition_probability(0, 33, 32), std::invalid_argument);
  EXPECT_THROW((void)transition_probability(0, 0, 0), std::invalid_argument);
}

TEST(BtMath, SurfaceShapeAndCorners) {
  const auto grid = expectation_surface(32);
  ASSERT_EQ(grid.size(), 33u);
  ASSERT_EQ(grid[0].size(), 33u);
  EXPECT_DOUBLE_EQ(grid[0][0], 0.0);
  EXPECT_DOUBLE_EQ(grid[32][32], 0.0);
  EXPECT_DOUBLE_EQ(grid[32][0], 32.0);
  EXPECT_DOUBLE_EQ(grid[16][16], 16.0 + 16.0 - 256.0 / 16.0);
}

TEST(BtMath, SurfaceMaximumOnAntiDiagonal) {
  // E is maximized when one number is all ones and the other all zeros.
  const auto grid = expectation_surface(32);
  double best = 0.0;
  for (const auto& row : grid)
    for (double v : row) best = std::max(best, v);
  EXPECT_DOUBLE_EQ(best, 32.0);
}

// Property sweep: Monte-Carlo of the independence model converges to the
// closed form for a grid of (x, y) pairs.
struct McCase {
  int x;
  int y;
};
class BtMathMonteCarlo : public ::testing::TestWithParam<McCase> {};

TEST_P(BtMathMonteCarlo, ClosedFormMatchesSimulation) {
  const auto [x, y] = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(x) * 64 + y);
  const double mc = monte_carlo_expected_bt(x, y, 32, 20'000, rng);
  EXPECT_NEAR(mc, expected_bt(x, y, 32), 0.15) << "x=" << x << " y=" << y;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BtMathMonteCarlo,
    ::testing::Values(McCase{0, 0}, McCase{1, 1}, McCase{4, 28}, McCase{8, 8},
                      McCase{16, 16}, McCase{16, 8}, McCase{24, 4},
                      McCase{31, 2}, McCase{32, 16}, McCase{32, 32}),
    [](const ::testing::TestParamInfo<McCase>& info) {
      return "x" + std::to_string(info.param.x) + "_y" +
             std::to_string(info.param.y);
    });

TEST(BtMath, FlitExpectationSumsPerValue) {
  const std::vector<int> x = {8, 16, 32};
  const std::vector<int> y = {4, 16, 0};
  const double total = expected_flit_bt(x, y, 32);
  EXPECT_NEAR(total,
              expected_bt(8, 4, 32) + expected_bt(16, 16, 32) +
                  expected_bt(32, 0, 32),
              1e-12);
  const std::vector<int> bad = {1};
  EXPECT_THROW((void)expected_flit_bt(x, bad, 32), std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::analysis
