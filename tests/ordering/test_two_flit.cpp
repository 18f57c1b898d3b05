// Property tests for the two-flit optimality claim of §III-B: the
// descending interleaved ordering maximizes F = sum(x_i * y_i), verified
// against exhaustive search over all pairings.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ordering/two_flit.h"

namespace nocbt::ordering {
namespace {

TEST(TwoFlit, InterleaveProducesAlternatingDescendingCounts) {
  // popcounts: 0xFF=8, 0x7F=7, 0x3F=6, 0x1F=5, 0x0F=4, 0x07=3.
  const std::vector<std::uint32_t> values = {0x07, 0xFF, 0x1F, 0x3F, 0x0F, 0x7F};
  const auto a = interleave_descending(values, DataFormat::kFixed8);
  ASSERT_EQ(a.flit1.size(), 3u);
  ASSERT_EQ(a.flit2.size(), 3u);
  // x1 >= y1 >= x2 >= y2 >= x3 >= y3.
  EXPECT_EQ(a.flit1[0], 0xFFu);
  EXPECT_EQ(a.flit2[0], 0x7Fu);
  EXPECT_EQ(a.flit1[1], 0x3Fu);
  EXPECT_EQ(a.flit2[1], 0x1Fu);
  EXPECT_EQ(a.flit1[2], 0x0Fu);
  EXPECT_EQ(a.flit2[2], 0x07u);
}

TEST(TwoFlit, PairwiseProductSum) {
  TwoFlitAssignment a;
  a.flit1 = {0xFF, 0x0F};  // 8, 4
  a.flit2 = {0x7F, 0x03};  // 7, 2
  EXPECT_EQ(pairwise_product_sum(a, DataFormat::kFixed8), 8 * 7 + 4 * 2);
}

TEST(TwoFlit, RejectsOddCounts) {
  const std::vector<std::uint32_t> odd = {1, 2, 3};
  EXPECT_THROW(interleave_descending(odd, DataFormat::kFixed8),
               std::invalid_argument);
  EXPECT_THROW((void)exhaustive_best_f(odd, DataFormat::kFixed8),
               std::invalid_argument);
}

// The paper's core claim, checked exhaustively: for random multisets the
// count-based interleaved ordering achieves the maximal F over all
// pairings.
TEST(TwoFlit, InterleaveIsOptimalFixed8) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 * (1 + rng.uniform_int(0, 4));  // 2..10 values
    std::vector<std::uint32_t> values;
    for (std::size_t i = 0; i < n; ++i)
      values.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
    const auto assignment = interleave_descending(values, DataFormat::kFixed8);
    const auto f = pairwise_product_sum(assignment, DataFormat::kFixed8);
    const auto best = exhaustive_best_f(values, DataFormat::kFixed8);
    EXPECT_EQ(f, best) << "trial " << trial;
  }
}

TEST(TwoFlit, InterleaveIsOptimalFloat32) {
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint32_t> values;
    for (int i = 0; i < 8; ++i)
      values.push_back(static_cast<std::uint32_t>(rng.bits64()));
    const auto assignment =
        interleave_descending(values, DataFormat::kFloat32);
    EXPECT_EQ(pairwise_product_sum(assignment, DataFormat::kFloat32),
              exhaustive_best_f(values, DataFormat::kFloat32));
  }
}

// Maximizing F minimizes the expected transitions (Eq. 3): check that the
// interleaved ordering's expected BT is <= that of any random pairing.
TEST(TwoFlit, ExpectedTransitionsNotWorseThanRandomPairings) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> values;
    for (int i = 0; i < 12; ++i)
      values.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
    const auto optimal = interleave_descending(values, DataFormat::kFixed8);
    const double optimal_e = expected_transitions(optimal, DataFormat::kFixed8);

    // Random pairing: first half vs second half, unsorted.
    TwoFlitAssignment random;
    random.flit1.assign(values.begin(), values.begin() + 6);
    random.flit2.assign(values.begin() + 6, values.end());
    EXPECT_LE(optimal_e,
              expected_transitions(random, DataFormat::kFixed8) + 1e-9);
  }
}

TEST(TwoFlit, ExpectedTransitionsFormula) {
  TwoFlitAssignment a;
  a.flit1 = {0xFF};  // x = 8
  a.flit2 = {0x0F};  // y = 4
  // E = x + y - 2xy/W = 8 + 4 - 2*32/8 = 4.
  EXPECT_DOUBLE_EQ(expected_transitions(a, DataFormat::kFixed8), 4.0);
}

TEST(TwoFlit, PreservesValueMultiset) {
  Rng rng(43);
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 10; ++i)
    values.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
  const auto a = interleave_descending(values, DataFormat::kFixed8);
  std::vector<std::uint32_t> combined = a.flit1;
  combined.insert(combined.end(), a.flit2.begin(), a.flit2.end());
  std::sort(combined.begin(), combined.end());
  std::vector<std::uint32_t> original = values;
  std::sort(original.begin(), original.end());
  EXPECT_EQ(combined, original);
}

}  // namespace
}  // namespace nocbt::ordering
