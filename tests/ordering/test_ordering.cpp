// Unit and property tests for the '1'-bit-count ordering primitives.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"

namespace nocbt::ordering {
namespace {

/// The no-NoC stream transformation: popcount-sort each window.
std::vector<std::uint32_t> popcount_stream(
    std::span<const std::uint32_t> stream, DataFormat format,
    std::size_t window_values) {
  return order_stream_with(get_strategy("popcount"), stream, format,
                           window_values);
}

TEST(OrderingMode, RoundTripNames) {
  EXPECT_EQ(parse_ordering_mode("O0"), OrderingMode::kBaseline);
  EXPECT_EQ(parse_ordering_mode("O1"), OrderingMode::kAffiliated);
  EXPECT_EQ(parse_ordering_mode("O2"), OrderingMode::kSeparated);
  EXPECT_EQ(parse_ordering_mode("affiliated"), OrderingMode::kAffiliated);
  EXPECT_THROW((void)parse_ordering_mode("O9"), std::invalid_argument);
  EXPECT_EQ(to_string(OrderingMode::kSeparated), "O2-separated");
}

TEST(PopcountOrder, SortsDescending) {
  const std::vector<std::uint32_t> patterns = {0x0F, 0x01, 0xFF, 0x00, 0x33};
  const auto perm = popcount_descending_order(patterns, DataFormat::kFixed8);
  ASSERT_EQ(perm.size(), 5u);
  EXPECT_EQ(patterns[perm[0]], 0xFFu);  // 8 ones
  EXPECT_EQ(patterns[perm[1]], 0x0Fu);  // 4 ones
  EXPECT_EQ(patterns[perm[2]], 0x33u);  // 4 ones (stable: after 0x0F)
  EXPECT_EQ(patterns[perm[3]], 0x01u);  // 1 one
  EXPECT_EQ(patterns[perm[4]], 0x00u);  // 0 ones
}

TEST(PopcountOrder, StableForEqualCounts) {
  // All have popcount 1; stable sort must preserve original order.
  const std::vector<std::uint32_t> patterns = {0x01, 0x02, 0x04, 0x08};
  const auto perm = popcount_descending_order(patterns, DataFormat::kFixed8);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(perm[i], i);
}

TEST(PopcountOrder, IsAlwaysAPermutation) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> patterns;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 63));
    for (int i = 0; i < n; ++i)
      patterns.push_back(static_cast<std::uint32_t>(rng.bits64()));
    const auto perm = popcount_descending_order(patterns, DataFormat::kFloat32);
    EXPECT_TRUE(is_permutation(perm, patterns.size()));
    // Verify monotone non-increasing popcounts.
    for (std::size_t i = 1; i < perm.size(); ++i)
      EXPECT_GE(popcount32(patterns[perm[i - 1]]),
                popcount32(patterns[perm[i]]));
  }
}

TEST(ApplyPermutation, Reorders) {
  const std::vector<int> values = {10, 20, 30};
  const std::vector<std::uint32_t> perm = {2, 0, 1};
  const auto out = apply_permutation(std::span<const int>(values),
                                     std::span<const std::uint32_t>(perm));
  EXPECT_EQ(out, (std::vector<int>{30, 10, 20}));
}

TEST(InversePermutation, RoundTrips) {
  const std::vector<std::uint32_t> perm = {3, 1, 0, 2};
  const auto inv = inverse_permutation(perm);
  EXPECT_EQ(inv, (std::vector<std::uint32_t>{2, 1, 3, 0}));
  for (std::uint32_t i = 0; i < perm.size(); ++i) EXPECT_EQ(inv[perm[i]], i);
}

TEST(IsPermutation, DetectsBadInputs) {
  EXPECT_TRUE(is_permutation(std::vector<std::uint32_t>{0, 1, 2}, 3));
  EXPECT_FALSE(is_permutation(std::vector<std::uint32_t>{0, 1, 1}, 3));
  EXPECT_FALSE(is_permutation(std::vector<std::uint32_t>{0, 1, 3}, 3));
  EXPECT_FALSE(is_permutation(std::vector<std::uint32_t>{0, 1}, 3));
}

TEST(SeparatedPairingIndex, RecoversOriginalPairs) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 30));
    std::vector<std::uint32_t> weights;
    std::vector<std::uint32_t> inputs;
    for (int i = 0; i < n; ++i) {
      weights.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
      inputs.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
    }
    const auto wp = popcount_descending_order(weights, DataFormat::kFixed8);
    const auto ip = popcount_descending_order(inputs, DataFormat::kFixed8);
    const auto pair_index = separated_pairing_index(wp, ip);

    const auto sorted_w = apply_permutation(
        std::span<const std::uint32_t>(weights), wp);
    const auto sorted_i = apply_permutation(
        std::span<const std::uint32_t>(inputs), ip);

    // The re-paired dot product over pattern values must equal the original.
    std::int64_t original = 0;
    for (int i = 0; i < n; ++i)
      original += static_cast<std::int64_t>(weights[static_cast<std::size_t>(i)]) *
                  inputs[static_cast<std::size_t>(i)];
    std::int64_t recovered = 0;
    for (int i = 0; i < n; ++i)
      recovered += static_cast<std::int64_t>(sorted_w[static_cast<std::size_t>(i)]) *
                   sorted_i[pair_index[static_cast<std::size_t>(i)]];
    EXPECT_EQ(recovered, original);
  }
}

TEST(OrderStream, PreservesMultisetPerWindow) {
  Rng rng(23);
  std::vector<std::uint32_t> stream;
  for (int i = 0; i < 256; ++i)
    stream.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
  const auto ordered = popcount_stream(stream, DataFormat::kFixed8, 64);
  ASSERT_EQ(ordered.size(), stream.size());
  for (std::size_t start = 0; start < stream.size(); start += 64) {
    std::vector<std::uint32_t> a(stream.begin() + static_cast<std::ptrdiff_t>(start),
                                 stream.begin() + static_cast<std::ptrdiff_t>(start + 64));
    std::vector<std::uint32_t> b(ordered.begin() + static_cast<std::ptrdiff_t>(start),
                                 ordered.begin() + static_cast<std::ptrdiff_t>(start + 64));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "window at " << start;
  }
}

TEST(OrderStream, DescendingWithinEachWindow) {
  Rng rng(29);
  std::vector<std::uint32_t> stream;
  for (int i = 0; i < 100; ++i)
    stream.push_back(static_cast<std::uint32_t>(rng.bits64()));
  const auto ordered = popcount_stream(stream, DataFormat::kFloat32, 32);
  for (std::size_t start = 0; start < stream.size(); start += 32) {
    const std::size_t end = std::min(start + 32, stream.size());
    for (std::size_t i = start + 1; i < end; ++i)
      EXPECT_GE(popcount32(ordered[i - 1]), popcount32(ordered[i]));
  }
}

TEST(OrderStream, HandlesRaggedTailAndRejectsZeroWindow) {
  const std::vector<std::uint32_t> stream = {1, 2, 3, 4, 5};
  const auto ordered = popcount_stream(stream, DataFormat::kFixed8, 2);
  EXPECT_EQ(ordered.size(), 5u);
  EXPECT_THROW(popcount_stream(stream, DataFormat::kFixed8, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::ordering
