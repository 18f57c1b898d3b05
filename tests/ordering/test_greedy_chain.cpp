// Tests for the greedy min-XOR chain ordering (ablation A4) — the
// registry's "chain" strategy: permutation validity, the
// never-worse-than-natural-order property on random windows, window-by-
// window stream chaining, and degenerate window sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"

namespace nocbt::ordering {
namespace {

std::vector<std::uint32_t> random_patterns(std::size_t n, DataFormat format,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  const std::uint64_t mask = low_mask(value_bits(format));
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(rng.bits64() & mask));
  return out;
}

/// Sum of bit transitions between consecutive values of a sequence — the
/// quantity the chain greedily minimizes within a window.
std::uint64_t adjacent_bt(const std::vector<std::uint32_t>& seq) {
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < seq.size(); ++i)
    total += static_cast<std::uint64_t>(transitions(seq[i - 1], seq[i]));
  return total;
}

std::vector<std::uint32_t> chain_order(std::span<const std::uint32_t> window,
                                       DataFormat format) {
  return get_strategy("chain").order(window, format);
}

std::vector<std::uint32_t> chain_stream(std::span<const std::uint32_t> stream,
                                        DataFormat format,
                                        std::size_t window_values) {
  return order_stream_with(get_strategy("chain"), stream, format,
                           window_values);
}

TEST(GreedyChain, EmptyWindow) {
  const std::vector<std::uint32_t> empty;
  EXPECT_TRUE(chain_order(empty, DataFormat::kFixed8).empty());
  EXPECT_TRUE(chain_stream(empty, DataFormat::kFloat32, 16).empty());
}

TEST(GreedyChain, SingleElementWindow) {
  const std::vector<std::uint32_t> one = {0xA5};
  const auto perm = chain_order(one, DataFormat::kFixed8);
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0u);

  const auto stream = chain_stream(one, DataFormat::kFixed8, 4);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0], 0xA5u);
}

TEST(GreedyChain, ZeroWindowThrows) {
  const std::vector<std::uint32_t> patterns = {1, 2, 3};
  EXPECT_THROW(chain_stream(patterns, DataFormat::kFixed8, 0),
               std::invalid_argument);
}

TEST(GreedyChain, ReturnsValidPermutation) {
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    for (const std::size_t n : {2u, 3u, 16u, 64u, 257u}) {
      const auto patterns = random_patterns(n, format, 7 + n);
      const auto perm = chain_order(patterns, format);
      EXPECT_TRUE(is_permutation(perm, n))
          << "n=" << n << " format=" << to_string(format);
    }
  }
}

TEST(GreedyChain, StartsFromHighestPopcount) {
  // Seed element is the max-popcount value (ties: lowest index), matching
  // the descending ordering's start.
  const std::vector<std::uint32_t> patterns = {0x0F, 0xFE, 0x01, 0xEF};
  const auto perm = chain_order(patterns, DataFormat::kFixed8);
  ASSERT_FALSE(perm.empty());
  EXPECT_EQ(perm[0], 1u);  // 0xFE: first of the two 7-popcount values
}

TEST(GreedyChain, NeverWorseThanNaturalOrderOnRandomWindows) {
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto window = random_patterns(64, format, seed);
      const auto perm = chain_order(window, format);
      std::vector<std::uint32_t> chained;
      for (const std::uint32_t idx : perm) chained.push_back(window[idx]);
      EXPECT_LE(adjacent_bt(chained), adjacent_bt(window))
          << "seed=" << seed << " format=" << to_string(format);
    }
  }
}

TEST(GreedyChain, NeverWorseThanPopcountOrderOnRandomWindows) {
  // The ablation's claim: true Hamming-distance chaining beats (or ties)
  // the popcount proxy within a window.
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
      const auto window = random_patterns(48, format, seed);
      const auto chain_perm = chain_order(window, format);
      const auto sort_perm = popcount_descending_order(window, format);
      std::vector<std::uint32_t> chained, sorted;
      for (const std::uint32_t idx : chain_perm) chained.push_back(window[idx]);
      for (const std::uint32_t idx : sort_perm) sorted.push_back(window[idx]);
      EXPECT_LE(adjacent_bt(chained), adjacent_bt(sorted))
          << "seed=" << seed << " format=" << to_string(format);
    }
  }
}

TEST(GreedyChain, StreamChainsWindowByWindow) {
  const auto patterns = random_patterns(100, DataFormat::kFixed8, 11);
  const std::size_t window = 32;  // 100 = 32 + 32 + 32 + 4 (ragged tail)
  const auto out = chain_stream(patterns, DataFormat::kFixed8, window);
  ASSERT_EQ(out.size(), patterns.size());

  for (std::size_t start = 0; start < patterns.size(); start += window) {
    const std::size_t len = std::min(window, patterns.size() - start);
    // Each window of the output is a rearrangement of the same values...
    std::vector<std::uint32_t> in_window(patterns.begin() + start,
                                         patterns.begin() + start + len);
    std::vector<std::uint32_t> out_window(out.begin() + start,
                                          out.begin() + start + len);
    EXPECT_TRUE(std::is_permutation(in_window.begin(), in_window.end(),
                                    out_window.begin()));
    // ...and is exactly the per-window greedy chain.
    const auto perm = chain_order(in_window, DataFormat::kFixed8);
    for (std::size_t i = 0; i < len; ++i)
      EXPECT_EQ(out_window[i], in_window[perm[i]]);
  }
}

}  // namespace
}  // namespace nocbt::ordering
