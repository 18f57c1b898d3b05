#pragma once
// Reference oracle: the greedy min-XOR chain as a naive O(N^2) scan.
//
// Production chaining (the registry's "chain" strategy) runs the same
// greedy selection over the window's distinct values and guards it
// with an arrival-order fall-back. This scan is the textbook form of the
// unguarded chain; the differential suites pin the production permutation
// to it on every window where chaining does not lose to arrival order.

#include <cstdint>
#include <span>
#include <vector>

#include "common/data_format.h"

namespace nocbt::ordering {

/// Reorder `patterns` into a greedy minimum-Hamming-distance chain,
/// starting from the value with the highest popcount (ties: lowest index);
/// each successor is the unused value at minimum distance (ties: lowest
/// index). Returns the permutation (same contract as
/// popcount_descending_order).
[[nodiscard]] std::vector<std::uint32_t> greedy_min_xor_chain(
    std::span<const std::uint32_t> patterns, DataFormat format);

}  // namespace nocbt::ordering
