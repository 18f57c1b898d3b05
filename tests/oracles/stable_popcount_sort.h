#pragma once
// Reference oracle: the '1'-count descending order as a comparison sort.
//
// Production popcount_descending_order is a counting sort (one bucket per
// popcount). This std::stable_sort form states the contract directly —
// non-increasing popcount, ties in arrival order — and the differential
// suites pin the counting sort to it.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/data_format.h"

namespace nocbt::ordering {

[[nodiscard]] inline std::vector<std::uint32_t> stable_popcount_order(
    std::span<const std::uint32_t> patterns, DataFormat format) {
  std::vector<std::uint32_t> perm(patterns.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return pattern_popcount(patterns[a], format) >
                            pattern_popcount(patterns[b], format);
                   });
  return perm;
}

}  // namespace nocbt::ordering
