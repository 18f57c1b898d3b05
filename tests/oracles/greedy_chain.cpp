#include "oracles/greedy_chain.h"

namespace nocbt::ordering {

std::vector<std::uint32_t> greedy_min_xor_chain(
    std::span<const std::uint32_t> patterns, DataFormat format) {
  const std::size_t n = patterns.size();
  // Distances, like the seed's popcount key, only see the format's
  // transmitted bits — stray bits above value_bits(format) never ride the
  // link and must not steer the chain.
  const auto mask = static_cast<std::uint32_t>(low_mask(value_bits(format)));
  std::vector<std::uint32_t> perm;
  if (n == 0) return perm;
  perm.reserve(n);
  std::vector<bool> used(n, false);

  // Seed: highest popcount (matches the descending ordering's start).
  std::size_t current = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (pattern_popcount(patterns[i], format) >
        pattern_popcount(patterns[current], format))
      current = i;
  used[current] = true;
  perm.push_back(static_cast<std::uint32_t>(current));

  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = n;
    int best_dist = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      const int dist =
          popcount32((patterns[current] & mask) ^ (patterns[j] & mask));
      if (best == n || dist < best_dist) {
        best = j;
        best_dist = dist;
      }
    }
    used[best] = true;
    perm.push_back(static_cast<std::uint32_t>(best));
    current = best;
  }
  return perm;
}

}  // namespace nocbt::ordering
