#pragma once
// Pluggable ordering-strategy engine.
//
// The paper evaluates exactly two reorderings (popcount sort, greedy
// min-XOR chain), but related work shows the design space is wider: '1'-
// bit-count sorting units (Han et al.) and operand Hamming-distance
// scheduling (Li et al.) are both orderings over the same packets. This
// header turns "how do we reorder a window" into a registered interface so
// O0/O1/O2, the greedy chain, and the two-flit interleave are instances
// rather than special cases — and new strategies become sweepable from the
// campaign runner by name.
//
// A strategy is a pure function window -> permutation. Pairing semantics
// (affiliated vs separated) stay with OrderingMode and are decided in one
// place, order_pairs(): every non-O2 mode applies its strategy's
// permutation to (weight, input) pairs keyed on the weights; O2 applies
// the popcount strategy per stream plus the pairing index. Registered
// built-ins, one per distinct permutation:
//
//   arrival   identity (O0 reference point)
//   popcount  stable '1'-count descending counting sort (the paper's unit,
//             O1/O2; Han et al.'s bucket sort computes the same order)
//   chain     greedy min-Hamming-distance chain over the window's distinct
//             values (ablation A4)
//   hybrid    per-window best of {arrival, popcount, chain} by measured BT
//   twoflit   SIII interleave x1 >= y1 >= x2 >= y2 >= ... across two flits
//
// chain/hybrid additionally guarantee they never increase the window's
// sequence BT versus arrival order (they fall back to the identity
// permutation when the chained order would be worse), which is the
// invariant the property suite asserts for every chain-class strategy.
//
// Strategies order one window per call, as the paper's unit orders one
// packet: the campaign runner and the packet builder order every request
// through order_pairs(), and order_batch()/order_stream_with() are loops
// over order().

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/data_format.h"
#include "ordering/ordering.h"

namespace nocbt::ordering {

/// Hardware-cost assumptions of a strategy, relative to the paper's
/// 12.91 kGE pop-count + odd-even-transposition unit (Fig. 14).
struct HardwareCost {
  std::string summary;          ///< one-line circuit sketch
  double relative_area = 1.0;   ///< rough gate budget vs the paper's unit
  bool sequential_scan = false; ///< needs a serial O(N^2) selection loop
  bool per_window_adaptive = false;  ///< needs per-window BT monitors
};

/// One ordering policy. Implementations must be stateless and thread-safe:
/// order() is called concurrently from campaign worker threads and must be
/// a deterministic pure function of (patterns, format).
class OrderingStrategy {
 public:
  virtual ~OrderingStrategy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  [[nodiscard]] virtual HardwareCost hardware_cost() const = 0;

  /// Permutation p such that patterns[p[0]], patterns[p[1]], ... is the
  /// transmission order (same contract as popcount_descending_order).
  [[nodiscard]] virtual std::vector<std::uint32_t> order(
      std::span<const std::uint32_t> patterns, DataFormat format) const = 0;

  /// order() over consecutive window_values-sized windows of `patterns`
  /// (the last may be ragged). Returns the concatenated window-local
  /// permutations: window w occupies the output range
  /// [w * window_values, w * window_values + len_w), holding exactly what
  /// order() returns for that window.
  ///
  /// `arrival_bt` must be empty or hold exactly one entry per window
  /// (std::invalid_argument otherwise); it never changes the result.
  [[nodiscard]] std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat format,
      std::size_t window_values,
      std::span<const std::uint64_t> arrival_bt = {}) const;

  /// True for chain-class strategies that guarantee the ordered window's
  /// sequence BT never exceeds arrival order's (the property suite
  /// enforces the guarantee for every strategy that claims it).
  [[nodiscard]] virtual bool never_worse_than_arrival() const noexcept {
    return false;
  }
};

/// Registered strategy by name, or nullptr. Thread-safe.
[[nodiscard]] const OrderingStrategy* find_strategy(std::string_view name);

/// Registered strategy by name; throws std::invalid_argument (listing the
/// registered names) when absent.
[[nodiscard]] const OrderingStrategy& get_strategy(std::string_view name);

/// Snapshot of every registered strategy, registration order. The pointers
/// stay valid for the process lifetime (strategies are never removed).
[[nodiscard]] std::vector<const OrderingStrategy*> registered_strategies();

/// Names of every registered strategy, registration order — the
/// enumeration hook exhaustive sweeps and the co-optimizer build their
/// strategy axis from (get_strategy accepts each returned name).
[[nodiscard]] std::vector<std::string> registered_strategy_names();

/// Add a strategy to the registry. Throws std::invalid_argument on a null
/// strategy or a duplicate/empty name.
void register_strategy(std::unique_ptr<OrderingStrategy> strategy);

/// The strategy an OrderingMode reorders with (see mode_strategy_name).
[[nodiscard]] const OrderingStrategy& mode_strategy(OrderingMode mode);

/// Transmission order of one (weight, input) window: weights[i] and
/// inputs[i] are the indices of the i-th weight and i-th input sent.
struct PairOrder {
  std::vector<std::uint32_t> weights;
  std::vector<std::uint32_t> inputs;
};

/// The pairing rule, decided once for every caller: baseline keeps arrival
/// order; separated (O2) orders each stream with the mode's strategy;
/// every other mode orders the weights and moves each input with its
/// weight (affiliated pairing). Throws std::invalid_argument when the two
/// windows differ in length. `reuse` lends its buffers to the result, so
/// a caller that passes back the previous window's order allocates no
/// more than the permutations the strategy returns.
[[nodiscard]] PairOrder order_pairs(OrderingMode mode,
                                    std::span<const std::uint32_t> weights,
                                    std::span<const std::uint32_t> inputs,
                                    DataFormat format, PairOrder reuse = {});

/// The chain strategy's permutation before its arrival-order guard: the
/// greedy nearest-neighbor Hamming-distance chain. The seed is the value
/// with the highest popcount (ties to the lowest index); each successor is
/// the unused value at minimum HD from its predecessor (ties to the lowest
/// index). Distances see only the low value_bits(format) bits. The
/// min-scan runs on the active kernel tier (BtKernelBackend::nearest_live).
[[nodiscard]] std::vector<std::uint32_t> hd_chain_order(
    std::span<const std::uint32_t> patterns, DataFormat format);

/// Reorder a whole value stream window by window with `strategy` (the
/// no-NoC experiment's transformation, §V-A: a window models one packet
/// whose flits traverse a link back to back).
[[nodiscard]] std::vector<std::uint32_t> order_stream_with(
    const OrderingStrategy& strategy, std::span<const std::uint32_t> patterns,
    DataFormat format, std::size_t window_values);

}  // namespace nocbt::ordering
