#include "ordering/strategy.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/bitops.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"
#include "ordering/two_flit.h"

namespace nocbt::ordering {

namespace {

std::vector<std::uint32_t> identity_permutation(std::size_t n) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  return perm;
}

/// Shared argument validation for order_batch (window count derives from
/// the span; an arrival-BT hint must cover every window exactly).
std::size_t check_order_batch_args(std::size_t pattern_count,
                                   std::size_t window_values,
                                   std::size_t hint_size) {
  if (window_values == 0)
    throw std::invalid_argument("order_batch: window_values == 0");
  const std::size_t windows =
      (pattern_count + window_values - 1) / window_values;
  if (hint_size != 0 && hint_size != windows)
    throw std::invalid_argument(
        "order_batch: arrival_bt hint holds " + std::to_string(hint_size) +
        " entries but the span forms " + std::to_string(windows) +
        " windows");
  return windows;
}

/// Arrival-order sequence BTs for every window: the caller's hint when
/// provided (one batch pass shared across mode rows), else one batch pass
/// here. `store` keeps the computed values alive.
std::span<const std::uint64_t> arrival_bts(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values, std::span<const std::uint64_t> hint,
    std::vector<std::uint64_t>& store) {
  if (!hint.empty() || patterns.empty()) return hint;
  store = sequence_bt_batch(patterns, format, window_values);
  return store;
}

/// Apply concatenated window-local permutations (the order_batch return
/// layout) to the values themselves: the flat candidate stream one batch
/// BT pass scores, window for window, identically to scoring each window
/// through permuted_sequence_bt.
std::vector<std::uint32_t> materialize_permuted(
    std::span<const std::uint32_t> patterns,
    std::span<const std::uint32_t> flat_perm, std::size_t window_values) {
  std::vector<std::uint32_t> values(patterns.size());
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len = std::min(window_values, patterns.size() - start);
    for (std::size_t k = 0; k < len; ++k)
      values[start + k] = patterns[start + flat_perm[start + k]];
  }
  return values;
}

class ArrivalStrategy final : public OrderingStrategy {
 public:
  std::string_view name() const noexcept override { return "arrival"; }
  std::string_view description() const noexcept override {
    return "identity: values leave in natural task order (O0)";
  }
  HardwareCost hardware_cost() const override {
    return {.summary = "none - the ordering unit is bypassed",
            .relative_area = 0.0};
  }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat) const override {
    return identity_permutation(patterns.size());
  }
  std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat,
      std::size_t window_values,
      std::span<const std::uint64_t> arrival_bt) const override {
    check_order_batch_args(patterns.size(), window_values, arrival_bt.size());
    // One flat identity ramp per window, no per-window allocations.
    std::vector<std::uint32_t> flat(patterns.size());
    for (std::size_t i = 0; i < flat.size(); ++i)
      flat[i] = static_cast<std::uint32_t>(i % window_values);
    return flat;
  }
};

class PopcountStrategy final : public OrderingStrategy {
 public:
  std::string_view name() const noexcept override { return "popcount" ; }
  std::string_view description() const noexcept override {
    return "stable '1'-count descending sort (the paper's O1/O2 kernel)";
  }
  HardwareCost hardware_cost() const override {
    return {.summary =
                "SWAR pop-count stage + odd-even transposition network, "
                "12.91 kGE at 16 lanes (paper Fig. 14)",
            .relative_area = 1.0};
  }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    return popcount_descending_order(patterns, format);
  }
};

class NearestNeighborChain final : public OrderingStrategy {
 public:
  std::string_view name() const noexcept override { return "chain"; }
  std::string_view description() const noexcept override {
    return "greedy min-Hamming-distance chain over the window's distinct "
           "values (ablation A4), with fall-back to arrival order when "
           "chaining would add BT";
  }
  HardwareCost hardware_cost() const override {
    return {.summary =
                "N^2/2 HD array filled at line rate + min-scan per emitted "
                "value (Li et al. operand scheduling); area grows with the "
                "window, not the paper's fixed-lane unit",
            .relative_area = 6.0,
            .sequential_scan = true};
  }
  bool never_worse_than_arrival() const noexcept override { return true; }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    auto perm = hd_chain_order(patterns, format);
    if (permuted_sequence_bt(patterns, perm, format) >
        sequence_bt(patterns, format))
      return identity_permutation(patterns.size());
    return perm;
  }
  std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat format,
      std::size_t window_values,
      std::span<const std::uint64_t> arrival_bt) const override {
    check_order_batch_args(patterns.size(), window_values, arrival_bt.size());
    std::vector<std::uint32_t> flat;
    flat.reserve(patterns.size());
    for (std::size_t start = 0; start < patterns.size();
         start += window_values) {
      const std::size_t len = std::min(window_values, patterns.size() - start);
      const auto perm = hd_chain_order(patterns.subspan(start, len), format);
      flat.insert(flat.end(), perm.begin(), perm.end());
    }
    // One batch pass scores every chained window, one (or the caller's
    // hint) scores arrival order; the same `>` comparison as order()
    // triggers the identity fall-back on exactly the same windows.
    std::vector<std::uint64_t> abt_store;
    const auto abt =
        arrival_bts(patterns, format, window_values, arrival_bt, abt_store);
    const auto chained = materialize_permuted(patterns, flat, window_values);
    const auto cbt = sequence_bt_batch(chained, format, window_values);
    for (std::size_t w = 0; w < cbt.size(); ++w) {
      if (cbt[w] <= abt[w]) continue;
      const std::size_t start = w * window_values;
      const std::size_t len = std::min(window_values, patterns.size() - start);
      for (std::size_t k = 0; k < len; ++k)
        flat[start + k] = static_cast<std::uint32_t>(k);
    }
    return flat;
  }
};

class HybridStrategy final : public OrderingStrategy {
 public:
  std::string_view name() const noexcept override { return "hybrid"; }
  std::string_view description() const noexcept override {
    return "window-adaptive: measures the sequence BT of arrival, popcount "
           "sort, and HD chaining per window and transmits the cheapest "
           "(ties prefer the cheaper circuit)";
  }
  HardwareCost hardware_cost() const override {
    return {.summary =
                "popcount unit + chain engine + per-window BT monitors and "
                "a 2-bit strategy select in the packet header",
            .relative_area = 7.5,
            .sequential_scan = true,
            .per_window_adaptive = true};
  }
  bool never_worse_than_arrival() const noexcept override { return true; }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    std::vector<std::uint32_t> best = identity_permutation(patterns.size());
    std::uint64_t best_bt = sequence_bt(patterns, format);
    auto pop = popcount_descending_order(patterns, format);
    const std::uint64_t pop_bt = permuted_sequence_bt(patterns, pop, format);
    if (pop_bt < best_bt) {
      best_bt = pop_bt;
      best = std::move(pop);
    }
    auto chain = hd_chain_order(patterns, format);
    if (permuted_sequence_bt(patterns, chain, format) < best_bt)
      best = std::move(chain);
    return best;
  }
  std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat format,
      std::size_t window_values,
      std::span<const std::uint64_t> arrival_bt) const override {
    check_order_batch_args(patterns.size(), window_values, arrival_bt.size());
    std::vector<std::uint64_t> abt_store;
    const auto abt =
        arrival_bts(patterns, format, window_values, arrival_bt, abt_store);
    // Build both candidate orderings for every window, then score each
    // candidate stream in one batch pass instead of two kernel calls per
    // window.
    std::vector<std::uint32_t> pop_flat, chain_flat;
    pop_flat.reserve(patterns.size());
    chain_flat.reserve(patterns.size());
    for (std::size_t start = 0; start < patterns.size();
         start += window_values) {
      const std::size_t len = std::min(window_values, patterns.size() - start);
      const auto window = patterns.subspan(start, len);
      const auto pop = popcount_descending_order(window, format);
      pop_flat.insert(pop_flat.end(), pop.begin(), pop.end());
      const auto chain = hd_chain_order(window, format);
      chain_flat.insert(chain_flat.end(), chain.begin(), chain.end());
    }
    const auto pop_bt = sequence_bt_batch(
        materialize_permuted(patterns, pop_flat, window_values), format,
        window_values);
    const auto chain_bt = sequence_bt_batch(
        materialize_permuted(patterns, chain_flat, window_values), format,
        window_values);
    // Same strict-< cascade as order(): arrival wins ties over popcount,
    // popcount wins ties over the chain (cheaper circuit first).
    std::vector<std::uint32_t> flat(patterns.size());
    for (std::size_t w = 0; w < pop_bt.size(); ++w) {
      const std::size_t start = w * window_values;
      const std::size_t len = std::min(window_values, patterns.size() - start);
      std::uint64_t best_bt = abt[w];
      const std::uint32_t* src = nullptr;  // identity
      if (pop_bt[w] < best_bt) {
        best_bt = pop_bt[w];
        src = pop_flat.data() + start;
      }
      if (chain_bt[w] < best_bt) src = chain_flat.data() + start;
      for (std::size_t k = 0; k < len; ++k)
        flat[start + k] = src ? src[k] : static_cast<std::uint32_t>(k);
    }
    return flat;
  }
};

class TwoFlitStrategy final : public OrderingStrategy {
 public:
  std::string_view name() const noexcept override { return "twoflit"; }
  std::string_view description() const noexcept override {
    return "SIII two-flit interleave: popcount-sort the window, deal "
           "alternately so x1 >= y1 >= x2 >= y2 >= ..., transmit flit 1 "
           "then flit 2";
  }
  HardwareCost hardware_cost() const override {
    return {.summary =
                "popcount sort network + an alternating deal crossbar "
                "(two flit buffers)",
            .relative_area = 1.2};
  }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    const auto sorted = popcount_descending_order(patterns, format);
    const std::size_t n = sorted.size();
    const std::size_t half = (n + 1) / 2;  // flit 1 takes the odd extra
    std::vector<std::uint32_t> perm(n);
    for (std::size_t i = 0; i < half; ++i) perm[i] = sorted[2 * i];
    for (std::size_t i = 0; half + i < n; ++i) perm[half + i] = sorted[2 * i + 1];
    return perm;
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<OrderingStrategy>> list;

  Registry() {
    list.push_back(std::make_unique<ArrivalStrategy>());
    list.push_back(std::make_unique<PopcountStrategy>());
    list.push_back(std::make_unique<NearestNeighborChain>());
    list.push_back(std::make_unique<HybridStrategy>());
    list.push_back(std::make_unique<TwoFlitStrategy>());
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

// The walk runs over the window's distinct masked values. Each keeps its
// unused indices in ascending order, so its front is its lowest unused
// index. HD is 0 only between equal values: while the current value has
// an unused duplicate, that front is the successor. Otherwise the
// exhausted value leaves the live set and the successor is the front of
// the live value minimizing (HD, front), the kernel tier's nearest_live
// scan. Both rules pick the minimum-HD, lowest-index unused value.
std::vector<std::uint32_t> hd_chain_order(
    std::span<const std::uint32_t> patterns, DataFormat format) {
  const std::size_t n = patterns.size();
  std::vector<std::uint32_t> perm;
  if (n == 0) return perm;
  perm.reserve(n);

  // Per-thread scratch, reused across windows; only perm is returned.
  thread_local std::vector<std::uint32_t> sorted, next, values, fronts;
  sorted.resize(n);
  next.resize(n);
  values.clear();
  fronts.clear();

  // Indices stably radix-sorted by masked value, a byte per pass: equal
  // values end up adjacent with their indices ascending. A byte all values
  // share would leave the order as it is, so that pass stops after its
  // count.
  const unsigned bits = value_bits(format);
  const auto mask = static_cast<std::uint32_t>(low_mask(bits));
  std::iota(sorted.begin(), sorted.end(), 0u);
  for (unsigned shift = 0; shift < bits; shift += 8) {
    std::array<std::uint32_t, 257> start{};
    for (const std::uint32_t i : sorted)
      ++start[((patterns[i] & mask) >> shift & 0xFFu) + 1];
    if (start[((patterns[0] & mask) >> shift & 0xFFu) + 1] == n) continue;
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint32_t i : sorted)
      next[start[(patterns[i] & mask) >> shift & 0xFFu]++] = i;
    sorted.swap(next);
  }

  // Live set: one slot per distinct value with its lowest unused index;
  // next[i] is the following index holding i's value (n after the last).
  const auto end = static_cast<std::uint32_t>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t index = sorted[k];
    const std::uint32_t value = patterns[index] & mask;
    next[index] = end;
    if (k > 0 && value == values.back()) {
      next[sorted[k - 1]] = index;
    } else {
      values.push_back(value);
      fronts.push_back(index);
    }
  }

  std::size_t cur = 0;
  for (std::size_t k = 1; k < values.size(); ++k) {
    const int pk = popcount32(values[k]);
    const int pc = popcount32(values[cur]);
    if (pk > pc || (pk == pc && fronts[k] < fronts[cur])) cur = k;
  }
  const BtKernelBackend& kernel = active_kernel_backend();
  for (;;) {
    const std::uint32_t index = fronts[cur];
    perm.push_back(index);
    if (perm.size() == n) return perm;
    fronts[cur] = next[index];
    if (fronts[cur] != end) continue;
    const std::uint32_t current = values[cur];
    values[cur] = values.back();
    values.pop_back();
    fronts[cur] = fronts.back();
    fronts.pop_back();
    cur = kernel.nearest_live(current, values, fronts);
  }
}

std::vector<std::uint32_t> OrderingStrategy::order_batch(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values, std::span<const std::uint64_t> arrival_bt) const {
  check_order_batch_args(patterns.size(), window_values, arrival_bt.size());
  std::vector<std::uint32_t> flat;
  flat.reserve(patterns.size());
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len = std::min(window_values, patterns.size() - start);
    const auto perm = order(patterns.subspan(start, len), format);
    flat.insert(flat.end(), perm.begin(), perm.end());
  }
  return flat;
}

const OrderingStrategy* find_strategy(std::string_view name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& s : reg.list)
    if (s->name() == name) return s.get();
  return nullptr;
}

const OrderingStrategy& get_strategy(std::string_view name) {
  if (const OrderingStrategy* s = find_strategy(name)) return *s;
  std::string known;
  for (const OrderingStrategy* s : registered_strategies()) {
    if (!known.empty()) known += ", ";
    known += s->name();
  }
  throw std::invalid_argument("get_strategy: unknown ordering strategy '" +
                              std::string(name) + "' (registered: " + known +
                              ")");
}

std::vector<const OrderingStrategy*> registered_strategies() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<const OrderingStrategy*> out;
  out.reserve(reg.list.size());
  for (const auto& s : reg.list) out.push_back(s.get());
  return out;
}

std::vector<std::string> registered_strategy_names() {
  std::vector<std::string> out;
  for (const OrderingStrategy* s : registered_strategies())
    out.emplace_back(s->name());
  return out;
}

void register_strategy(std::unique_ptr<OrderingStrategy> strategy) {
  if (!strategy)
    throw std::invalid_argument("register_strategy: null strategy");
  if (strategy->name().empty())
    throw std::invalid_argument("register_strategy: empty strategy name");
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& s : reg.list)
    if (s->name() == strategy->name())
      throw std::invalid_argument("register_strategy: duplicate name '" +
                                  std::string(strategy->name()) + "'");
  reg.list.push_back(std::move(strategy));
}

const OrderingStrategy& mode_strategy(OrderingMode mode) {
  // Every mode maps to a built-in, and built-ins are never removed, so the
  // resolutions can be cached once: this sits on the per-packet hot path
  // of the campaign runner and the accel packet builder, where taking the
  // registry mutex per packet would serialize worker threads.
  static const std::vector<const OrderingStrategy*> cache = [] {
    std::vector<const OrderingStrategy*> modes;
    for (const OrderingMode m : all_ordering_modes())
      modes.push_back(&get_strategy(mode_strategy_name(m)));
    return modes;
  }();
  const auto index = static_cast<std::size_t>(mode);
  if (index >= cache.size())
    throw std::invalid_argument("mode_strategy: unknown OrderingMode");
  return *cache[index];
}

PairOrder order_pairs(OrderingMode mode,
                      std::span<const std::uint32_t> weights,
                      std::span<const std::uint32_t> inputs,
                      DataFormat format) {
  if (weights.size() != inputs.size())
    throw std::invalid_argument(
        "order_pairs: " + std::to_string(weights.size()) + " weights but " +
        std::to_string(inputs.size()) + " inputs");
  if (mode_is_baseline(mode))
    return {identity_permutation(weights.size()),
            identity_permutation(inputs.size())};
  const OrderingStrategy& strategy = mode_strategy(mode);
  PairOrder order{strategy.order(weights, format), {}};
  order.inputs = mode_is_separated(mode) ? strategy.order(inputs, format)
                                         : order.weights;
  return order;
}

std::vector<std::uint32_t> order_stream_with(
    const OrderingStrategy& strategy, std::span<const std::uint32_t> patterns,
    DataFormat format, std::size_t window_values) {
  if (window_values == 0)
    throw std::invalid_argument("order_stream_with: window_values == 0");
  // One order_batch call: chain-class/hybrid strategies score all windows
  // through batched kernel passes rather than one kernel call per window.
  const auto flat = strategy.order_batch(patterns, format, window_values);
  return materialize_permuted(patterns, flat, window_values);
}

}  // namespace nocbt::ordering
