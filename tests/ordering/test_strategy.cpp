// Tests for the ordering-strategy registry: built-in presence, mode ->
// strategy resolution, differential equivalences between the production
// strategies and the reference oracles under tests/oracles, and registry
// extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "oracles/greedy_chain.h"
#include "oracles/stable_popcount_sort.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"
#include "ordering/two_flit.h"

namespace nocbt::ordering {
namespace {

std::vector<std::uint32_t> random_window(std::size_t n, DataFormat format,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t mask = low_mask(value_bits(format));
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(rng.bits64() & mask));
  return out;
}

/// Windows over a 4-value alphabet (three values of one popcount plus the
/// all-ones value): most sort keys and chain distances tie, so any
/// divergence in tie-breaking between production and oracle shows up.
std::vector<std::uint32_t> tie_heavy_window(std::size_t n, DataFormat format,
                                            std::uint64_t seed) {
  const auto mask = static_cast<std::uint32_t>(low_mask(value_bits(format)));
  const std::uint32_t alphabet[4] = {0x0F0F0F0Fu & mask, 0xF0F0F0F0u & mask,
                                     0x33333333u & mask, mask};
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(alphabet[rng.bits64() % 4]);
  return out;
}

/// Window lengths the differential suites sweep: every ragged placement
/// request size (1-64) and the paper's longer windows (128-512).
std::vector<std::size_t> differential_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (const std::size_t n : {128u, 129u, 200u, 255u, 256u, 257u, 384u, 511u,
                              512u})
    lengths.push_back(n);
  return lengths;
}

/// The production chain's contract in oracle terms: the naive greedy chain,
/// unless it would transmit more BT than arrival order (scored with the
/// per-bit reference kernel), in which case the identity.
std::vector<std::uint32_t> guarded_chain_oracle(
    std::span<const std::uint32_t> window, DataFormat format) {
  auto perm = greedy_min_xor_chain(window, format);
  const auto chained =
      apply_permutation(window, std::span<const std::uint32_t>(perm));
  if (sequence_bt_reference(chained, format) >
      sequence_bt_reference(window, format)) {
    for (std::size_t i = 0; i < perm.size(); ++i)
      perm[i] = static_cast<std::uint32_t>(i);
  }
  return perm;
}

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  // One built-in per distinct permutation, in registration order (other
  // tests in this binary may append custom strategies after them).
  const auto names = registered_strategy_names();
  const std::vector<std::string> builtins = {"arrival", "popcount", "chain",
                                             "hybrid", "twoflit"};
  ASSERT_GE(names.size(), builtins.size());
  EXPECT_EQ(std::vector<std::string>(names.begin(),
                                     names.begin() + builtins.size()),
            builtins);
  // The former duplicate implementations are gone from the registry; their
  // mode names resolve to the surviving strategy instead.
  EXPECT_EQ(find_strategy("bucket"), nullptr);
  EXPECT_EQ(find_strategy("hdchain"), nullptr);
}

TEST(StrategyRegistry, LookupAndErrors) {
  EXPECT_EQ(find_strategy("popcount"), &get_strategy("popcount"));
  EXPECT_EQ(find_strategy("no-such-strategy"), nullptr);
  EXPECT_THROW((void)get_strategy("no-such-strategy"), std::invalid_argument);
  EXPECT_THROW(register_strategy(nullptr), std::invalid_argument);
}

TEST(StrategyRegistry, HardwareCostMetadataIsPopulated) {
  for (const OrderingStrategy* s : registered_strategies()) {
    EXPECT_FALSE(s->hardware_cost().summary.empty()) << s->name();
    EXPECT_GE(s->hardware_cost().relative_area, 0.0) << s->name();
    EXPECT_FALSE(s->description().empty()) << s->name();
  }
}

TEST(StrategyRegistry, EveryModeResolvesToARegisteredStrategy) {
  for (const OrderingMode mode : all_ordering_modes()) {
    const OrderingStrategy& s = mode_strategy(mode);
    EXPECT_EQ(s.name(), mode_strategy_name(mode)) << to_string(mode);
    // The short mode key must be accepted back by the parser (the campaign
    // README documents `modes=<key>`).
    EXPECT_EQ(parse_ordering_mode(short_mode_name(mode)), mode)
        << to_string(mode);
  }
  EXPECT_EQ(mode_strategy(OrderingMode::kBaseline).name(), "arrival");
  EXPECT_EQ(mode_strategy(OrderingMode::kAffiliated).name(), "popcount");
  EXPECT_EQ(mode_strategy(OrderingMode::kSeparated).name(), "popcount");
  EXPECT_EQ(mode_strategy(OrderingMode::kHybrid).name(), "hybrid");
}

TEST(StrategyRegistry, ModeAliasesShareOneStrategyAndKeepTheirNames) {
  // Modes that named a second implementation of the same permutation
  // resolve to the one production strategy object...
  EXPECT_EQ(&mode_strategy(OrderingMode::kAffiliated),
            &mode_strategy(OrderingMode::kSeparated));
  EXPECT_EQ(&mode_strategy(OrderingMode::kAffiliated),
            &mode_strategy(OrderingMode::kBucket));
  EXPECT_EQ(&mode_strategy(OrderingMode::kAffiliated),
            &get_strategy("popcount"));
  EXPECT_EQ(&mode_strategy(OrderingMode::kChain),
            &mode_strategy(OrderingMode::kHdChain));
  EXPECT_EQ(&mode_strategy(OrderingMode::kChain), &get_strategy("chain"));
  // ...while every mode keeps its report name, scenario key and parse
  // tokens, so scenario names, cache keys and goldens do not move.
  struct Names {
    OrderingMode mode;
    const char* report;
    const char* key;
    std::vector<std::string> tokens;
  };
  const std::vector<Names> expected = {
      {OrderingMode::kBaseline, "O0-baseline", "O0", {"O0", "baseline"}},
      {OrderingMode::kAffiliated, "O1-affiliated", "O1", {"O1", "affiliated"}},
      {OrderingMode::kSeparated, "O2-separated", "O2", {"O2", "separated"}},
      {OrderingMode::kChain, "chain", "chain", {"chain", "greedy-chain"}},
      {OrderingMode::kHdChain, "hdchain", "hdchain", {"hdchain", "hd-chain"}},
      {OrderingMode::kBucket, "bucket", "bucket", {"bucket", "bucket-sort"}},
      {OrderingMode::kHybrid, "hybrid", "hybrid", {"hybrid"}},
      {OrderingMode::kTwoFlit, "twoflit", "twoflit", {"twoflit", "two-flit"}},
  };
  ASSERT_EQ(all_ordering_modes().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Names& e = expected[i];
    EXPECT_EQ(all_ordering_modes()[i], e.mode) << e.report;
    EXPECT_EQ(to_string(e.mode), e.report);
    EXPECT_EQ(short_mode_name(e.mode), e.key);
    for (const std::string& token : e.tokens)
      EXPECT_EQ(parse_ordering_mode(token), e.mode) << token;
  }
}

TEST(StrategyRegistry, NewModeNamesRoundTripThroughParser) {
  EXPECT_EQ(parse_ordering_mode("chain"), OrderingMode::kChain);
  EXPECT_EQ(parse_ordering_mode("hdchain"), OrderingMode::kHdChain);
  EXPECT_EQ(parse_ordering_mode("hd-chain"), OrderingMode::kHdChain);
  EXPECT_EQ(parse_ordering_mode("bucket"), OrderingMode::kBucket);
  EXPECT_EQ(parse_ordering_mode("hybrid"), OrderingMode::kHybrid);
  EXPECT_EQ(parse_ordering_mode("twoflit"), OrderingMode::kTwoFlit);
  EXPECT_THROW((void)parse_ordering_mode("O3"), std::invalid_argument);
}

TEST(StrategyRegistry, ModeListParserHandlesSweepArguments) {
  const auto modes = parse_ordering_mode_list("O0,O2,hybrid");
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_EQ(modes[0], OrderingMode::kBaseline);
  EXPECT_EQ(modes[1], OrderingMode::kSeparated);
  EXPECT_EQ(modes[2], OrderingMode::kHybrid);
  EXPECT_EQ(parse_ordering_mode_list("chain").size(), 1u);
  EXPECT_THROW((void)parse_ordering_mode_list(""), std::invalid_argument);
  EXPECT_THROW((void)parse_ordering_mode_list("O1,,O2"), std::invalid_argument);
  EXPECT_THROW((void)parse_ordering_mode_list("O1,bogus"),
               std::invalid_argument);
}

TEST(StrategyDifferential, BucketSortMatchesPopcountSortExactly) {
  // Production popcount is a stable '1'-count bucket (counting) sort: its
  // permutation must equal the comparison-sort oracle's, ties included,
  // on every window — random and tie-heavy, both formats.
  const OrderingStrategy& popcount = get_strategy("popcount");
  auto lengths = differential_lengths();
  lengths.push_back(4097);
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (const std::size_t n : lengths) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const auto& window :
             {random_window(n, format, seed * 31 + n),
              tie_heavy_window(n, format, seed * 37 + n)}) {
          EXPECT_EQ(popcount.order(window, format),
                    stable_popcount_order(window, format))
              << "n=" << n << " seed=" << seed;
          EXPECT_EQ(popcount_descending_order(window, format),
                    stable_popcount_order(window, format))
              << "n=" << n << " seed=" << seed;
        }
      }
    }
  }
  // Stray bits above the format width never reach the sort key.
  const std::vector<std::uint32_t> dirty = {0x0000FF01u, 0x02u, 0x03u,
                                            0xABCD0081u, 0x00FF0000u};
  EXPECT_EQ(popcount.order(dirty, DataFormat::kFixed8),
            stable_popcount_order(dirty, DataFormat::kFixed8));
}

TEST(StrategyDifferential, HdChainMatchesNaiveChainExactly) {
  // Production chain runs the greedy selection over the window's distinct
  // values and falls back to arrival order when chaining would add BT; the
  // permutation must equal the naive-scan oracle under the same guard.
  const OrderingStrategy& chain = get_strategy("chain");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (const std::size_t n : differential_lengths()) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const auto& window :
             {random_window(n, format, seed * 131 + n),
              tie_heavy_window(n, format, seed * 137 + n)}) {
          EXPECT_EQ(chain.order(window, format),
                    guarded_chain_oracle(window, format))
              << "n=" << n << " seed=" << seed;
        }
      }
    }
  }
  // Both chains mask stray bits above the format width the same way, so
  // dirty fixed-8 patterns in uint32 slots cannot make them diverge.
  const std::vector<std::uint32_t> dirty = {0x0000FF01u, 0x02u, 0x03u,
                                            0xABCD0081u, 0x00FF0000u};
  EXPECT_EQ(chain.order(dirty, DataFormat::kFixed8),
            guarded_chain_oracle(dirty, DataFormat::kFixed8));
}

TEST(StrategyDifferential, HdChainMatchesOracleOnEveryTier) {
  // The unguarded chain against the naive oracle under every kernel tier:
  // lengths straddle the avx2 min-scan's 8-lane tails and reach past 4096.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (const std::size_t n : {127u, 128u, 129u, 255u, 256u, 257u, 511u, 512u,
                              513u, 4097u, 4200u})
    lengths.push_back(n);
  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> cases;
  for (const std::size_t n : lengths) {
    const std::string at = " n=" + std::to_string(n);
    cases.emplace_back("fx8 random" + at,
                       random_window(n, DataFormat::kFixed8, 300 + n));
    cases.emplace_back("fx8 tie-heavy" + at,
                       tie_heavy_window(n, DataFormat::kFixed8, 400 + n));
    // Stray bits above the 8-bit format: only the low byte may count.
    cases.emplace_back("fx8 stray bits" + at,
                       random_window(n, DataFormat::kFloat32, 500 + n));
    cases.emplace_back("fp32 random" + at,
                       random_window(n, DataFormat::kFloat32, 600 + n));
  }
  for (const std::size_t n : {1u, 9u, 300u}) {
    const std::string at = " n=" + std::to_string(n);
    cases.emplace_back("fp32 all-equal" + at,
                       std::vector<std::uint32_t>(n, 0x3F800000u));
    std::vector<std::uint32_t> two(n);
    for (std::size_t i = 0; i < n; ++i) two[i] = i % 3 == 0 ? 0xF0u : 0x0Fu;
    cases.emplace_back("fx8 two-value" + at, two);
    // All distinct: a shuffled ramp times an odd constant.
    std::vector<std::uint32_t> distinct(n);
    for (std::size_t i = 0; i < n; ++i)
      distinct[i] = static_cast<std::uint32_t>(i * 2654435761u);
    Rng rng(n);
    for (std::size_t k = n; k > 1; --k)
      std::swap(distinct[k - 1], distinct[rng.bits64() % k]);
    cases.emplace_back("fp32 all-distinct" + at, distinct);
  }
  for (const auto& [label, window] : cases) {
    const DataFormat format = label.starts_with("fp32") ? DataFormat::kFloat32
                                                        : DataFormat::kFixed8;
    const auto expected = greedy_min_xor_chain(window, format);
    for (const std::string& tier : registered_kernel_backend_names()) {
      if (!get_kernel_backend(tier).available()) continue;
      const ScopedKernelTier force(tier);
      ASSERT_EQ(hd_chain_order(window, format), expected)
          << tier << " " << label;
    }
  }
}

TEST(StrategyDifferential, TwoFlitMatchesInterleaveAssignment) {
  // The twoflit permutation transmits flit 1 then flit 2 of the SIII
  // interleaved assignment: applying it must reproduce interleave_descending.
  const OrderingStrategy& twoflit = get_strategy("twoflit");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (const std::size_t n : {2u, 4u, 8u, 12u, 16u}) {  // even: 2N values
      const auto window = random_window(n, format, 17 + n);
      const auto perm = twoflit.order(window, format);
      const auto applied = apply_permutation(
          std::span<const std::uint32_t>(window),
          std::span<const std::uint32_t>(perm));
      const TwoFlitAssignment assignment = interleave_descending(window, format);
      ASSERT_EQ(assignment.flit1.size() + assignment.flit2.size(), n);
      const std::vector<std::uint32_t> flit1(applied.begin(),
                                             applied.begin() + n / 2);
      const std::vector<std::uint32_t> flit2(applied.begin() + n / 2,
                                             applied.end());
      EXPECT_EQ(flit1, assignment.flit1) << "n=" << n;
      EXPECT_EQ(flit2, assignment.flit2) << "n=" << n;
    }
  }
}

TEST(StrategyDifferential, HybridPicksTheCheapestCandidatePerWindow) {
  const OrderingStrategy& hybrid = get_strategy("hybrid");
  const OrderingStrategy& chain = get_strategy("chain");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto window = random_window(32, format, seed * 7 + 3);
      const auto perm = hybrid.order(window, format);
      const std::uint64_t bt = permuted_sequence_bt(window, perm, format);
      EXPECT_LE(bt, sequence_bt(window, format)) << "vs arrival, seed=" << seed;
      EXPECT_LE(bt, permuted_sequence_bt(
                        window, popcount_descending_order(window, format),
                        format))
          << "vs popcount, seed=" << seed;
      EXPECT_LE(bt, permuted_sequence_bt(window, chain.order(window, format),
                                         format))
          << "vs chain, seed=" << seed;
    }
  }
}

TEST(StrategyDifferential, OrderStreamWithPopcountMatchesLegacyStreamSort) {
  // The no-NoC stream transformation: stable popcount sort per 64-value
  // window, ragged 40-value tail included.
  const auto stream = random_window(1000, DataFormat::kFixed8, 91);
  std::vector<std::uint32_t> expected;
  for (std::size_t start = 0; start < stream.size(); start += 64) {
    const auto window = std::span(stream).subspan(
        start, std::min<std::size_t>(64, stream.size() - start));
    for (const std::uint32_t idx :
         stable_popcount_order(window, DataFormat::kFixed8))
      expected.push_back(window[idx]);
  }
  EXPECT_EQ(order_stream_with(get_strategy("popcount"), stream,
                              DataFormat::kFixed8, 64),
            expected);
  EXPECT_THROW((void)order_stream_with(get_strategy("popcount"), stream,
                                       DataFormat::kFixed8, 0),
               std::invalid_argument);
}

TEST(StrategyBatch, OrderBatchEqualsLoopedOrderForEveryStrategy) {
  // order_batch is what the benchmark's traced replay orders through, so
  // it must stay interchangeable with the per-request path: for every
  // registered strategy the concatenated window-local permutations must
  // equal looping order() window by window — including the ragged tail,
  // with and without the arrival-BT hint, on tie-heavy data where a
  // scoring discrepancy would flip the chosen candidate.
  for (const OrderingStrategy* strategy : registered_strategies()) {
    for (const DataFormat format :
         {DataFormat::kFixed8, DataFormat::kFloat32}) {
      for (const std::uint64_t seed : {5ull, 6ull}) {
        auto stream = random_window(135, format, seed);  // 4 windows + 7
        if (seed == 6) {  // collapse to a tiny alphabet: maximal ties
          const auto mask =
              static_cast<std::uint32_t>(low_mask(value_bits(format)));
          for (auto& v : stream) v = (v % 2 == 0) ? (0x0F0F0F0Fu & mask) : 0u;
        }
        const std::size_t wv = 32;
        const auto flat = strategy->order_batch(stream, format, wv);
        ASSERT_EQ(flat.size(), stream.size()) << strategy->name();
        const auto hints = sequence_bt_batch(stream, format, wv);
        EXPECT_EQ(strategy->order_batch(stream, format, wv, hints), flat)
            << strategy->name() << ": arrival-BT hint changed the result";
        for (std::size_t start = 0; start < stream.size(); start += wv) {
          const std::size_t len = std::min(wv, stream.size() - start);
          const auto window = std::span(stream).subspan(start, len);
          const auto expected = strategy->order(window, format);
          const std::vector<std::uint32_t> got(
              flat.begin() + static_cast<std::ptrdiff_t>(start),
              flat.begin() + static_cast<std::ptrdiff_t>(start + len));
          EXPECT_EQ(got, expected)
              << strategy->name() << " format=" << to_string(format)
              << " seed=" << seed << " window at " << start;
        }
      }
    }
  }
}

TEST(StrategyBatch, OrderBatchValidatesArguments) {
  const auto stream = random_window(64, DataFormat::kFixed8, 3);
  const OrderingStrategy& strategy = get_strategy("hybrid");
  EXPECT_THROW((void)strategy.order_batch(stream, DataFormat::kFixed8, 0),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_hint(3);  // 64 values @ 32 = 2 windows
  EXPECT_THROW((void)strategy.order_batch(stream, DataFormat::kFixed8, 32,
                                          bad_hint),
               std::invalid_argument);
  EXPECT_TRUE(strategy.order_batch({}, DataFormat::kFixed8, 32).empty());
}

/// Registry extension: user strategies slot in next to the built-ins.
class ReverseStrategy final : public OrderingStrategy {
 public:
  std::string_view name() const noexcept override { return "test-reverse"; }
  std::string_view description() const noexcept override {
    return "reversed arrival order (test fixture)";
  }
  HardwareCost hardware_cost() const override {
    return {.summary = "a LIFO buffer", .relative_area = 0.1};
  }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat) const override {
    std::vector<std::uint32_t> perm(patterns.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
      perm[i] = static_cast<std::uint32_t>(perm.size() - 1 - i);
    return perm;
  }
};

TEST(StrategyRegistry, CustomStrategiesCanBeRegistered) {
  if (find_strategy("test-reverse") == nullptr)
    register_strategy(std::make_unique<ReverseStrategy>());
  const OrderingStrategy& reverse = get_strategy("test-reverse");
  const std::vector<std::uint32_t> window = {10, 20, 30};
  EXPECT_EQ(reverse.order(window, DataFormat::kFixed8),
            (std::vector<std::uint32_t>{2, 1, 0}));
  // Duplicate names are rejected.
  EXPECT_THROW(register_strategy(std::make_unique<ReverseStrategy>()),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::ordering
