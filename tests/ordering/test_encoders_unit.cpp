// Tests for the related-work encoder baselines (bus-invert, XOR-delta), the
// greedy min-XOR chain ablation, and the ordering-unit timing model.

#include <gtest/gtest.h>

#include "analysis/bt_count.h"
#include "common/rng.h"
#include "ordering/encoders.h"
#include "ordering/ordering.h"
#include "ordering/ordering_unit.h"
#include "ordering/strategy.h"

namespace nocbt::ordering {
namespace {

BitVec pattern(unsigned width, std::uint64_t bits) {
  BitVec v(width);
  v.set_field(0, std::min(width, 64u), bits);
  return v;
}

TEST(BusInvert, InvertsWhenMoreThanHalfWouldFlip) {
  // Wire state starts at 0; sending 0xFF over an 8-bit bus would flip all
  // 8 wires, so bus-invert transmits 0x00 with the invert line set.
  const std::vector<BitVec> flits = {pattern(8, 0xFF)};
  const auto encoded = bus_invert_encode(flits, 1);
  ASSERT_EQ(encoded.payloads.size(), 1u);
  EXPECT_EQ(encoded.payloads[0].get_field(0, 8), 0x00u);
  EXPECT_EQ(encoded.extra_wires_per_link, 1u);
  EXPECT_EQ(encoded.extra_wire_transitions, 1u);  // invert line 0 -> 1
}

TEST(BusInvert, KeepsDataWhenFewFlip) {
  const std::vector<BitVec> flits = {pattern(8, 0x01)};
  const auto encoded = bus_invert_encode(flits, 1);
  EXPECT_EQ(encoded.payloads[0].get_field(0, 8), 0x01u);
  EXPECT_EQ(encoded.extra_wire_transitions, 0u);
}

TEST(BusInvert, NeverFlipsMoreThanHalfPerSegment) {
  Rng rng(3);
  std::vector<BitVec> flits;
  for (int i = 0; i < 200; ++i) flits.push_back(pattern(64, rng.bits64()));
  const auto encoded = bus_invert_encode(flits, 1);

  BitVec wire(64);
  for (const auto& f : encoded.payloads) {
    EXPECT_LE(wire.transitions_to(f), 32);  // at most width/2
    wire = f;
  }
}

TEST(BusInvert, SegmentedBeatsOrMatchesWhole) {
  Rng rng(4);
  std::vector<BitVec> flits;
  for (int i = 0; i < 500; ++i) flits.push_back(pattern(64, rng.bits64()));
  const auto whole = bus_invert_encode(flits, 1);
  const auto seg = bus_invert_encode(flits, 8);
  const auto bt_whole = nocbt::analysis::stream_bt(whole.payloads).total_bt +
                        whole.extra_wire_transitions;
  const auto bt_seg = nocbt::analysis::stream_bt(seg.payloads).total_bt +
                      seg.extra_wire_transitions;
  EXPECT_LE(bt_seg, bt_whole);
  EXPECT_EQ(seg.extra_wires_per_link, 8u);
}

TEST(BusInvert, RejectsBadSegmentCount) {
  const std::vector<BitVec> flits = {pattern(64, 1)};
  EXPECT_THROW(bus_invert_encode(flits, 3), std::invalid_argument);
  EXPECT_THROW(bus_invert_encode(flits, 0), std::invalid_argument);
}

TEST(XorDelta, RoundTrips) {
  Rng rng(5);
  std::vector<BitVec> flits;
  for (int i = 0; i < 50; ++i) flits.push_back(pattern(128, rng.bits64()));
  const auto encoded = xor_delta_encode(flits);
  const auto decoded = xor_delta_decode(encoded.payloads);
  ASSERT_EQ(decoded.size(), flits.size());
  for (std::size_t i = 0; i < flits.size(); ++i)
    EXPECT_EQ(decoded[i], flits[i]) << "flit " << i;
}

TEST(XorDelta, CorrelatedStreamEncodesToNearZero) {
  // Slowly changing payloads: deltas are tiny, so consecutive encoded flits
  // are both near zero and the encoded BT collapses.
  std::vector<BitVec> flits;
  for (int i = 0; i < 100; ++i)
    flits.push_back(pattern(64, 0xABCD0000ull + static_cast<unsigned>(i % 2)));
  const auto encoded = xor_delta_encode(flits);
  const auto bt_raw = nocbt::analysis::stream_bt(flits).total_bt;
  const auto bt_enc = nocbt::analysis::stream_bt(encoded.payloads).total_bt;
  EXPECT_LT(bt_enc, bt_raw);
}

TEST(GreedyChain, PermutationAndCoverage) {
  Rng rng(6);
  std::vector<std::uint32_t> patterns;
  for (int i = 0; i < 40; ++i)
    patterns.push_back(static_cast<std::uint32_t>(rng.bits64()));
  const auto perm =
      get_strategy("chain").order(patterns, DataFormat::kFloat32);
  EXPECT_TRUE(is_permutation(perm, patterns.size()));
}

TEST(GreedyChain, NeverWorseThanPopcountSortOnIntraWindowBt) {
  // Greedy directly minimizes each step's Hamming distance; over many random
  // windows its *within-window* BT should on average beat popcount sorting.
  Rng rng(7);
  std::uint64_t greedy_bt = 0;
  std::uint64_t sorted_bt = 0;
  for (int window = 0; window < 50; ++window) {
    std::vector<std::uint32_t> patterns;
    for (int i = 0; i < 32; ++i)
      patterns.push_back(static_cast<std::uint32_t>(rng.bits64()));
    const auto gperm =
        get_strategy("chain").order(patterns, DataFormat::kFloat32);
    const auto sperm = popcount_descending_order(patterns, DataFormat::kFloat32);
    auto chain_bt = [&](const std::vector<std::uint32_t>& perm) {
      std::uint64_t bt = 0;
      for (std::size_t i = 1; i < perm.size(); ++i)
        bt += static_cast<std::uint64_t>(
            popcount32(patterns[perm[i - 1]] ^ patterns[perm[i]]));
      return bt;
    };
    greedy_bt += chain_bt(gperm);
    sorted_bt += chain_bt(sperm);
  }
  EXPECT_LT(greedy_bt, sorted_bt);
}

TEST(GreedyChain, EmptyAndSingle) {
  const std::vector<std::uint32_t> empty;
  EXPECT_TRUE(get_strategy("chain").order(empty, DataFormat::kFixed8).empty());
  const std::vector<std::uint32_t> single = {42};
  const auto perm = get_strategy("chain").order(single, DataFormat::kFixed8);
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0u);
}

TEST(OrderingUnit, LatencyIsLinearInValues) {
  OrderingUnitModel unit(OrderingUnitConfig{16, 32, 1});
  EXPECT_EQ(unit.cycles_to_order(0), 1u);
  EXPECT_EQ(unit.cycles_to_order(1), 1u);
  EXPECT_EQ(unit.cycles_to_order(8), 1u + 8u);
  EXPECT_EQ(unit.cycles_to_order(16), 1u + 16u);
  EXPECT_EQ(unit.cycles_to_order(400), 1u + 400u);
}

TEST(OrderingUnit, InitiationIntervalIsOneCyclePerBatch) {
  // The pipelined network ingests one 16-lane batch per cycle, so back-to-
  // back packets are accepted far faster than the end-to-end sort latency —
  // this is what makes the §IV-C3 latency hiding work.
  OrderingUnitModel unit(OrderingUnitConfig{16, 32, 1});
  EXPECT_EQ(unit.initiation_interval(1), 1u);
  EXPECT_EQ(unit.initiation_interval(16), 1u);
  EXPECT_EQ(unit.initiation_interval(17), 2u);
  EXPECT_EQ(unit.initiation_interval(150), 10u);
  EXPECT_EQ(unit.initiation_interval(400), 25u);
  EXPECT_EQ(unit.separated_initiation_interval(150), 20u);
  EXPECT_LT(unit.initiation_interval(400), unit.cycles_to_order(400));
}

TEST(OrderingUnit, SeparatedDoublesAffiliated) {
  // §V-C: the affiliated unit "can be used for separated-ordering with
  // double time consumption".
  OrderingUnitModel unit(OrderingUnitConfig{16, 32, 1});
  for (std::uint32_t n : {4u, 16u, 25u, 150u})
    EXPECT_EQ(unit.separated_cycles(n), 2 * unit.affiliated_cycles(n));
}

TEST(OrderingUnit, ComparatorCount) {
  EXPECT_EQ(OrderingUnitModel(OrderingUnitConfig{16, 32, 1}).comparators(), 8u);
  EXPECT_EQ(OrderingUnitModel(OrderingUnitConfig{8, 8, 1}).comparators(), 4u);
}

}  // namespace
}  // namespace nocbt::ordering
