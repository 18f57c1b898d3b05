// Tests pinning the hardware cost models to the paper's published numbers
// (Table II and the §V-C link-power arithmetic).

#include <gtest/gtest.h>

#include <stdexcept>

#include "hw/gate_model.h"
#include "hw/link_energy.h"

namespace nocbt::hw {
namespace {

TEST(GateModel, DefaultUnitMatchesTableII) {
  // 16 lanes x 32-bit values @ 125 MHz / 1.0 V: the calibration anchor.
  OrderingUnitCostModel model(ordering::OrderingUnitConfig{16, 32, 1});
  const BlockCost cost = model.unit_cost();
  EXPECT_NEAR(cost.kilo_ge, table2::kUnitKiloGe, 0.01);
  EXPECT_NEAR(cost.power_mw, table2::kUnitPowerMw, 0.005);
}

TEST(GateModel, FourUnitsMatchTableII) {
  OrderingUnitCostModel model(ordering::OrderingUnitConfig{16, 32, 1});
  const BlockCost cost = model.units_cost(4);
  EXPECT_NEAR(cost.kilo_ge, table2::kFourUnitsKiloGe, 0.05);
  EXPECT_NEAR(cost.power_mw, table2::kFourUnitsPowerMw, 0.02);
}

TEST(GateModel, RouterReference) {
  EXPECT_NEAR(router_reference_cost(1).kilo_ge, 125.54, 1e-9);
  EXPECT_NEAR(router_reference_cost(64).kilo_ge, 8034.56, 1e-6);
  // Table II's 64-router figure (1083.18 mW) is not exactly 64x the
  // single-router figure (16.92 mW -> 1082.88) — the paper rounds the
  // per-router value. Allow that rounding slack.
  EXPECT_NEAR(router_reference_cost(64).power_mw, 1083.18, 0.5);
}

TEST(GateModel, OrderingUnitIsMuchCheaperThanRouter) {
  // The paper's headline overhead claim: one unit is ~10x smaller and ~7.6x
  // lower power than one router.
  OrderingUnitCostModel model(ordering::OrderingUnitConfig{16, 32, 1});
  const BlockCost unit = model.unit_cost();
  const BlockCost router = router_reference_cost(1);
  EXPECT_LT(unit.kilo_ge * 5, router.kilo_ge);
  EXPECT_LT(unit.power_mw * 5, router.power_mw);
}

TEST(GateModel, AreaScalesWithLanesAndWidth) {
  OrderingUnitCostModel small(ordering::OrderingUnitConfig{8, 8, 1});
  OrderingUnitCostModel base(ordering::OrderingUnitConfig{16, 32, 1});
  OrderingUnitCostModel wide(ordering::OrderingUnitConfig{32, 32, 1});
  EXPECT_LT(small.unit_cost().kilo_ge, base.unit_cost().kilo_ge);
  EXPECT_GT(wide.unit_cost().kilo_ge, base.unit_cost().kilo_ge);
  // Doubling lanes roughly doubles area (all components are per-lane).
  EXPECT_NEAR(wide.unit_cost().kilo_ge / base.unit_cost().kilo_ge, 2.0, 0.2);
}

TEST(GateModel, PowerScalesWithFrequencyAndVoltageSquared) {
  TechConfig fast;
  fast.frequency_mhz = 250.0;
  TechConfig high_v;
  high_v.voltage = 1.2;
  const ordering::OrderingUnitConfig unit{16, 32, 1};
  const double base = OrderingUnitCostModel(unit).unit_cost().power_mw;
  EXPECT_NEAR(OrderingUnitCostModel(unit, fast).unit_cost().power_mw, 2 * base,
              1e-9);
  EXPECT_NEAR(OrderingUnitCostModel(unit, high_v).unit_cost().power_mw,
              1.44 * base, 1e-9);
}

TEST(GateModel, StructuralBreakdownIsPositive) {
  OrderingUnitCostModel model(ordering::OrderingUnitConfig{16, 32, 1});
  EXPECT_GT(model.popcount_ge(), 0.0);
  EXPECT_GT(model.sorter_ge(), 0.0);
  EXPECT_GT(model.register_ge(), 0.0);
}

TEST(LinkEnergy, PaperNumbersReproduce) {
  // 0.173 pJ * 64 toggling bits * 112 links * 125 MHz = 155.008 mW.
  LinkPowerConfig cfg;  // defaults are the paper's
  EXPECT_NEAR(link_power_mw(cfg), 155.008, 1e-9);

  LinkPowerConfig banerjee = cfg;
  banerjee.energy_per_transition_pj = kBanerjeeEnergyPj;
  EXPECT_NEAR(link_power_mw(banerjee), 476.672, 1e-9);
}

TEST(LinkEnergy, ReductionScalesPower) {
  LinkPowerConfig cfg;
  EXPECT_NEAR(link_power_with_reduction_mw(cfg, 0.4085), 91.688, 0.01);
  LinkPowerConfig banerjee = cfg;
  banerjee.energy_per_transition_pj = kBanerjeeEnergyPj;
  EXPECT_NEAR(link_power_with_reduction_mw(banerjee, 0.4085), 281.951, 0.01);
}

TEST(LinkEnergy, MeshLinkCount) {
  // 8x8 mesh: 8*7 + 8*7 = 112 bidirectional links, the paper's count.
  EXPECT_EQ(mesh_bidirectional_links(8, 8), 112u);
  EXPECT_EQ(mesh_bidirectional_links(4, 4), 24u);
  EXPECT_EQ(mesh_bidirectional_links(1, 2), 1u);
}

TEST(LinkEnergy, MeshLinkCountDegenerateShapes) {
  // 1xN / Nx1 chains are legal (N-1 links); a 1x1 mesh has no links at
  // all. A 0 dimension used to underflow (cols - 1) in unsigned
  // arithmetic and report a huge link count — it must throw instead.
  EXPECT_EQ(mesh_bidirectional_links(1, 8), 7u);
  EXPECT_EQ(mesh_bidirectional_links(8, 1), 7u);
  EXPECT_EQ(mesh_bidirectional_links(1, 1), 0u);
  EXPECT_THROW((void)mesh_bidirectional_links(0, 8), std::invalid_argument);
  EXPECT_THROW((void)mesh_bidirectional_links(8, 0), std::invalid_argument);
  EXPECT_THROW((void)mesh_bidirectional_links(0, 0), std::invalid_argument);
}

TEST(LinkEnergy, TransitionsToJoules) {
  EXPECT_NEAR(transitions_to_joules(1'000'000, 0.173), 1e6 * 0.173e-12, 1e-18);
  EXPECT_DOUBLE_EQ(transitions_to_joules(0, 0.173), 0.0);
}

TEST(LinkEnergy, ZeroReductionKeepsPower) {
  LinkPowerConfig cfg;
  EXPECT_DOUBLE_EQ(link_power_with_reduction_mw(cfg, 0.0), link_power_mw(cfg));
  EXPECT_DOUBLE_EQ(link_power_with_reduction_mw(cfg, 1.0), 0.0);
}

}  // namespace
}  // namespace nocbt::hw
