// One timing run per schedule: the runner simulates a synthetic schedule's
// network once (carrying its O0 payloads) and scores every ordered variant
// by replaying that run's per-link crossing log. This suite pins the
// result, field for field and link for link, against the full two-variant
// simulation the runner used to perform — a test-local oracle that drives
// noc::Network / noc::AnalyticalEngine once per variant — for every
// synthetic generator, every engine, all eight modes and both formats,
// plus contended, single-flit and mixed-window schedules. It also covers
// the timing block's keying and concurrency contract and the crossing log
// at the noc level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/flitization.h"
#include "common/rng.h"
#include "hw/energy_model.h"
#include "noc/analytical_engine.h"
#include "noc/crossing_log.h"
#include "noc/network.h"
#include "noc/trace.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {
namespace {

using ordering::OrderingMode;
using Payloads = std::vector<std::vector<BitVec>>;

// ---- oracle: one full network run per variant -----------------------------

struct OracleVariant {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t peak_backlog = 0;
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;
  noc::SimProfile sim;
  std::vector<noc::LinkObservation> links;
};

std::vector<InjectionRequest> generate(const ScenarioSpec& spec) {
  std::vector<InjectionRequest> reqs;
  auto gen = make_generator(spec);
  while (auto req = gen->next()) reqs.push_back(std::move(*req));
  return reqs;
}

/// Per-request ordering + half-half packing (no batching).
Payloads flitize(const std::vector<InjectionRequest>& reqs,
                 const ScenarioSpec& spec, OrderingMode mode) {
  const accel::FlitLayout layout{spec.values_per_flit,
                                 value_bits(spec.format)};
  Payloads out;
  for (const InjectionRequest& req : reqs) {
    const std::span<const std::uint32_t> w(req.weights);
    const std::span<const std::uint32_t> in(req.inputs);
    const ordering::PairOrder order =
        ordering::order_pairs(mode, w, in, spec.format);
    out.push_back(accel::pack_half_half(
        ordering::apply_permutation(
            in, std::span<const std::uint32_t>(order.inputs)),
        ordering::apply_permutation(
            w, std::span<const std::uint32_t>(order.weights)),
        std::nullopt, layout));
  }
  return out;
}

/// The analytical attempt; false when the schedule is not provably exact.
bool oracle_analytical(const ScenarioSpec& spec,
                       const std::vector<InjectionRequest>& reqs,
                       const Payloads& payloads, OracleVariant& out,
                       std::string& why_not) {
  noc::AnalyticalEngine eng(spec.noc_config());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    eng.inject(reqs[i].cycle, reqs[i].src, reqs[i].dst, payloads[i]);
  if (!eng.run()) {
    why_not = eng.contention_detail();
    return false;
  }
  out.bt = eng.bt().total();
  out.cycles = eng.cycle();
  out.packets = eng.stats().packets_delivered;
  out.flits = eng.stats().flits_delivered;
  out.avg_latency = eng.stats().packet_latency.mean();
  out.avg_hops = eng.stats().packet_hops.mean();
  out.drained = true;
  out.sim = eng.stats().sim;
  out.links = eng.bt().snapshot();
  return true;
}

OracleVariant oracle_cycle(ScenarioSpec spec,
                           const std::vector<InjectionRequest>& reqs,
                           Payloads payloads) {
  if (spec.engine == noc::SimEngine::kAnalytical)
    spec.engine = noc::SimEngine::kActiveSet;
  noc::Network net(spec.noc_config());
  const std::int32_t nodes = spec.rows * spec.cols;
  for (std::int32_t node = 0; node < nodes; ++node) net.set_sink(node, nullptr);
  OracleVariant out;
  std::size_t next = 0;
  std::uint64_t active_steps = 0;
  while (next < reqs.size() || !net.idle()) {
    if (active_steps > spec.max_cycles) {
      out.sim = net.stats().sim;
      return out;
    }
    if (next < reqs.size() && reqs[next].cycle > net.cycle() && net.idle())
      net.advance_idle(reqs[next].cycle - net.cycle());
    while (next < reqs.size() && reqs[next].cycle <= net.cycle()) {
      net.inject(reqs[next].src, reqs[next].dst, std::move(payloads[next]));
      ++next;
    }
    net.step();
    ++active_steps;
    std::uint64_t backlog = 0;
    for (std::int32_t node = 0; node < nodes; ++node)
      backlog += net.injection_backlog(node);
    out.peak_backlog = std::max(out.peak_backlog, backlog);
  }
  out.bt = net.bt().total();
  out.cycles = net.cycle();
  out.packets = net.stats().packets_delivered;
  out.flits = net.stats().flits_delivered;
  out.avg_latency = net.stats().packet_latency.mean();
  out.avg_hops = net.stats().packet_hops.mean();
  out.drained = true;
  out.sim = net.stats().sim;
  out.links = net.bt().snapshot();
  return out;
}

OracleVariant oracle_variant(const ScenarioSpec& spec,
                             const std::vector<InjectionRequest>& reqs,
                             OrderingMode mode) {
  Payloads payloads = flitize(reqs, spec, mode);
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    OracleVariant out;
    std::string why_not;
    if (oracle_analytical(spec, reqs, payloads, out, why_not)) return out;
    if (!spec.engine_auto)
      throw std::runtime_error(
          "engine=analytical cannot evaluate this schedule exactly: " +
          why_not + " (engine=auto falls back to a cycle engine instead)");
  }
  return oracle_cycle(spec, reqs, std::move(payloads));
}

/// The row the two-variant runner produced for `spec`.
ScenarioResult oracle_row(const ScenarioSpec& spec) {
  ScenarioResult r;
  r.spec = spec;
  try {
    spec.validate();
    const std::vector<InjectionRequest> reqs = generate(spec);
    const OracleVariant base =
        oracle_variant(spec, reqs, OrderingMode::kBaseline);
    const OracleVariant ord = spec.mode == OrderingMode::kBaseline
                                  ? base
                                  : oracle_variant(spec, reqs, spec.mode);
    r.bt_baseline = base.bt;
    r.bt_ordered = ord.bt;
    r.reduction = base.bt > 0 ? 1.0 - static_cast<double>(ord.bt) /
                                          static_cast<double>(base.bt)
                              : 0.0;
    const hw::EnergyModel energy(hw::EnergyModelConfig{
        spec.energy_per_transition_pj, spec.frequency_mhz});
    r.energy_baseline_pj = energy.energy_pj(base.bt);
    r.energy_pj = energy.energy_pj(ord.bt);
    r.power_baseline_mw = energy.power_mw(base.bt, base.cycles);
    r.power_mw = energy.power_mw(ord.bt, ord.cycles);
    r.links = energy.annotate(ord.links);
    r.cycles = ord.cycles;
    r.packets = ord.packets;
    r.flits = ord.flits;
    r.peak_backlog = ord.peak_backlog;
    r.avg_latency = ord.avg_latency;
    r.avg_hops = ord.avg_hops;
    r.drained = base.drained && ord.drained;
    r.sim = ord.sim;
    if (!r.drained)
      r.error = "scenario '" + spec.name + "' hit the max_cycles stall guard (" +
                std::to_string(spec.max_cycles) +
                " active cycles) before draining";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

void expect_same_row(const ScenarioResult& got, const ScenarioResult& want) {
  ASSERT_EQ(got.error, want.error) << want.spec.name;
  EXPECT_EQ(got.bt_baseline, want.bt_baseline) << want.spec.name;
  EXPECT_EQ(got.bt_ordered, want.bt_ordered) << want.spec.name;
  EXPECT_EQ(got.reduction, want.reduction) << want.spec.name;
  EXPECT_EQ(got.energy_baseline_pj, want.energy_baseline_pj);
  EXPECT_EQ(got.energy_pj, want.energy_pj);
  EXPECT_EQ(got.power_baseline_mw, want.power_baseline_mw);
  EXPECT_EQ(got.power_mw, want.power_mw);
  EXPECT_EQ(got.cycles, want.cycles) << want.spec.name;
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.flits, want.flits);
  EXPECT_EQ(got.peak_backlog, want.peak_backlog);
  EXPECT_EQ(got.avg_latency, want.avg_latency);
  EXPECT_EQ(got.avg_hops, want.avg_hops);
  EXPECT_EQ(got.drained, want.drained);
  EXPECT_TRUE(got.sim == want.sim) << want.spec.name;
  EXPECT_EQ(got.links, want.links) << want.spec.name;
  EXPECT_TRUE(got == want) << want.spec.name;
}

// ---- specs ----------------------------------------------------------------

ScenarioSpec base_spec(GeneratorKind gen) {
  ScenarioSpec spec;
  spec.name = "replay/" + to_string(gen);
  spec.generator = gen;
  spec.rows = 4;
  spec.cols = 4;
  spec.window = 24;  // 3 flits per packet at 16 values per flit
  spec.packets = 40;
  spec.injection_rate = 0.6;  // contended: flits interleave on links
  spec.seed = 20261017;
  spec.burst_len = 6;
  spec.burst_gap = 40;
  spec.model = "lenet";
  spec.placement = "rowmajor";
  spec.tiles_per_layer = 2;
  spec.num_mcs = 2;
  spec.model_seed = 5;
  return spec;
}

/// A recorded trace with mixed packet lengths (1-6 flits), a
/// self-delivered packet, bursts of simultaneous injections and a long
/// idle gap.
std::string write_mixed_trace(const std::string& name) {
  noc::PacketTrace trace;
  std::uint64_t id = 0;
  for (std::uint64_t burst = 0; burst < 3; ++burst) {
    const std::uint64_t at = burst * 700;
    for (std::int32_t k = 0; k < 10; ++k) {
      const std::int32_t src = (k * 5 + static_cast<std::int32_t>(burst)) % 16;
      const std::int32_t dst = (k * 7 + 3) % 16;
      const std::uint64_t inject = at + static_cast<std::uint64_t>(k / 3);
      trace.record({id++, src, dst, static_cast<std::uint32_t>(1 + k % 6),
                    inject, inject + 20, 0, {}, {}});
    }
  }
  trace.record({id++, 5, 5, 2, 2500, 2510, 0, {}, {}});
  const std::string path = ::testing::TempDir() + "/" + name;
  trace.dump_csv(path);
  return path;
}

struct EngineCase {
  const char* name;
  bool engine_auto;
  noc::SimEngine engine;
};

constexpr EngineCase kCycleEngines[] = {
    {"auto", true, noc::SimEngine::kActiveSet},
    {"active", false, noc::SimEngine::kActiveSet},
    {"fullscan", false, noc::SimEngine::kFullScan},
};

/// Run every mode x format of `spec` through one shared ScheduleCache (so
/// the mode rows share one timing run, as in a campaign) and through
/// run_scenario (each row its own), pinning both against the oracle.
/// Returns the rows that made a network run.
std::size_t expect_all_modes_match(ScenarioSpec spec) {
  std::size_t ran = 0;
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    spec.format = format;
    ScheduleCache schedules(ordering::all_ordering_modes().size());
    for (const OrderingMode mode : ordering::all_ordering_modes()) {
      spec.mode = mode;
      spec.name = "replay/" + to_string(spec.generator) + "/" +
                  to_string(format) + "/" + ordering::to_string(mode);
      const ScenarioResult want = oracle_row(spec);
      const ScenarioResult shared =
          run_scenario_shared(spec, ModelHooks{}, &schedules);
      expect_same_row(shared, want);
      ran += shared.timing_ran ? 1 : 0;
      expect_same_row(run_scenario(spec, ModelHooks{}), want);
    }
  }
  return ran;
}

class EveryGenerator : public ::testing::TestWithParam<GeneratorKind> {};

TEST_P(EveryGenerator, ReplayMatchesTwoVariantSimulationOnCycleEngines) {
  ScenarioSpec spec = base_spec(GetParam());
  if (GetParam() == GeneratorKind::kReplay)
    spec.trace_path = write_mixed_trace("timing_replay_cycle.csv");
  for (const EngineCase& e : kCycleEngines) {
    SCOPED_TRACE(e.name);
    spec.engine_auto = e.engine_auto;
    spec.engine = e.engine;
    // One network run per format: the first mode row ran it, the other
    // seven replayed it.
    EXPECT_EQ(expect_all_modes_match(spec), 2u);
  }
}

TEST_P(EveryGenerator, ReplayMatchesTwoVariantSimulationOnAnalyticalEngine) {
  ScenarioSpec spec = base_spec(GetParam());
  if (GetParam() == GeneratorKind::kReplay) {
    noc::PacketTrace trace;  // sparse: congestion-free
    for (std::uint64_t k = 0; k < 12; ++k)
      trace.record({k, static_cast<std::int32_t>(k % 16),
                    static_cast<std::int32_t>((k * 7 + 3) % 16),
                    static_cast<std::uint32_t>(1 + k % 4), k * 400,
                    k * 400 + 20, 0, {}, {}});
    spec.trace_path = ::testing::TempDir() + "/timing_replay_sparse.csv";
    trace.dump_csv(spec.trace_path);
  }
  spec.packets = 16;
  spec.injection_rate = 2e-4;
  spec.burst_len = 1;
  spec.burst_gap = 300;
  spec.engine_auto = false;
  spec.engine = noc::SimEngine::kAnalytical;
  EXPECT_EQ(expect_all_modes_match(spec), 2u);
  spec.mode = OrderingMode::kSeparated;
  const ScenarioResult row = run_scenario(spec, ModelHooks{});
  if (GetParam() == GeneratorKind::kPlacement) {
    // Placed layers inject their tiles in bursts whatever the rate, so
    // the forced analytical backend fails every row, as it always did.
    EXPECT_NE(row.error.find("engine=analytical"), std::string::npos);
  } else {
    EXPECT_EQ(row.sim.engine, noc::SimEngine::kAnalytical) << row.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TimingReplay, EveryGenerator,
    ::testing::Values(GeneratorKind::kUniform, GeneratorKind::kTranspose,
                      GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
                      GeneratorKind::kBurst, GeneratorKind::kReplay,
                      GeneratorKind::kPlacement),
    [](const auto& info) { return to_string(info.param); });

TEST(TimingReplay, SingleFlitPackets) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  spec.window = 8;  // 8 pairs fill exactly one 16-slot flit
  spec.packets = 64;
  spec.injection_rate = 1.5;
  for (const EngineCase& e : kCycleEngines) {
    SCOPED_TRACE(e.name);
    spec.engine_auto = e.engine_auto;
    spec.engine = e.engine;
    expect_all_modes_match(spec);
  }
}

TEST(TimingReplay, MixedWindowLengths) {
  // Placed layers carry windows of 1-64 pairs; the replayed trace carries
  // 1-6 flit packets. Both take the per-request ordering path.
  ScenarioSpec placed = base_spec(GeneratorKind::kPlacement);
  placed.window = 64;
  placed.tiles_per_layer = 4;
  const std::vector<InjectionRequest> reqs = generate(placed);
  bool mixed = false;
  for (const InjectionRequest& r : reqs)
    mixed |= r.weights.size() != reqs.front().weights.size();
  ASSERT_TRUE(mixed) << "placed schedule lost its mixed window lengths";
  expect_all_modes_match(placed);

  ScenarioSpec replayed = base_spec(GeneratorKind::kReplay);
  replayed.trace_path = write_mixed_trace("timing_replay_mixed.csv");
  replayed.values_per_flit = 8;
  expect_all_modes_match(replayed);
}

// ---- keying, guards and concurrency -----------------------------------------

TEST(TimingReplay, NetworkKnobsOutsideTheScheduleKeyGetTheirOwnTiming) {
  // num_vcs and vc_buffer_depth are not part of the schedule key, so these
  // specs share one schedule; each must still get a timing run of its own
  // network — the analogue of RatesBeyondSixDecimalsGetTheirOwnSchedule.
  ScenarioSpec a = base_spec(GeneratorKind::kUniform);
  a.injection_rate = 2.0;
  a.packets = 64;
  a.window = 64;  // 8-flit packets: a 1-flit buffer throttles each stream
  a.mode = OrderingMode::kSeparated;
  ScenarioSpec fewer_vcs = a;
  fewer_vcs.num_vcs = 1;
  ScenarioSpec shallow = a;
  shallow.vc_buffer_depth = 1;
  ScenarioSpec a_chain = a;
  a_chain.mode = OrderingMode::kChain;

  ScheduleCache schedules(100);
  ASSERT_EQ(schedules.get(a), schedules.get(fewer_vcs));
  ASSERT_EQ(schedules.get(a), schedules.get(shallow));

  const ScenarioResult ra = run_scenario_shared(a, ModelHooks{}, &schedules);
  const ScenarioResult rv =
      run_scenario_shared(fewer_vcs, ModelHooks{}, &schedules);
  const ScenarioResult rd =
      run_scenario_shared(shallow, ModelHooks{}, &schedules);
  const ScenarioResult rc =
      run_scenario_shared(a_chain, ModelHooks{}, &schedules);
  EXPECT_TRUE(ra.timing_ran);
  EXPECT_TRUE(rv.timing_ran);
  EXPECT_TRUE(rd.timing_ran);
  EXPECT_FALSE(rc.timing_ran);  // same network as `a`: shared
  EXPECT_NE(ra.cycles, rv.cycles);
  EXPECT_NE(ra.cycles, rd.cycles);
  expect_same_row(ra, oracle_row(a));
  expect_same_row(rv, oracle_row(fewer_vcs));
  expect_same_row(rd, oracle_row(shallow));
  expect_same_row(rc, oracle_row(a_chain));
}

TEST(TimingReplay, StallGuardRowStaysByteIdentical) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  spec.engine_auto = false;  // the cycle engine is what stalls
  spec.max_cycles = 3;
  ScheduleCache schedules(8);
  for (const OrderingMode mode : ordering::all_ordering_modes()) {
    spec.mode = mode;
    const ScenarioResult got =
        run_scenario_shared(spec, ModelHooks{}, &schedules);
    const ScenarioResult want = oracle_row(spec);
    ASSERT_FALSE(want.drained);
    EXPECT_EQ(got.bt_baseline, 0u);
    EXPECT_EQ(got.bt_ordered, 0u);
    EXPECT_EQ(got.cycles, 0u);
    EXPECT_EQ(encode_result_record("", 0, got),
              encode_result_record("", 0, want));
    expect_same_row(got, want);
  }
}

TEST(TimingReplay, ForcedAnalyticalOnContendedScheduleThrowsTheSameMessage) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  spec.injection_rate = 2.0;
  spec.packets = 64;
  spec.engine_auto = false;
  spec.engine = noc::SimEngine::kAnalytical;
  ScheduleCache schedules(8);
  for (const OrderingMode mode : ordering::all_ordering_modes()) {
    spec.mode = mode;
    const ScenarioResult got =
        run_scenario_shared(spec, ModelHooks{}, &schedules);
    const ScenarioResult want = oracle_row(spec);
    ASSERT_NE(want.error.find("engine=analytical cannot evaluate"),
              std::string::npos)
        << want.error;
    EXPECT_EQ(got.error, want.error);
    EXPECT_TRUE(got == want);
  }
}

TEST(TimingReplay, AnalyticalRejectionReasonIsReported) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  spec.injection_rate = 2.0;
  spec.packets = 64;
  spec.mode = OrderingMode::kSeparated;
  const ScenarioResult contended = run_scenario(spec, ModelHooks{});
  EXPECT_EQ(contended.sim.engine, noc::SimEngine::kActiveSet);
  EXPECT_NE(contended.why_not.find("not congestion-free"), std::string::npos)
      << contended.why_not;

  spec.injection_rate = 2e-4;
  spec.packets = 8;
  const ScenarioResult sparse = run_scenario(spec, ModelHooks{});
  EXPECT_EQ(sparse.sim.engine, noc::SimEngine::kAnalytical);
  EXPECT_TRUE(sparse.why_not.empty()) << sparse.why_not;
}

TEST(TimingReplay, ConcurrentRowsShareOneTimingRunDeterministically) {
  CampaignSpec camp;
  camp.name = "race";
  camp.root_seed = 7;
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = ordering::all_ordering_modes();
  camp.meshes = {MeshSpec{6, 6, 2}};
  camp.windows = {32};
  camp.base.packets = 200;
  camp.base.injection_rate = 1.5;
  const CampaignResult serial = run_campaign(camp);
  const CampaignResult parallel = run_campaign(
      camp, RunnerConfig{.threads = 4, .exec = {}, .on_result = {}});
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  std::size_t ran = 0;
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    ASSERT_TRUE(serial.rows[i].error.empty()) << serial.rows[i].error;
    EXPECT_TRUE(serial.rows[i] == parallel.rows[i])
        << serial.rows[i].spec.name;
    ran += parallel.rows[i].timing_ran ? 1 : 0;
  }
  EXPECT_EQ(ran, 1u);  // eight rows raced for one timing run
}

// ---- one timing run across payload formats --------------------------------

/// A fixed-8 + float-32 placed campaign of `model`.
CampaignSpec placed_two_formats(const std::string& model) {
  CampaignSpec camp;
  camp.name = "formats/" + model;
  camp.root_seed = 11;
  camp.generators = {GeneratorKind::kPlacement};
  camp.formats = {DataFormat::kFixed8, DataFormat::kFloat32};
  camp.modes = {OrderingMode::kBaseline, OrderingMode::kSeparated,
                OrderingMode::kChain, OrderingMode::kTwoFlit};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {32};
  camp.base.model = model;
  camp.base.placement = "rowmajor";
  camp.base.tiles_per_layer = 2;
  camp.base.model_seed = 5;
  return camp;
}

/// Rows of `result` that made their network run.
std::size_t timing_runs(const CampaignResult& result) {
  std::size_t ran = 0;
  for (const ScenarioResult& row : result.rows) ran += row.timing_ran ? 1 : 0;
  return ran;
}

/// Every row of `result` equals its scenario run on its own.
void expect_rows_match_standalone(const CampaignSpec& camp,
                                  const CampaignResult& result) {
  const std::vector<ScenarioSpec> grid = camp.expand();
  ASSERT_EQ(result.rows.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ScenarioResult alone = run_scenario(grid[i], ModelHooks{});
    EXPECT_TRUE(result.rows[i] == alone) << grid[i].name;
    EXPECT_EQ(result.rows[i].why_not, alone.why_not) << grid[i].name;
  }
}

TEST(TimingAcrossFormats, PlacedFormatsShareOneTimingRun) {
  for (const std::string model : {"lenet", "mobile"}) {
    CampaignSpec camp = placed_two_formats(model);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(model + " threads=" + std::to_string(threads));
      // Four threads take both windows' two streams in one block.
      camp.windows = threads == 1 ? std::vector<std::uint32_t>{32}
                                  : std::vector<std::uint32_t>{32, 64};
      const CampaignResult result = run_campaign(
          camp, RunnerConfig{.threads = threads, .exec = {}, .on_result = {}});
      EXPECT_EQ(timing_runs(result), camp.windows.size());
      expect_rows_match_standalone(camp, result);
      // The formats really carry different payloads: the float-32 rows'
      // O0 BT is their own, not the fixed-8 run's.
      const std::size_t per_format = result.rows.size() / 2;
      for (std::size_t i = 0; i < per_format; ++i) {
        const ScenarioResult& fx8 = result.rows[i];
        const ScenarioResult& fp32 = result.rows[per_format + i];
        ASSERT_EQ(fx8.spec.format, DataFormat::kFixed8);
        ASSERT_EQ(fp32.spec.format, DataFormat::kFloat32);
        EXPECT_EQ(fx8.cycles, fp32.cycles);
        EXPECT_NE(fx8.bt_baseline, fp32.bt_baseline);
      }
    }
  }
}

TEST(TimingAcrossFormats, SyntheticFormatsKeepTheirOwnRuns) {
  // expand() seeds each format's stream differently, so the packets
  // differ and so do the fingerprints.
  CampaignSpec camp;
  camp.name = "formats/uniform";
  camp.root_seed = 3;
  camp.formats = {DataFormat::kFixed8, DataFormat::kFloat32};
  camp.modes = {OrderingMode::kSeparated, OrderingMode::kChain};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {24};
  camp.base.packets = 40;
  camp.base.injection_rate = 0.6;
  const CampaignResult result = run_campaign(camp);
  EXPECT_EQ(timing_runs(result), 2u);
  expect_rows_match_standalone(camp, result);
}

TEST(TimingAcrossFormats, FlitCountsSplitTheFingerprint) {
  // Same seed and format, so the same requests pair for pair — but 8
  // values per flit make 6-flit packets where 16 make 3. Sharing a run
  // would fail replay's flit-count check; each gets its own.
  ScenarioSpec wide = base_spec(GeneratorKind::kUniform);
  wide.mode = OrderingMode::kSeparated;
  ScenarioSpec narrow = wide;
  narrow.values_per_flit = 8;
  const std::vector<InjectionRequest> a = generate(wide);
  const std::vector<InjectionRequest> b = generate(narrow);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].cycle, b[i].cycle);
    ASSERT_EQ(a[i].src, b[i].src);
    ASSERT_EQ(a[i].dst, b[i].dst);
    ASSERT_EQ(a[i].weights, b[i].weights);
  }
  ScheduleCache schedules(8, 0, 4);
  const ScenarioResult ra = run_scenario_shared(wide, ModelHooks{}, &schedules);
  const ScenarioResult rb =
      run_scenario_shared(narrow, ModelHooks{}, &schedules);
  EXPECT_TRUE(ra.timing_ran);
  EXPECT_TRUE(rb.timing_ran);
  expect_same_row(ra, oracle_row(wide));
  expect_same_row(rb, oracle_row(narrow));
}

TEST(TimingAcrossFormats, SharedFailureAndStallReachBothFormats) {
  // Placed layers inject in bursts: forced analytical fails them.
  CampaignSpec forced = placed_two_formats("lenet");
  forced.base.engine_auto = false;
  forced.base.engine = noc::SimEngine::kAnalytical;
  CampaignSpec stalled = placed_two_formats("lenet");
  stalled.base.engine_auto = false;
  stalled.base.max_cycles = 3;
  for (const CampaignSpec* camp : {&forced, &stalled}) {
    SCOPED_TRACE(camp == &forced ? "forced analytical" : "stall guard");
    const CampaignResult result = run_campaign(*camp);
    EXPECT_EQ(timing_runs(result), 1u);
    expect_rows_match_standalone(*camp, result);
    for (const ScenarioResult& row : result.rows) {
      EXPECT_FALSE(row.error.empty()) << row.spec.name;
      EXPECT_FALSE(row.drained) << row.spec.name;
    }
    const std::string first = result.rows.front().error;
    if (camp == &forced) {
      for (const ScenarioResult& row : result.rows)
        EXPECT_EQ(row.error, first);  // the message names no scenario
    }
  }
}

// ---- the crossing log itself ------------------------------------------------

/// Random single-source payloads of `flits` flits each.
Payloads random_packets(std::size_t packets, std::uint32_t flits,
                        unsigned width, std::uint64_t seed) {
  Rng rng(seed);
  Payloads out(packets);
  for (auto& packet : out)
    for (std::uint32_t f = 0; f < flits; ++f) {
      BitVec v(width);
      for (unsigned b = 0; b < width; b += 32)
        v.set_field(b, 32,
                    static_cast<std::uint64_t>(rng.uniform_int(0, 0xFFFFFFFF)));
      packet.push_back(std::move(v));
    }
  return out;
}

TEST(CrossingLog, ReplayReproducesAnyPayloadSetOnAContendedMesh) {
  noc::NocConfig cfg;
  cfg.flit_payload_bits = 64;
  cfg.num_vcs = 2;
  const std::size_t packets = 48;
  // Everyone sends to two hot destinations in the same few cycles, so VCs
  // interleave flits of different packets on shared links.
  const Payloads first = random_packets(packets, 4, 64, 1);
  const Payloads second = random_packets(packets, 4, 64, 2);
  const auto run = [&](Payloads payloads, noc::CrossingLogBuilder* log) {
    auto net = std::make_unique<noc::Network>(cfg);
    for (std::int32_t n = 0; n < 16; ++n) net->set_sink(n, nullptr);
    net->set_crossing_log(log);
    for (std::size_t p = 0; p < packets; ++p) {
      const auto src = static_cast<std::int32_t>(p % 16);
      net->inject(src, src % 2 == 0 ? 5 : 10, std::move(payloads[p]));
      if (p % 8 == 7) net->step();
    }
    EXPECT_TRUE(net->run_until_idle());
    return net;
  };
  noc::CrossingLogBuilder builder(noc::Network(cfg).bt().link_count());
  const auto logged = run(first, &builder);
  const noc::CrossingLog log = std::move(builder).finish();

  // Some link saw flits of different packets interleave: a run ends
  // inside a packet.
  bool interleaved = false;
  for (std::size_t id = 0; id < log.link_count(); ++id)
    log.for_each_run(id, [&](std::uint32_t first, std::uint32_t flits) {
      interleaved |= (first + flits) % 4 != 0;
    });
  EXPECT_TRUE(interleaved);

  const auto flat = [](const Payloads& p) {
    std::vector<BitVec> out;
    for (const auto& packet : p) out.insert(out.end(), packet.begin(),
                                            packet.end());
    return out;
  };
  const std::vector<std::uint32_t> layout(packets, 4);
  for (const Payloads* payloads : {&first, &second}) {
    const auto truth = run(*payloads, nullptr);
    noc::BtRecorder replayed(cfg.bt_scope, cfg.flit_payload_bits);
    for (const auto& link : logged->bt().snapshot())
      replayed.register_link(link.info);
    log.replay(flat(*payloads), layout, replayed);
    EXPECT_EQ(replayed.snapshot(), truth->bt().snapshot());
    EXPECT_EQ(replayed.total(), truth->bt().total());
  }

  noc::BtRecorder wrong(cfg.bt_scope, cfg.flit_payload_bits);
  for (const auto& link : logged->bt().snapshot())
    wrong.register_link(link.info);
  const std::vector<std::uint32_t> bad_layout(packets, 3);
  EXPECT_THROW(log.replay(flat(first), bad_layout, wrong),
               std::invalid_argument);
}

TEST(CrossingLog, AnalyticalLogMatchesTheCycleEnginesLog) {
  // On a congestion-free schedule both producers log the same crossings.
  noc::NocConfig cfg;
  cfg.flit_payload_bits = 64;
  const Payloads payloads = random_packets(10, 3, 64, 3);
  noc::AnalyticalEngine eng(cfg);
  noc::Network net(cfg);
  noc::CrossingLogBuilder builder(net.bt().link_count());
  net.set_crossing_log(&builder);
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const auto src = static_cast<std::int32_t>(p);
    const auto dst = static_cast<std::int32_t>(15 - p);
    eng.inject(net.cycle(), src, dst, payloads[p]);
    net.inject(src, dst, payloads[p]);
    for (int k = 0; k < 30; ++k) net.step();
  }
  ASSERT_TRUE(net.run_until_idle());
  ASSERT_TRUE(eng.run());
  const noc::CrossingLog from_network = std::move(builder).finish();
  const noc::CrossingLog from_analytical = eng.crossing_log();
  EXPECT_EQ(from_analytical.offsets, from_network.offsets);
  EXPECT_EQ(from_analytical.words, from_network.words);
  EXPECT_EQ(from_analytical.packet_flits, from_network.packet_flits);
}

}  // namespace
}  // namespace nocbt::sim
