#pragma once
// Scenario execution seam: run one expanded scenario (both ordering
// variants) through whichever backend its spec selects. This is the unit
// below the executor — it knows nothing about grids, shards, journals or
// persistent caching; it measures exactly one ScenarioSpec.
//
// Every scenario is measured twice through identical injection schedules:
// once with O0 (baseline) payload ordering and once with the scenario's
// ordering mode, yielding the BT reduction the paper reports. Link timing
// does not depend on payload bits, so a synthetic schedule runs the network
// once per network config — with its O0 payloads, which makes that run the
// baseline variant too — and records every link's crossing order
// (noc::CrossingLog). The ordered variant is then flitized and replayed
// over that log, with no network. Synthetic schedules under engine=auto
// are first evaluated by the zero-load analytical backend and keep that
// result when it is proven exact, falling back to the requested cycle
// engine otherwise. Model scenarios run two full inferences through
// NocDnaPlatform instead, which is how bench/fig12_noc_sizes reproduces its
// paper figure through this engine.

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/data_format.h"
#include "sim/campaign.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {

class ScenarioCache;  // sim/scenario_cache.h

/// A generator's fully-materialized injection schedule: the pre-ordering
/// traffic every variant of a scenario (baseline, ordered, analytical or
/// cycle) replays. Immutable once built, so workers share it freely.
using InjectionSchedule = std::vector<InjectionRequest>;

/// A materialized schedule plus the derived inputs of batched payload
/// ordering: the per-stream value concatenations and arrival-order
/// sequence-BT hints that let one OrderingStrategy::order_batch call (one
/// kernel pass per candidate ordering) score every window of the
/// scenario. The request list is immutable after materialization; the
/// derived block is built lazily on the first ordered variant and then
/// shared, through the campaign ScheduleCache, across every mode row of a
/// grid point — as is the schedule's timing run.
struct SharedSchedule {
  InjectionSchedule requests;

  struct Derived {
    /// True when every request carries equally-sized weight/input windows
    /// (the last may be ragged), i.e. the concatenations below form a
    /// valid order_batch layout. False routes through the per-request
    /// ordering path with identical results.
    bool uniform = false;
    std::size_t window_values = 0;
    std::vector<std::uint32_t> weights_concat;
    std::vector<std::uint32_t> inputs_concat;
    /// Arrival-order sequence BT per window — the order_batch hint that
    /// chain-class strategies would otherwise recompute per mode row.
    std::vector<std::uint64_t> weights_bt;
    std::vector<std::uint64_t> inputs_bt;
  };

  /// Derived block, built exactly once (thread-safe). The schedule cache
  /// key pins the format, so every caller passes the same one.
  [[nodiscard]] const Derived& derived(DataFormat format) const;

  /// One network run of the schedule carrying its O0 payloads: every
  /// payload-independent measurement, the O0 BT and per-link counters,
  /// and the crossing log that scores any other ordering of the schedule.
  /// Defined in scenario_runner.cpp.
  struct Timing;
  using TimingPtr = std::shared_ptr<const Timing>;

  /// The timing for `spec`'s network. The schedule key leaves out the
  /// fields that shape the network but not the traffic (VCs, buffer
  /// depth, engine choice, stall guard), so each distinct noc_config(),
  /// engine_auto and max_cycles gets its own run, made once (thread-safe:
  /// concurrent callers wait for the first one's run and share it, its
  /// failure included). `ran` is set for the caller that made the run.
  [[nodiscard]] TimingPtr timing(const ScenarioSpec& spec, bool& ran) const;

 private:
  mutable std::once_flag once_;
  mutable Derived derived_;

  struct TimingSlot {
    noc::NocConfig noc;
    bool engine_auto = true;
    std::uint64_t max_cycles = 0;
    std::shared_future<TimingPtr> timing;
  };
  mutable std::mutex timing_mutex_;
  mutable std::vector<TimingSlot> timings_;
};

using SharedSchedulePtr = std::shared_ptr<const SharedSchedule>;

/// Campaign-scoped schedule store: grid points that share every
/// payload-relevant knob (all mode rows of one traffic stream — expand()
/// derives their seeds mode-independently) generate their schedule once,
/// and with it the SharedSchedule::Derived ordering inputs. Thread-safe;
/// the first worker to request a key materializes it while later workers
/// block on the shared future. Entries are dropped after `uses_per_key`
/// lookups (one per mode row) to bound campaign memory, and — when
/// `max_entries` is non-zero — the least recently used entry is dropped to
/// make room for a new key beyond that many. A dropped schedule lives on
/// while a caller still holds it; a later lookup of its key rebuilds it.
class ScheduleCache {
 public:
  explicit ScheduleCache(std::size_t uses_per_key, std::size_t max_entries = 0)
      : uses_per_key_(uses_per_key < 1 ? 1 : uses_per_key),
        max_entries_(max_entries) {}

  [[nodiscard]] SharedSchedulePtr get(const ScenarioSpec& spec);

 private:
  struct Entry {
    std::shared_future<SharedSchedulePtr> future;
    std::size_t remaining = 0;
    std::uint64_t last_use = 0;  ///< lookup clock at the latest get()
  };
  std::size_t uses_per_key_;
  std::size_t max_entries_;
  std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t clock_ = 0;  ///< lookups so far (guarded by mutex_)
};

/// Run one already-expanded scenario (both ordering variants).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const ModelHooks& hooks);

/// run_scenario sharing a campaign-scoped ScheduleCache (may be null) —
/// the executor's per-row entry point.
[[nodiscard]] ScenarioResult run_scenario_shared(const ScenarioSpec& spec,
                                                 const ModelHooks& hooks,
                                                 ScheduleCache* schedules);

/// Expand a single-point campaign (every grid axis holding exactly one
/// value, replicates == 1) and run its only scenario — the co-optimizer's
/// inner-loop scorer. The result is byte-identical to the matching row of
/// run_campaign on the same spec: expansion derives the same name and
/// seed, and the runner's schedule cache only shares materialization, not
/// measurements. Throws std::invalid_argument when the grid expands to
/// more than one scenario.
[[nodiscard]] ScenarioResult run_single_scenario(const CampaignSpec& spec);

/// One cached single-scenario evaluation: the row plus how it was
/// obtained, so callers (opt::Evaluator, warm-rerun gates) can count real
/// simulations against cache hits.
struct SingleRunOutcome {
  ScenarioResult row;
  bool cache_hit = false;      ///< served from `cache` without simulating
  std::string content_hash;    ///< empty when the scenario is uncacheable
};

/// run_single_scenario through a content-addressed ScenarioCache (may be
/// null — then it always simulates). On a miss the fresh row is stored
/// back, so co-optimizer searches and campaign sweeps share hits.
/// `schedules` (may be null) shares materialized schedules and their
/// derived batched-ordering inputs across calls — opt::Evaluator passes
/// its own so candidates differing only in ordering mode reuse one
/// schedule and one set of arrival-BT hints.
[[nodiscard]] SingleRunOutcome run_single_scenario_cached(
    const CampaignSpec& spec, ScenarioCache* cache,
    ScheduleCache* schedules = nullptr);

}  // namespace nocbt::sim
