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
// over that log, with no network. Schedules whose packets time identically
// in another payload format (a placed model's fixed-8 and float-32
// streams) share that run, each replaying its own O0 payloads over it.
// Synthetic schedules under engine=auto are first evaluated by the
// zero-load analytical backend and keep that result when it is proven
// exact, falling back to the requested cycle engine otherwise. Model
// scenarios run two full inferences through NocDnaPlatform instead, which
// is how bench/fig12_noc_sizes reproduces its paper figure through this
// engine.

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
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

/// A materialized schedule: the request list, immutable once built and
/// shared, through the campaign ScheduleCache, across every mode row of a
/// traffic stream. Each row orders and flitizes the requests one at a time
/// (ordering::order_pairs per request). Timing runs are shared wider,
/// through the schedule's TimingSet: every schedule whose packets the
/// network sees identically, whatever their payload format.
struct SharedSchedule {
  struct Timing;     ///< one network run; defined in scenario_runner.cpp
  struct TimingSet;  ///< the runs of one packet fingerprint; ditto
  using TimingPtr = std::shared_ptr<const Timing>;

  /// `timings` is the set this schedule's timing runs go to and come from
  /// (ScheduleCache shares one between schedules of equal fingerprint);
  /// null gives the schedule a set of its own.
  SharedSchedule(InjectionSchedule requests, DataFormat format,
                 std::shared_ptr<TimingSet> timings = nullptr);

  InjectionSchedule requests;
  DataFormat format;  ///< the format of the requests' payload values

  /// The schedule's windows concatenated, with their arrival-order
  /// sequence BTs: the inputs of the benchmark's traced replay
  /// (e2ebench/e2e_campaign.cpp), which reads them through derived(). The
  /// runner itself orders request by request and never builds them.
  struct Derived {
    /// True when every request carries equally-sized weight/input windows
    /// (the last may be ragged), i.e. the concatenations below form a
    /// valid order_batch layout.
    bool uniform = false;
    std::size_t window_values = 0;
    std::vector<std::uint32_t> weights_concat;
    std::vector<std::uint32_t> inputs_concat;
    /// Arrival-order sequence BT per window.
    std::vector<std::uint64_t> weights_bt;
    std::vector<std::uint64_t> inputs_bt;
  };

  /// Derived block, built exactly once (thread-safe), under `format`.
  [[nodiscard]] const Derived& derived() const;
  /// derived() for callers that name the format; throws
  /// std::invalid_argument when it is not the schedule's own.
  [[nodiscard]] const Derived& derived(DataFormat format) const;

  /// The network run that scores `spec`'s rows of this schedule: every
  /// payload-independent measurement, the O0 BT and per-link counters of
  /// *this* schedule's payloads, and the crossing log that scores any
  /// other ordering of them.
  ///
  /// Runs live in the schedule's TimingSet, one per distinct
  /// (noc_config() without flit_payload_bits, engine_auto, max_cycles):
  /// the schedule key leaves out the network knobs that do not shape the
  /// traffic (VCs, buffer depth, engine choice, stall guard), and payload
  /// width only sizes the BT recorder. Each run is made once (thread-safe:
  /// concurrent callers wait for the first one's run and share it, its
  /// failure included). A run made with another schedule's payloads — the
  /// same packets in another format — gets this schedule's O0 BT and
  /// per-link counters by replaying its O0 payloads over the run's
  /// crossing log, once per schedule and run. Fills `row`'s timing_ran,
  /// wall_ms_timing (when this call made the run), wall_ms_replay (that O0
  /// replay, when this call made it) and why_not.
  [[nodiscard]] TimingPtr timing(const ScenarioSpec& spec,
                                 ScenarioResult& row) const;

 private:
  mutable std::once_flag once_;
  mutable Derived derived_;
  std::shared_ptr<TimingSet> timings_;
  /// Identifies this schedule's payloads to the runs it makes (addresses
  /// are reused once a schedule is freed; serials are not).
  std::uint64_t serial_;
  /// This schedule's O0 view of runs another schedule made, by run.
  mutable std::mutex views_mutex_;
  mutable std::vector<std::pair<const Timing*, std::shared_future<TimingPtr>>>
      views_;
};

using SharedSchedulePtr = std::shared_ptr<const SharedSchedule>;

/// The traffic-stream key: a fingerprint of every spec field the synthetic
/// generators read, hashed like scenario_content_key (doubles by bit
/// pattern, so rates and distribution parameters that differ past any
/// printed precision never share a schedule). Mode, engine and name are
/// deliberately absent: scenarios differing only in those produce
/// byte-identical schedules and share one materialization. The key keeps
/// `format` (it decides the payload values), so timing runs are not
/// shared through it but through the packet fingerprint
/// (SharedSchedule::timing). ScheduleCache keys on it, and run_campaign
/// groups its row claims by it (stream_claim_order).
[[nodiscard]] std::string schedule_key(const ScenarioSpec& spec);

/// Campaign-scoped schedule store: grid points that share every
/// payload-relevant knob (all mode rows of one traffic stream — expand()
/// derives their seeds mode-independently) generate their schedule once.
/// Thread-safe; the first worker to request a key materializes it while
/// later workers block on the shared future. An entry is dropped once its
/// key has seen all its lookups — get() or release() calls:
/// `uses_per_key` of them (one per mode row), or the count expect() set
/// for the key — to bound campaign memory, and — when `max_entries` is
/// non-zero — the least recently used entry is dropped to make room for
/// a new key beyond that many (expect() counts are for stores without
/// that bound). A dropped
/// schedule lives on while a caller still holds it; a later lookup of its
/// key rebuilds it.
///
/// Each materialization fingerprints the packets the network will see —
/// every request's (cycle, src, dst, flit count), the flit count under
/// the spec's FlitLayout — and hands the schedule the TimingSet of that
/// fingerprint, so the fixed-8 and float-32 schedules of one placed model
/// make one timing run. The store keeps the sets of the `timing_sets`
/// most recently materialized fingerprints alive after their schedules
/// are dropped (run_campaign passes its worker count, so a stream's run
/// outlives it until the next `threads` fingerprints arrive); a set also
/// lives while a schedule holds it.
class ScheduleCache {
 public:
  explicit ScheduleCache(std::size_t uses_per_key, std::size_t max_entries = 0,
                         std::size_t timing_sets = 1)
      : uses_per_key_(uses_per_key < 1 ? 1 : uses_per_key),
        max_entries_(max_entries),
        timing_sets_(timing_sets < 1 ? 1 : timing_sets) {}

  /// `key` (a schedule_key) will see `uses` lookups in all, instead of
  /// `uses_per_key`. Call before its first lookup.
  void expect(const std::string& key, std::size_t uses);

  [[nodiscard]] SharedSchedulePtr get(const ScenarioSpec& spec);

  /// Count a lookup of `key` whose row was obtained elsewhere (a journal
  /// or the scenario cache), without materializing the schedule.
  void release(const std::string& key);

 private:
  struct Entry {
    std::shared_future<SharedSchedulePtr> future;  ///< invalid until a get()
    std::size_t remaining = 0;
    std::uint64_t last_use = 0;  ///< lookup clock at the latest get()
  };
  /// Count one lookup of the entry at `it`, dropping it after its last.
  void use(std::unordered_map<std::string, Entry>::iterator it);
  /// The timing set of a fingerprint, now the most recent one.
  std::shared_ptr<SharedSchedule::TimingSet> timing_set(
      const std::string& fingerprint);

  std::size_t uses_per_key_;
  std::size_t max_entries_;
  std::size_t timing_sets_;
  std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t clock_ = 0;  ///< lookups so far (guarded by mutex_)
  /// The sets of the latest fingerprints, most recent last (guarded by
  /// mutex_; at most timing_sets_ entries).
  std::vector<std::pair<std::string,
                        std::shared_ptr<SharedSchedule::TimingSet>>>
      recent_sets_;
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
/// `schedules` (may be null) shares materialized schedules across calls —
/// opt::Evaluator passes its own so candidates differing only in ordering
/// mode reuse one schedule and its timing run.
[[nodiscard]] SingleRunOutcome run_single_scenario_cached(
    const CampaignSpec& spec, ScenarioCache* cache,
    ScheduleCache* schedules = nullptr);

}  // namespace nocbt::sim
