#include "sim/scenario_runner.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "accel/accel_config.h"
#include "accel/flitization.h"
#include "accel/platform.h"
#include "common/hash.h"
#include "noc/analytical_engine.h"
#include "noc/crossing_log.h"
#include "noc/network.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"
#include "ordering/strategy.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {

namespace {

/// Every request's flitized payloads, concatenated in request order —
/// request i owns packet_flits[i] consecutive flits — which is the layout
/// noc::CrossingLog::replay charges.
struct PayloadBatch {
  std::vector<BitVec> flits;
  std::vector<std::uint32_t> packet_flits;
};

/// Flitize one request under the given ordering mode: order_pairs gives
/// the transmission order, pack_half_half packs it (weights right, inputs
/// left, no bias — pure traffic). The mode's registered OrderingStrategy
/// supplies the permutation, so every strategy in the registry is
/// sweepable through the campaign grid. The pair order and the permuted
/// windows live in per-thread scratch, so a request allocates only the
/// permutations the strategy returns and its flits.
std::vector<BitVec> build_payloads(const InjectionRequest& req,
                                   const ScenarioSpec& spec,
                                   ordering::OrderingMode mode) {
  thread_local ordering::PairOrder order;
  thread_local std::vector<std::uint32_t> weights;
  thread_local std::vector<std::uint32_t> inputs;
  order = ordering::order_pairs(mode, req.weights, req.inputs, spec.format,
                                std::move(order));
  weights.resize(order.weights.size());
  inputs.resize(order.inputs.size());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = req.weights[order.weights[k]];
    inputs[k] = req.inputs[order.inputs[k]];
  }
  const accel::FlitLayout layout{spec.values_per_flit, value_bits(spec.format)};
  return accel::pack_half_half(inputs, weights, std::nullopt, layout);
}

/// Every request of `requests` flitized under `mode` by build_payloads.
/// `flits` (the schedule's flit count, known from the timing run) sizes
/// the batch up front.
PayloadBatch build_payload_batch(const ScenarioSpec& spec,
                                 const InjectionSchedule& requests,
                                 ordering::OrderingMode mode,
                                 std::size_t flits) {
  PayloadBatch batch;
  batch.flits.reserve(flits);
  batch.packet_flits.reserve(requests.size());
  for (const InjectionRequest& req : requests) {
    std::vector<BitVec> packet = build_payloads(req, spec, mode);
    batch.packet_flits.push_back(static_cast<std::uint32_t>(packet.size()));
    batch.flits.insert(batch.flits.end(),
                       std::make_move_iterator(packet.begin()),
                       std::make_move_iterator(packet.end()));
  }
  return batch;
}

InjectionSchedule generate_schedule(const ScenarioSpec& spec) {
  auto gen = make_generator(spec);
  InjectionSchedule requests;
  while (auto req = gen->next()) requests.push_back(std::move(*req));
  return requests;
}

/// What the network sees of a schedule: every request's (cycle, src, dst,
/// flit count). Payload values and value width do not enter, so the
/// fixed-8 and float-32 schedules of one placed model hash alike.
std::string packet_fingerprint(const ScenarioSpec& spec,
                               const InjectionSchedule& requests) {
  const accel::FlitLayout layout{spec.values_per_flit, value_bits(spec.format)};
  StableHash h;
  for (const InjectionRequest& req : requests) {
    h.add(req.cycle);
    h.add(req.src);
    h.add(req.dst);
    h.add(accel::flits_needed(static_cast<std::uint32_t>(req.weights.size()),
                              false, layout));
  }
  return h.hex();
}

/// Everything one network run yields.
struct VariantOutcome {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t peak_backlog = 0;
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;
  noc::SimProfile sim;   ///< step-loop counters (deterministic)
  double wall_ms = 0.0;  ///< model runs' host wall-clock (nondeterministic)
  std::vector<noc::LinkObservation> links;  ///< frozen per-link counters
};

}  // namespace

std::string schedule_key(const ScenarioSpec& spec) {
  StableHash h;
  h.add(to_string(spec.generator));
  h.add(spec.rows);
  h.add(spec.cols);
  h.add(to_string(spec.format));
  h.add(static_cast<std::uint64_t>(spec.fixed_bits));
  h.add(static_cast<std::uint64_t>(spec.values_per_flit));
  h.add(spec.window);
  h.add(spec.packets);
  h.add(spec.injection_rate);
  h.add(to_string(spec.value_dist));
  h.add(spec.dist_a);
  h.add(spec.dist_b);
  h.add(spec.hotspot_fraction);
  h.add(spec.hotspot_node);
  h.add(spec.burst_len);
  h.add(spec.burst_gap);
  h.add(spec.trace_path);
  h.add(spec.num_mcs);
  h.add(spec.model_seed);
  h.add(spec.model);
  h.add(spec.placement);
  h.add(spec.tiles_per_layer);
  h.add(spec.seed);
  return h.hex();
}

struct SharedSchedule::Timing {
  VariantOutcome o0;  ///< the O0 variant, per-link counters included
  /// Empty when the run hit the stall guard.
  std::shared_ptr<const noc::CrossingLog> log;
  std::string why_not;  ///< analytical rejection reason
  /// SharedSchedule::serial_ of the schedule whose payloads o0 carries.
  std::uint64_t payloads = 0;
};

struct SharedSchedule::TimingSet {
  struct Slot {
    noc::NocConfig noc;  ///< flit_payload_bits zeroed: not compared
    bool engine_auto = true;
    std::uint64_t max_cycles = 0;
    std::shared_future<TimingPtr> timing;
  };
  std::mutex mutex;
  std::vector<Slot> slots;
};

namespace {

/// Drive a synthetic generator's schedule, carrying its O0 payloads,
/// through a fresh network, and log every link's crossings into `log` once
/// the network drains.
VariantOutcome run_traffic_variant(const ScenarioSpec& spec,
                                   const InjectionSchedule& schedule,
                                   noc::CrossingLog& log) {
  noc::Network net(spec.noc_config());
  const std::int32_t nodes = spec.rows * spec.cols;
  for (std::int32_t node = 0; node < nodes; ++node)
    net.set_sink(node, nullptr);  // stats-only sink
  // Request i is injected i-th, so its packet id — the log's packet
  // index — is i.
  noc::CrossingLogBuilder crossings(net.bt().link_count());
  net.set_crossing_log(&crossings);

  std::size_t next_req = 0;
  const auto* pending = next_req < schedule.size() ? &schedule[next_req]
                                                   : nullptr;

  VariantOutcome out;
  // The stall guard counts *active* steps, not the absolute clock: idle
  // gaps in a sparse schedule are skipped via advance_idle, so a bursty or
  // replayed workload with long quiet periods cannot trip it.
  std::uint64_t active_steps = 0;
  while (pending || !net.idle()) {
    if (active_steps > spec.max_cycles) {  // drained stays false
      out.sim = net.stats().sim;
      return out;
    }
    if (pending && pending->cycle > net.cycle() && net.idle()) {
      net.advance_idle(pending->cycle - net.cycle());
    }
    while (pending && pending->cycle <= net.cycle()) {
      // Flitized as injected, so only packets in flight hold payloads.
      net.inject(pending->src, pending->dst,
                 build_payloads(*pending, spec,
                                ordering::OrderingMode::kBaseline));
      ++next_req;
      pending = next_req < schedule.size() ? &schedule[next_req] : nullptr;
    }
    net.step();
    ++active_steps;
    std::uint64_t backlog = 0;
    for (std::int32_t node = 0; node < nodes; ++node)
      backlog += net.injection_backlog(node);
    if (backlog > out.peak_backlog) out.peak_backlog = backlog;
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
  log = std::move(crossings).finish();
  return out;
}

/// Full DNN inference through the accelerator platform (model workloads).
VariantOutcome run_model_variant(const ScenarioSpec& spec,
                                 ordering::OrderingMode mode,
                                 const ModelHooks& hooks, bool want_links) {
  if (!hooks.model || !hooks.input)
    throw std::invalid_argument(
        "run_scenario: model workload needs CampaignSpec::hooks");
  const noc::WallTimer timer;
  accel::AccelConfig cfg = accel::AccelConfig::defaults(
      spec.format, mode, spec.rows, spec.cols, spec.num_mcs);
  cfg.noc.num_vcs = spec.num_vcs;
  cfg.noc.vc_buffer_depth = spec.vc_buffer_depth;
  cfg.noc.engine = spec.engine;
  dnn::Sequential model = hooks.model(spec.model_seed);
  accel::NocDnaPlatform platform(cfg, model);
  accel::InferenceResult result = platform.run(hooks.input(spec.input_seed));

  VariantOutcome out;
  out.bt = result.bt_total;
  out.cycles = result.total_cycles;
  out.packets = result.noc_stats.packets_delivered;
  out.flits = result.noc_stats.flits_delivered;
  out.avg_latency = result.noc_stats.packet_latency.mean();
  out.avg_hops = result.noc_stats.packet_hops.mean();
  out.drained = true;
  out.sim = result.noc_stats.sim;
  if (want_links) out.links = std::move(result.links);
  out.wall_ms = timer.millis();
  return out;
}

/// Evaluate a synthetic schedule, carrying its O0 payloads, through the
/// zero-load analytical backend. Returns true when the result is exact
/// (schedule proven congestion-free) with `out` and `log` filled; false
/// when the schedule is contended or the config unsupported, with
/// `why_not` explaining — the caller then replays the same materialized
/// schedule on a cycle engine.
bool run_analytical_variant(const ScenarioSpec& spec,
                            const InjectionSchedule& schedule,
                            VariantOutcome& out, noc::CrossingLog& log,
                            std::string& why_not) {
  noc::AnalyticalEngine eng(spec.noc_config());
  for (const InjectionRequest& req : schedule)
    eng.inject(req.cycle, req.src, req.dst,
               build_payloads(req, spec, ordering::OrderingMode::kBaseline));
  if (!eng.run()) {
    why_not = eng.contention_detail();
    return false;
  }
  out.bt = eng.bt().total();
  out.cycles = eng.cycle();
  out.packets = eng.stats().packets_delivered;
  out.flits = eng.stats().flits_delivered;
  // Congestion-free means every packet is VC-assigned the cycle it is
  // enqueued, so the cycle engines' post-step backlog samples are all 0.
  out.peak_backlog = 0;
  out.avg_latency = eng.stats().packet_latency.mean();
  out.avg_hops = eng.stats().packet_hops.mean();
  out.drained = true;
  out.sim = eng.stats().sim;
  out.links = eng.bt().snapshot();
  log = eng.crossing_log();
  return true;
}

/// One run of a synthetic schedule carrying its O0 payloads. Under
/// engine=auto (or forced analytical) the analytical backend is tried
/// first; a rejection is recorded in why_not and, under auto, the spec's
/// cycle engine runs instead.
SharedSchedule::TimingPtr run_timing(const ScenarioSpec& spec,
                                     const SharedSchedule& schedule,
                                     std::uint64_t payloads) {
  auto timing = std::make_shared<SharedSchedule::Timing>();
  timing->payloads = payloads;
  noc::CrossingLog log;
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    if (run_analytical_variant(spec, schedule.requests, timing->o0, log,
                               timing->why_not)) {
      timing->log = std::make_shared<const noc::CrossingLog>(std::move(log));
      return timing;
    }
    if (!spec.engine_auto)
      throw std::runtime_error(
          "engine=analytical cannot evaluate this schedule exactly: " +
          timing->why_not +
          " (engine=auto falls back to a cycle engine instead)");
  }
  // Under auto-selection kAnalytical is a policy, not a steppable backend,
  // so the fallback runs active-set.
  ScenarioSpec cyc = spec;
  if (cyc.engine == noc::SimEngine::kAnalytical)
    cyc.engine = noc::SimEngine::kActiveSet;
  timing->o0 = run_traffic_variant(cyc, schedule.requests, log);
  timing->log = std::make_shared<const noc::CrossingLog>(std::move(log));
  return timing;
}

/// `payloads` charged over a drained timing run's crossing log, on a BT
/// recorder sized by `spec`'s own payload width. Everything but the BT and
/// per-link counters is the timing run's. The log's per-packet flit-count
/// check rejects payloads that do not match the run's packets.
VariantOutcome replay(const ScenarioSpec& spec, const PayloadBatch& payloads,
                      const SharedSchedule::Timing& timing) {
  const noc::NocConfig cfg = spec.noc_config();
  noc::BtRecorder bt(cfg.bt_scope, cfg.flit_payload_bits);
  for (const noc::LinkObservation& link : timing.o0.links)
    bt.register_link(link.info);
  timing.log->replay(payloads.flits, payloads.packet_flits, bt);
  VariantOutcome out = timing.o0;
  out.bt = bt.total();
  out.links = bt.snapshot();
  return out;
}

/// The ordered variant of a drained timing run: flitize the schedule under
/// spec.mode and charge it over the timing run's crossing log.
VariantOutcome replay_ordered(const ScenarioSpec& spec,
                              const SharedSchedule& schedule,
                              const SharedSchedule::Timing& timing,
                              ScenarioResult& result) {
  noc::WallTimer timer;
  const PayloadBatch payloads = build_payload_batch(
      spec, schedule.requests, spec.mode, timing.o0.flits);
  result.wall_ms_order = timer.millis();
  timer.restart();
  VariantOutcome out = replay(spec, payloads, timing);
  result.wall_ms_replay += timer.millis();
  return out;
}

/// `schedule`'s own view of a drained run another schedule's payloads
/// made: its O0 payloads replayed over the run's crossing log.
SharedSchedule::TimingPtr replay_baseline(const ScenarioSpec& spec,
                                          const SharedSchedule& schedule,
                                          const SharedSchedule::Timing& run,
                                          std::uint64_t payloads) {
  auto view = std::make_shared<SharedSchedule::Timing>(run);
  view->o0 = replay(spec,
                    build_payload_batch(spec, schedule.requests,
                                        ordering::OrderingMode::kBaseline,
                                        run.o0.flits),
                    run);
  view->payloads = payloads;
  return view;
}

std::atomic<std::uint64_t> next_schedule_serial{1};

}  // namespace

SharedSchedule::SharedSchedule(InjectionSchedule requests, DataFormat format,
                               std::shared_ptr<TimingSet> timings)
    : requests(std::move(requests)),
      format(format),
      timings_(timings ? std::move(timings) : std::make_shared<TimingSet>()),
      serial_(next_schedule_serial.fetch_add(1)) {}

SharedSchedule::TimingPtr SharedSchedule::timing(const ScenarioSpec& spec,
                                                 ScenarioResult& row) const {
  noc::NocConfig noc = spec.noc_config();
  noc.flit_payload_bits = 0;  // sizes only the BT recorder
  std::promise<TimingPtr> mine;
  std::shared_future<TimingPtr> fut;
  row.timing_ran = false;
  {
    const std::lock_guard<std::mutex> lock(timings_->mutex);
    for (const TimingSet::Slot& slot : timings_->slots)
      if (slot.noc == noc && slot.engine_auto == spec.engine_auto &&
          slot.max_cycles == spec.max_cycles)
        fut = slot.timing;
    if (!fut.valid()) {
      row.timing_ran = true;
      fut = mine.get_future().share();
      timings_->slots.push_back(
          TimingSet::Slot{noc, spec.engine_auto, spec.max_cycles, fut});
    }
  }
  if (row.timing_ran) {
    const noc::WallTimer timer;
    try {
      mine.set_value(run_timing(spec, *this, serial_));
    } catch (...) {
      mine.set_exception(std::current_exception());
    }
    row.wall_ms_timing = timer.millis();
  }
  const TimingPtr run = fut.get();  // rethrows a failed run to every sharer
  row.why_not = run->why_not;
  // A stalled run has no log, and its rows carry no payload measurement.
  if (run->payloads == serial_ || !run->o0.drained) return run;

  // The set holds `run` for this schedule's lifetime, so its address
  // names it.
  std::promise<TimingPtr> view;
  bool build = false;
  {
    const std::lock_guard<std::mutex> lock(views_mutex_);
    const auto it =
        std::find_if(views_.begin(), views_.end(),
                     [&](const auto& v) { return v.first == run.get(); });
    build = it == views_.end();
    if (build) {
      fut = view.get_future().share();
      views_.emplace_back(run.get(), fut);
    } else {
      fut = it->second;
    }
  }
  if (build) {
    const noc::WallTimer timer;
    try {
      view.set_value(replay_baseline(spec, *this, *run, serial_));
    } catch (...) {
      view.set_exception(std::current_exception());
    }
    row.wall_ms_replay += timer.millis();
  }
  return fut.get();
}

const SharedSchedule::Derived& SharedSchedule::derived(
    DataFormat format) const {
  if (format != this->format)
    throw std::invalid_argument(
        "SharedSchedule::derived: asked for " + to_string(format) +
        " inputs of a " + to_string(this->format) + " schedule");
  return derived();
}

const SharedSchedule::Derived& SharedSchedule::derived() const {
  std::call_once(once_, [&] {
    Derived d;
    const std::size_t wv =
        requests.empty() ? 0 : requests.front().weights.size();
    if (wv > 0) {
      // order_batch needs every window full except possibly the last, and
      // affiliated pairing needs matching weight/input lengths per request.
      d.uniform = true;
      for (std::size_t i = 0; i < requests.size() && d.uniform; ++i) {
        const InjectionRequest& r = requests[i];
        const bool last = i + 1 == requests.size();
        d.uniform = r.weights.size() == r.inputs.size() &&
                    (last ? !r.weights.empty() && r.weights.size() <= wv
                          : r.weights.size() == wv);
      }
    }
    if (d.uniform) {
      d.window_values = wv;
      std::size_t total = 0;
      for (const InjectionRequest& r : requests) total += r.weights.size();
      d.weights_concat.reserve(total);
      d.inputs_concat.reserve(total);
      for (const InjectionRequest& r : requests) {
        d.weights_concat.insert(d.weights_concat.end(), r.weights.begin(),
                                r.weights.end());
        d.inputs_concat.insert(d.inputs_concat.end(), r.inputs.begin(),
                               r.inputs.end());
      }
      d.weights_bt = ordering::sequence_bt_batch(d.weights_concat, format, wv);
      d.inputs_bt = ordering::sequence_bt_batch(d.inputs_concat, format, wv);
    }
    derived_ = std::move(d);
  });
  return derived_;
}

void ScheduleCache::expect(const std::string& key, std::size_t uses) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[key].remaining = uses;
}

void ScheduleCache::use(std::unordered_map<std::string, Entry>::iterator it) {
  if (it->second.remaining <= 1)
    entries_.erase(it);  // a shared_future keeps the schedule alive
  else
    --it->second.remaining;
}

void ScheduleCache::release(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) use(it);
}

std::shared_ptr<SharedSchedule::TimingSet> ScheduleCache::timing_set(
    const std::string& fingerprint) {
  std::shared_ptr<SharedSchedule::TimingSet> set;
  const auto it =
      std::find_if(recent_sets_.begin(), recent_sets_.end(),
                   [&](const auto& r) { return r.first == fingerprint; });
  if (it != recent_sets_.end()) {
    set = std::move(it->second);
    recent_sets_.erase(it);
  } else {
    set = std::make_shared<SharedSchedule::TimingSet>();
    if (recent_sets_.size() >= timing_sets_)
      recent_sets_.erase(recent_sets_.begin());  // the least recent
  }
  recent_sets_.emplace_back(fingerprint, set);
  return set;
}

SharedSchedulePtr ScheduleCache::get(const ScenarioSpec& spec) {
  const std::string key = schedule_key(spec);
  std::promise<SharedSchedulePtr> mine;
  std::shared_future<SharedSchedulePtr> fut;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (max_entries_ > 0 && entries_.size() >= max_entries_)
        entries_.erase(std::min_element(
            entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
              return a.second.last_use < b.second.last_use;
            }));
      it = entries_.emplace(key, Entry{{}, uses_per_key_, 0}).first;
    }
    it->second.last_use = ++clock_;
    if (!it->second.future.valid()) {
      owner = true;
      it->second.future = mine.get_future().share();
    }
    fut = it->second.future;
  }
  if (owner) {
    try {
      InjectionSchedule requests = generate_schedule(spec);
      const std::string fingerprint = packet_fingerprint(spec, requests);
      std::shared_ptr<SharedSchedule::TimingSet> timings;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        timings = timing_set(fingerprint);
      }
      mine.set_value(std::make_shared<const SharedSchedule>(
          std::move(requests), spec.format, std::move(timings)));
    } catch (...) {
      mine.set_exception(std::current_exception());
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) use(it);
  }
  return fut.get();  // rethrows a materialization failure to every sharer
}

ScenarioResult run_scenario_shared(const ScenarioSpec& spec,
                                   const ModelHooks& hooks,
                                   ScheduleCache* schedules) {
  ScenarioResult result;
  result.spec = spec;
  result.kernel_tier = ordering::active_kernel_backend().name();
  try {
    spec.validate();
    const bool baseline_is_ordered =
        spec.mode == ordering::OrderingMode::kBaseline;
    // Model workloads inject reactively and always need a cycle engine
    // (validate() rejects forcing analytical on them): both variants run.
    // Every other workload materializes its pre-ordering schedule once —
    // with a cache, once per traffic stream — and scores its ordered
    // variant over the stream's timing run.
    VariantOutcome baseline;
    VariantOutcome ordered;
    if (spec.generator == GeneratorKind::kModel) {
      ScenarioSpec cyc = spec;
      if (cyc.engine == noc::SimEngine::kAnalytical)
        cyc.engine = noc::SimEngine::kActiveSet;
      // Per-link rows come from the ordered run only, so the baseline
      // variant skips the snapshot — unless it *is* the ordered run.
      baseline = run_model_variant(cyc, ordering::OrderingMode::kBaseline,
                                   hooks, baseline_is_ordered);
      ordered = baseline_is_ordered
                    ? baseline
                    : run_model_variant(cyc, spec.mode, hooks, true);
      result.timing_ran = true;
      result.wall_ms_baseline = baseline.wall_ms;
      result.wall_ms_ordered = ordered.wall_ms;
    } else {
      const SharedSchedulePtr schedule =
          schedules ? schedules->get(spec)
                    : std::make_shared<const SharedSchedule>(
                          generate_schedule(spec), spec.format);
      const SharedSchedule::TimingPtr timing = schedule->timing(spec, result);
      // timing() charges the O0 replay it made, if any, to wall_ms_replay.
      const double baseline_replay_ms = result.wall_ms_replay;
      baseline = timing->o0;
      // A stalled timing run has no crossing log; its ordered variant
      // stalls identically.
      ordered = baseline_is_ordered || !timing->o0.drained
                    ? timing->o0
                    : replay_ordered(spec, *schedule, *timing, result);
      result.wall_ms_baseline = result.wall_ms_timing + baseline_replay_ms;
      result.wall_ms_ordered =
          result.wall_ms_order + result.wall_ms_replay - baseline_replay_ms;
    }
    result.bt_baseline = baseline.bt;
    result.bt_ordered = ordered.bt;
    result.reduction =
        baseline.bt > 0 ? 1.0 - static_cast<double>(ordered.bt) /
                                    static_cast<double>(baseline.bt)
                        : 0.0;
    const hw::EnergyModel energy(hw::EnergyModelConfig{
        spec.energy_per_transition_pj, spec.frequency_mhz});
    result.energy_baseline_pj = energy.energy_pj(baseline.bt);
    result.energy_pj = energy.energy_pj(ordered.bt);
    result.power_baseline_mw = energy.power_mw(baseline.bt, baseline.cycles);
    result.power_mw = energy.power_mw(ordered.bt, ordered.cycles);
    result.links = energy.annotate(ordered.links);
    result.cycles = ordered.cycles;
    result.packets = ordered.packets;
    result.flits = ordered.flits;
    result.peak_backlog = ordered.peak_backlog;
    result.avg_latency = ordered.avg_latency;
    result.avg_hops = ordered.avg_hops;
    result.drained = baseline.drained && ordered.drained;
    result.sim = ordered.sim;
    if (!result.drained)
      result.error = "scenario '" + spec.name +
                     "' hit the max_cycles stall guard (" +
                     std::to_string(spec.max_cycles) +
                     " active cycles) before draining";
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const ModelHooks& hooks) {
  return run_scenario_shared(spec, hooks, nullptr);
}

ScenarioResult run_single_scenario(const CampaignSpec& spec) {
  return run_single_scenario_cached(spec, nullptr).row;
}

SingleRunOutcome run_single_scenario_cached(const CampaignSpec& spec,
                                            ScenarioCache* cache,
                                            ScheduleCache* schedules) {
  const std::vector<ScenarioSpec> scenarios = spec.expand();
  if (scenarios.size() != 1)
    throw std::invalid_argument(
        "run_single_scenario: campaign '" + spec.name + "' expands to " +
        std::to_string(scenarios.size()) +
        " scenarios (every grid axis must hold exactly one value and "
        "replicates must be 1)");
  const ScenarioSpec& scenario = scenarios.front();

  SingleRunOutcome out;
  if (cache) {
    const ContentKey key = scenario_content_key(scenario, spec.hooks.id);
    if (key.cacheable) {
      out.content_hash = key.hash;
      if (auto cached = cache->lookup(scenario, key.hash)) {
        out.row = std::move(*cached);
        out.cache_hit = true;
        return out;
      }
      out.row = run_scenario_shared(scenario, spec.hooks, schedules);
      cache->store(key.hash, out.row);
      return out;
    }
  }
  out.row = run_scenario_shared(scenario, spec.hooks, schedules);
  return out;
}

}  // namespace nocbt::sim
