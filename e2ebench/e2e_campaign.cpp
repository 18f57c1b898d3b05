// e2e_campaign: workload program of the end-to-end campaign benchmark.
//
//   e2e_campaign --workload placed_models|window_sweep|coopt_shared_cache
//                --seed N --seconds S --work-dir DIR
//                [--trace] [--setup-only] [--tiny] [--corrupt-row]
//
// Normally driven by run.py in this directory, which builds this binary,
// measures set-up time over several --setup-only launches and prints the
// benchmark's result line. Every workload drives the public library API
// from this one process with threads=1, closed loop: the next row starts
// only after the previous one returned.
//
// Untraced (default): repeated cold passes of the workload for --seconds
// (at least two, so the pass-to-pass determinism check has a pair; the
// first only warms the process up and is not timed). Prints the end-to-end
// metrics: rows per host second over the timed passes, per-row host time
// p50 and tail (per-row means over the timed passes), peak RSS, the share
// of O0 link BT that ordering keeps, the best power the rows measured, and
// the share of rows that passed every output check.
//
// --trace: alternates an untraced production pass with a traced replay of
// the same rows. The replay re-drives each row through the calls the
// campaign runner makes (ScheduleCache::get / SharedSchedule::derived,
// OrderingStrategy::order_batch, accel::pack_half_half,
// noc::AnalyticalEngine, noc::Network, hw::EnergyModel, and for the search
// workload ScenarioCache::lookup/store), each call wrapped in a span whose
// parent is the row span. Spans stay in memory and are folded into the
// per-layer metrics when the run ends; a layer's self time is its spans'
// duration minus the time their child spans cover.
//
// Output checks (a row that fails any of them counts in `failed`):
//   * the row carries an error or did not drain;
//   * its deterministic fields differ between two passes of the run;
//   * its bt_baseline or cycles differ from another mode row of the same
//     grid point (timing and the O0 baseline do not depend on the mode);
//   * the traced replay's BT, cycles or power differ from the production
//     row;
//   * (search workload) a point served by the cache differs from the row
//     an earlier search simulated for it, or a search's evaluator counters
//     disagree with the evaluate() calls it made (counted per search).
// --corrupt-row perturbs one production row so a self-test can prove that
// these checks fail when they should.
//
// The last stdout line is one JSON object: workload, attempted, failed and
// the metrics; lines before it record the run environment (kernel tier,
// nproc, build type) and a digest of every deterministic row field, so a
// speed-only change can show its simulated statistics stayed identical.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/flitization.h"
#include "common/hash.h"
#include "hw/energy_model.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "opt/coopt.h"
#include "opt/evaluator.h"
#include "opt/search_space.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"
#include "place/policy.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

using namespace nocbt;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;
  bool trace = false;
  bool setup_only = false;
  bool tiny = false;
  bool corrupt_row = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::stoull(next());
    else if (arg == "--seconds") a.seconds = std::stod(next());
    else if (arg == "--work-dir") a.work_dir = next();
    else if (arg == "--trace") a.trace = true;
    else if (arg == "--setup-only") a.setup_only = true;
    else if (arg == "--tiny") a.tiny = true;
    else if (arg == "--corrupt-row") a.corrupt_row = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  return a;
}

/// SplitMix64 finalizer: derives independent library seeds from the one
/// benchmark seed, so the library only ever sees generated inputs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

const char* const kModes = "O1,O2,chain,hybrid,twoflit";

struct Workload {
  std::string name;
  /// Campaign workloads: the sweeps one pass runs, in order.
  std::vector<sim::CampaignSpec> campaigns;
  /// Search workload: the template, its space and one config per search.
  bool search = false;
  sim::CampaignSpec search_base;
  opt::SearchSpace space;
  std::vector<opt::CoOptConfig> searches;
};

Workload make_workload(const Args& a) {
  Workload w;
  w.name = a.workload;
  const std::uint64_t root_seed = mix_seed(a.seed, 1);
  const std::uint64_t model_seed = mix_seed(a.seed, 2);
  const std::vector<DataFormat> formats{DataFormat::kFixed8,
                                        DataFormat::kFloat32};
  if (a.workload == "placed_models") {
    // The paper's workload (LeNet/DarkNet on a NoC): zoo DNNs placed on an
    // 8x8 mesh with 4 memory controllers, so traffic is real MC->PE /
    // PE->PE flows. The cycle engine dominates the row (~70% of traced row
    // time when this benchmark was defined, ordering ~20%, flitize ~3%);
    // the analytical attempt is never exact here, so it is pure waste. The
    // darknet/resnet rows are the tail. `model` is not a grid axis, hence
    // one campaign per model. O0 is not a mode row: every row simulates its
    // own O0 baseline.
    const std::vector<std::string> models =
        a.tiny ? std::vector<std::string>{"lenet"}
               : std::vector<std::string>{"lenet", "darknet", "resnet",
                                          "mobile", "attention"};
    for (const std::string& model : models) {
      sim::CampaignSpec c;
      c.name = "placed_" + model;
      c.root_seed = root_seed;
      c.generators = {sim::GeneratorKind::kPlacement};
      c.meshes = {sim::parse_mesh_spec("8x8mc4")};
      c.modes = ordering::parse_ordering_mode_list(a.tiny ? "O1,twoflit"
                                                          : kModes);
      c.windows = {64};
      c.formats = formats;
      c.base.model = model;
      c.base.tiles_per_layer = 8;
      c.base.model_seed = model_seed;
      w.campaigns.push_back(std::move(c));
    }
  } else if (a.workload == "window_sweep") {
    // Sparse synthetic traffic with long windows: ordering dominates the
    // row (~85% of traced row time), the analytical engine proves ~90% of
    // the schedules congestion-free and the cycle engine runs the rest.
    // The one workload where the analytical success path and the
    // strategy/kernel layers carry the row. Whether a schedule is
    // contended varies with the seed, and a contended grid point costs its
    // rows a cycle-engine run each; the low rate and eight replicates keep
    // that from moving rows/s and the row percentiles from seed to seed
    // (at rate 0.002 with two replicates they moved by 10-20%).
    sim::CampaignSpec c;
    c.name = "window_sweep";
    c.root_seed = root_seed;
    c.generators = {sim::GeneratorKind::kUniform};
    c.meshes = {sim::parse_mesh_spec("4x4")};
    c.modes = ordering::parse_ordering_mode_list(kModes);
    c.windows = a.tiny ? std::vector<std::uint32_t>{128}
                       : std::vector<std::uint32_t>{128, 256, 512};
    c.replicates = a.tiny ? 1 : 8;
    c.formats = formats;
    c.base.injection_rate = 0.0002;
    c.base.packets = a.tiny ? 32 : 128;
    c.base.value_dist = sim::ValueDist::kLaplace;
    c.base.dist_a = 0.0;
    c.base.dist_b = 0.2;
    w.campaigns.push_back(std::move(c));
  } else if (a.workload == "coopt_shared_cache") {
    // Eight annealing searches through one shared on-disk scenario cache:
    // the only workload where the cache both writes and reads and where
    // the Evaluator memo runs (the campaign workloads run cache-off).
    // Later searches are served rows the earlier ones stored. The anneal
    // seeds stay 1-8 whatever the benchmark seed: they choose the search
    // trajectories, i.e. how many rows a pass simulates, and drawing them
    // from the benchmark seed moved rows/s by +-20% between seeds. The
    // benchmark seed still feeds the model weights and payload values the
    // searches score.
    w.search = true;
    sim::CampaignSpec& b = w.search_base;
    b.name = "coopt_shared_cache";
    b.root_seed = root_seed;
    b.generators = {sim::GeneratorKind::kPlacement};
    b.meshes = {sim::parse_mesh_spec("8x8mc4")};
    b.modes = ordering::all_ordering_modes();
    b.windows = {32, 64};
    b.formats = formats;
    b.base.model = a.tiny ? "lenet" : "mobile";
    b.base.tiles_per_layer = 8;
    b.base.model_seed = model_seed;
    w.space = opt::SearchSpace::from_campaign(b, place::registered_policy_names());
    const int searches = a.tiny ? 2 : 8;
    for (int i = 0; i < searches; ++i) {
      opt::CoOptConfig cfg;
      cfg.optimizer = "anneal";
      cfg.seed = static_cast<std::uint64_t>(i) + 1;
      cfg.max_evals = a.tiny ? 4 : 40;
      w.searches.push_back(cfg);
    }
  } else {
    throw std::invalid_argument(
        "unknown workload '" + a.workload +
        "' (placed_models, window_sweep, coopt_shared_cache)");
  }
  for (const sim::CampaignSpec& c : w.campaigns)
    for (const sim::ScenarioSpec& s : c.expand()) s.validate();
  return w;
}

// ---------------------------------------------------------------------------
// Production passes (untraced)

/// One search's outcome plus the rows it obtained, in evaluation order.
struct SearchRun {
  opt::CoOptResult result;
  std::vector<opt::Candidate> sequence;  ///< every evaluate() call, in order
  std::size_t lookups = 0;
  std::size_t simulated = 0;
  std::size_t shared_hits = 0;
};

struct Pass {
  /// Rows obtained (campaign grid order; for searches, each search's
  /// first visits in evaluation order). Simulated or served by the cache.
  std::vector<sim::ScenarioResult> rows;
  std::size_t row_count = 0;  ///< rows.size(), kept after rows are released
  /// Host ms per timed row (campaign: from on_result timestamps; search:
  /// per simulated row, from Evaluator::on_measure timestamps).
  std::vector<double> row_ms;
  double seconds = 0.0;
  std::vector<sim::CampaignResult> campaigns;
  std::vector<SearchRun> searches;
};

/// The evaluate() sequence run_coopt performs: the baseline mode sweep,
/// then one call per search step, then the winner.
std::vector<opt::Candidate> search_sequence(const opt::SearchSpace& space,
                                            const opt::CoOptResult& r) {
  std::vector<opt::Candidate> seq;
  for (const ordering::OrderingMode mode : space.modes) {
    opt::Candidate c;
    c.placement = space.placements.front();
    c.mode = mode;
    c.window = space.windows.front();
    c.format = space.formats.front();
    seq.push_back(c);
  }
  for (const opt::StepRecord& s : r.steps) seq.push_back(s.candidate);
  seq.push_back(r.best);
  return seq;
}

void wipe_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Pass run_pass(const Workload& w, const std::string& cache_dir) {
  Pass p;
  const auto start = Clock::now();
  if (!w.search) {
    for (const sim::CampaignSpec& camp : w.campaigns) {
      sim::RunnerConfig rc;
      rc.threads = 1;
      auto last = Clock::now();
      rc.on_result = [&](const sim::ScenarioResult&, std::size_t,
                         std::size_t) {
        const auto now = Clock::now();
        p.row_ms.push_back(ms_between(last, now));
        last = now;
      };
      sim::CampaignResult res = sim::run_campaign(camp, rc);
      p.rows.insert(p.rows.end(), res.rows.begin(), res.rows.end());
      p.campaigns.push_back(std::move(res));
    }
  } else {
    wipe_dir(cache_dir);
    auto cache = std::make_shared<sim::ScenarioCache>(cache_dir);
    for (const opt::CoOptConfig& cfg : w.searches) {
      opt::Evaluator eval(w.search_base, cache);
      auto last = Clock::now();
      eval.on_measure = [&](const opt::Candidate&, const std::string&,
                            const sim::ScenarioResult&) {
        const auto now = Clock::now();
        p.row_ms.push_back(ms_between(last, now));
        last = now;
      };
      SearchRun run;
      run.result = opt::run_coopt(eval, w.space, cfg);
      run.lookups = eval.lookups();
      run.simulated = eval.runs();
      run.shared_hits = eval.shared_hits();
      run.sequence = search_sequence(w.space, run.result);
      std::set<std::string> seen;
      for (const opt::Candidate& c : run.sequence)
        if (seen.insert(opt::to_string(c)).second)
          p.rows.push_back(eval.evaluate(c));  // memo hit: no simulation
      p.searches.push_back(std::move(run));
    }
  }
  p.seconds = ms_between(start, Clock::now()) / 1e3;
  p.row_count = p.rows.size();
  return p;
}

// ---------------------------------------------------------------------------
// Output checks

/// Every deterministic field of a row (the persisted record format, which
/// omits wall-clock) plus its identity.
std::string row_record(const sim::ScenarioResult& r) {
  return r.spec.name + "|" + r.spec.model + "|" + r.spec.placement + "|" +
         sim::encode_result_record("", 0, r);
}

/// Rows of one traffic stream: every mode row of a grid point shares it.
std::string grid_key(const sim::ScenarioSpec& s) {
  return sim::to_string(s.generator) + "|" + s.model + "|" + s.placement +
         "|" + to_string(s.format) + "|" + std::to_string(s.window) + "|" +
         std::to_string(s.seed) + "|" + std::to_string(s.rows) + "x" +
         std::to_string(s.cols) + "|" + std::to_string(s.packets);
}

class Checker {
 public:
  /// Per-pass checks; `reference` is the run's first pass (null for it).
  void check_pass(const Pass& p, const Pass* reference) {
    std::vector<bool> bad(p.rows.size(), false);
    std::map<std::string, std::size_t> first_of_grid;
    std::map<std::string, std::size_t> first_of_point;
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
      const sim::ScenarioResult& r = p.rows[i];
      if (!r.error.empty() || !r.drained)
        flag(bad, i, r.spec.name + ": error='" + r.error + "' drained=" +
                         (r.drained ? "true" : "false"));
      const auto [it, fresh] = first_of_grid.emplace(grid_key(r.spec), i);
      if (!fresh) {
        const sim::ScenarioResult& o = p.rows[it->second];
        if (o.bt_baseline != r.bt_baseline || o.cycles != r.cycles)
          flag(bad, i, r.spec.name + ": bt_baseline/cycles " +
                           std::to_string(r.bt_baseline) + "/" +
                           std::to_string(r.cycles) + " differ from " +
                           o.spec.name + " " + std::to_string(o.bt_baseline) +
                           "/" + std::to_string(o.cycles));
      }
      // A search revisiting a point another search simulated is served
      // that row by the cache; it must be the same row.
      const auto [pt, new_point] = first_of_point.emplace(
          r.spec.name + "|" + r.spec.model + "|" + r.spec.placement, i);
      if (!new_point && row_record(p.rows[pt->second]) != row_record(r))
        flag(bad, i, r.spec.name + ": differs from the earlier row of the "
                                   "same point");
      if (reference != nullptr &&
          (i >= reference->rows.size() ||
           row_record(reference->rows[i]) != row_record(r)))
        flag(bad, i, r.spec.name + ": deterministic fields differ between "
                                   "two passes");
    }
    for (std::size_t s = 0; s < p.searches.size(); ++s) {
      const SearchRun& run = p.searches[s];
      std::set<std::string> unique;
      for (const opt::Candidate& c : run.sequence)
        unique.insert(opt::to_string(c));
      ++attempted_;
      if (run.lookups != run.sequence.size() ||
          run.simulated + run.shared_hits != unique.size())
        fail("search " + std::to_string(s) + ": evaluator counted " +
             std::to_string(run.lookups) + " lookups / " +
             std::to_string(run.simulated + run.shared_hits) +
             " rows, the searches made " + std::to_string(run.sequence.size()) +
             " / " + std::to_string(unique.size()));
    }
    attempted_ += p.rows.size();
    for (const bool b : bad) failed_ += b ? 1 : 0;
  }

  /// A traced replay (of a row, or of a search's counters) that disagrees
  /// with production, or one that agrees.
  void replay_mismatch(const std::string& what) {
    attempted_ += 1;
    fail(what);
  }
  void replay_ok() { attempted_ += 1; }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  void fail(const std::string& why) {
    ++failed_;
    note(why);
  }
  void flag(std::vector<bool>& bad, std::size_t i, const std::string& why) {
    bad[i] = true;
    note(why);
  }
  void note(const std::string& why) {
    if (notes_++ < 10) std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t notes_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  int open(const std::string& name) {
    spans_.push_back(Span{name, current_, Clock::now(), {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
    return ms_between(spans_[static_cast<std::size_t>(id)].start,
                      spans_[static_cast<std::size_t>(id)].end);
  }

  void count(const std::string& name, double v) { counts_[name] += v; }
  [[nodiscard]] double counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  /// Self and total time per span name, plus the time child spans cover
  /// inside the "row" spans (stage coverage of row time).
  struct Folded {
    std::map<std::string, double> self_ms;
    std::map<std::string, double> total_ms;
    double covered_ms = 0.0;  ///< child time inside "row" spans
  };
  [[nodiscard]] Folded fold() const {
    Folded f;
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ms[static_cast<std::size_t>(s.parent)] +=
            ms_between(s.start, s.end);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double dur = ms_between(spans_[i].start, spans_[i].end);
      f.self_ms[spans_[i].name] += dur - child_ms[i];
      f.total_ms[spans_[i].name] += dur;
      if (spans_[i].name == "row") f.covered_ms += child_ms[i];
    }
    return f;
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Close early; returns the span's duration in ms.
  double close() {
    const double ms = t_.close(id_);
    id_ = -1;
    return ms;
  }

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Traced replay of one row (the synthetic-generator path of the runner)

struct ReplayVariant {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::vector<noc::LinkObservation> links;
};

using Payloads = std::vector<std::vector<BitVec>>;

/// Order and flitize every request of the schedule for `mode`, exactly as
/// the runner does: one order_batch pass per stream when the windows are
/// uniform, per-request order() otherwise.
Payloads replay_payloads(Tracer& t, const sim::SharedSchedule& sched,
                         const sim::ScenarioSpec& spec,
                         ordering::OrderingMode mode) {
  const auto& reqs = sched.requests;
  const DataFormat format = spec.format;
  // Reordered windows per request; left empty for O0, which packs the
  // requests in arrival order.
  std::vector<std::vector<std::uint32_t>> weights;
  std::vector<std::vector<std::uint32_t>> inputs;
  if (!ordering::mode_is_baseline(mode) && !reqs.empty()) {
    weights.resize(reqs.size());
    inputs.resize(reqs.size());
    const sim::SharedSchedule::Derived* d = nullptr;
    {
      ScopedSpan s(t, "sim.schedule_cache");
      d = &sched.derived(format);
    }
    ScopedSpan s(t, "ordering");
    const ordering::OrderingStrategy& strategy = ordering::mode_strategy(mode);
    const bool separated = ordering::mode_is_separated(mode);
    if (d->uniform) {
      const auto w_flat = strategy.order_batch(d->weights_concat, format,
                                               d->window_values, d->weights_bt);
      const auto in_flat =
          separated ? strategy.order_batch(d->inputs_concat, format,
                                           d->window_values, d->inputs_bt)
                    : std::vector<std::uint32_t>{};
      t.count("ordering.values",
              static_cast<double>(d->weights_concat.size() +
                                  (separated ? d->inputs_concat.size() : 0)));
      std::size_t start = 0;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::size_t len = reqs[i].weights.size();
        const std::uint32_t* w_perm = w_flat.data() + start;
        const std::uint32_t* in_perm =
            (separated ? in_flat.data() : w_flat.data()) + start;
        weights[i].resize(len);
        inputs[i].resize(len);
        for (std::size_t k = 0; k < len; ++k) {
          weights[i][k] = reqs[i].weights[w_perm[k]];
          inputs[i][k] = reqs[i].inputs[in_perm[k]];
        }
        start += len;
      }
    } else {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::span<const std::uint32_t> w(reqs[i].weights);
        const std::span<const std::uint32_t> in(reqs[i].inputs);
        const auto w_perm = strategy.order(w, format);
        const auto in_perm = separated ? strategy.order(in, format) : w_perm;
        weights[i] = ordering::apply_permutation(
            w, std::span<const std::uint32_t>(w_perm));
        inputs[i] = ordering::apply_permutation(
            in, std::span<const std::uint32_t>(in_perm));
        t.count("ordering.values",
                static_cast<double>(w.size() + (separated ? in.size() : 0)));
      }
    }
  }
  ScopedSpan s(t, "accel.flitize");
  const accel::FlitLayout layout{spec.values_per_flit, value_bits(format)};
  Payloads payloads;
  payloads.reserve(reqs.size());
  double flits = 0.0;
  const bool reordered = !weights.empty();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    payloads.push_back(accel::pack_half_half(
        reordered ? inputs[i] : reqs[i].inputs,
        reordered ? weights[i] : reqs[i].weights, std::nullopt, layout));
    flits += static_cast<double>(payloads.back().size());
  }
  t.count("accel.flitize.flits", flits);
  return payloads;
}

ReplayVariant replay_variant(Tracer& t, const sim::SharedSchedule& sched,
                             const sim::ScenarioSpec& spec,
                             ordering::OrderingMode mode, bool want_links) {
  Payloads payloads = replay_payloads(t, sched, spec, mode);
  const auto& reqs = sched.requests;
  ReplayVariant out;
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    ScopedSpan s(t, "noc.analytical");
    noc::AnalyticalEngine eng(spec.noc_config());
    for (std::size_t i = 0; i < reqs.size(); ++i)
      eng.inject(reqs[i].cycle, reqs[i].src, reqs[i].dst, payloads[i]);
    const bool exact = eng.run();
    t.count("noc.analytical.attempts", 1);
    if (exact) {
      t.count("noc.analytical.exact", 1);
      out.bt = eng.bt().total();
      out.cycles = eng.cycle();
      if (want_links) out.links = eng.bt().snapshot();
      return out;
    }
    t.count("noc.analytical.wasted_ms", s.close());
  }
  ScopedSpan s(t, "noc.cycle");
  sim::ScenarioSpec cyc = spec;
  if (cyc.engine == noc::SimEngine::kAnalytical)
    cyc.engine = noc::SimEngine::kActiveSet;
  noc::Network net(cyc.noc_config());
  const std::int32_t nodes = spec.rows * spec.cols;
  for (std::int32_t node = 0; node < nodes; ++node) net.set_sink(node, nullptr);
  std::size_t next = 0;
  std::uint64_t active_steps = 0;
  std::uint64_t peak_backlog = 0;
  while (next < reqs.size() || !net.idle()) {
    if (active_steps > spec.max_cycles)
      throw std::runtime_error(spec.name + ": replay hit the stall guard");
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
    peak_backlog = std::max(peak_backlog, backlog);
  }
  out.bt = net.bt().total();
  out.cycles = net.cycle();
  if (want_links) out.links = net.bt().snapshot();
  t.count("noc.cycle.runs", 1);
  t.count("noc.cycle.component_steps",
          static_cast<double>(net.stats().sim.components_stepped));
  return out;
}

/// Fingerprint of the spec fields the bench's generators read, for telling
/// a schedule materialization (traffic generation) from a shared get.
std::string schedule_identity(const sim::ScenarioSpec& s) {
  return grid_key(s) + "|" + std::to_string(s.model_seed) + "|" +
         std::to_string(s.injection_rate) + "|" +
         std::to_string(s.tiles_per_layer);
}

/// Re-drive one row through the runner's calls under spans, then compare
/// its BT and cycles with the production row.
void replay_row(Tracer& t, sim::ScheduleCache& schedules,
                std::set<std::string>& materialized,
                const sim::ScenarioSpec& spec,
                const sim::ScenarioResult& production, Checker& checker) {
  spec.validate();
  sim::SharedSchedulePtr sched;
  {
    const bool first = materialized.insert(schedule_identity(spec)).second;
    ScopedSpan s(t, first ? "traffic_gen" : "sim.schedule_cache");
    sched = schedules.get(spec);
    if (first) {
      t.count("sim.schedule_cache.materializations", 1);
      t.count("traffic_gen.requests",
              static_cast<double>(sched->requests.size()));
    }
  }
  const bool baseline_only = ordering::mode_is_baseline(spec.mode);
  const ReplayVariant baseline = replay_variant(
      t, *sched, spec, ordering::OrderingMode::kBaseline, baseline_only);
  const ReplayVariant ordered =
      baseline_only ? baseline
                    : replay_variant(t, *sched, spec, spec.mode, true);
  double power_mw = 0.0;
  {
    ScopedSpan s(t, "hw.energy");
    const hw::EnergyModel energy(hw::EnergyModelConfig{
        spec.energy_per_transition_pj, spec.frequency_mhz});
    // The runner's energy stage: both variants' energy and power plus the
    // per-link annotation of the ordered run.
    power_mw = energy.power_mw(ordered.bt, ordered.cycles);
    static_cast<void>(energy.energy_pj(baseline.bt));
    static_cast<void>(energy.energy_pj(ordered.bt));
    static_cast<void>(energy.power_mw(baseline.bt, baseline.cycles));
    static_cast<void>(energy.annotate(ordered.links));
  }
  t.count("rows", 1);
  if (baseline.bt != production.bt_baseline ||
      ordered.bt != production.bt_ordered ||
      ordered.cycles != production.cycles || power_mw != production.power_mw)
    checker.replay_mismatch(
        spec.name + ": traced replay BT " + std::to_string(baseline.bt) + "/" +
        std::to_string(ordered.bt) + " cycles " +
        std::to_string(ordered.cycles) + " power " + std::to_string(power_mw) +
        " mW vs production " + std::to_string(production.bt_baseline) + "/" +
        std::to_string(production.bt_ordered) + " cycles " +
        std::to_string(production.cycles) + " power " +
        std::to_string(production.power_mw) + " mW");
  else
    checker.replay_ok();
}

/// Traced replay of a whole production pass. Returns its wall seconds.
double replay_pass(Tracer& t, const Workload& w, const Pass& prod,
                   const std::string& cache_dir, Checker& checker) {
  const auto start = Clock::now();
  ScopedSpan pass_span(t, "pass");
  if (!w.search) {
    std::size_t row = 0;
    for (std::size_t c = 0; c < w.campaigns.size(); ++c) {
      const sim::CampaignSpec& camp = w.campaigns[c];
      sim::ScheduleCache schedules(camp.modes.size());
      std::set<std::string> materialized;
      for (const sim::ScenarioSpec& spec : camp.expand()) {
        ScopedSpan s(t, "row");
        replay_row(t, schedules, materialized, spec, prod.rows.at(row++),
                   checker);
      }
      ScopedSpan s(t, "sim.report");
      static_cast<void>(sim::json_report(camp, prod.campaigns[c]));
    }
  } else {
    wipe_dir(cache_dir);
    sim::ScenarioCache cache(cache_dir);
    const opt::Evaluator templ(w.search_base);
    std::size_t row = 0;
    for (const SearchRun& run : prod.searches) {
      // Mirrors opt::Evaluator::evaluate: memo, then the shared cache,
      // then simulate and store.
      sim::ScheduleCache schedules(std::numeric_limits<std::size_t>::max());
      std::set<std::string> materialized;
      std::set<std::string> memo;
      std::size_t simulated = 0;
      std::size_t shared_hits = 0;
      for (const opt::Candidate& c : run.sequence) {
        t.count("opt.evaluator.lookups", 1);
        if (!memo.insert(opt::to_string(c)).second) {
          t.count("opt.evaluator.memo_hits", 1);
          continue;
        }
        const sim::ScenarioResult& production = prod.rows.at(row++);
        ScopedSpan s(t, "row");
        sim::ContentKey key;
        std::optional<sim::ScenarioResult> hit;
        sim::ScenarioSpec spec;
        {
          ScopedSpan l(t, "sim.scenario_cache.lookup");
          spec = templ.campaign_for(c).expand().front();
          key = sim::scenario_content_key(spec, "");
          hit = cache.lookup(spec, key.hash);
        }
        t.count("sim.scenario_cache.lookups", 1);
        if (hit) {
          ++shared_hits;
          t.count("sim.scenario_cache.hits", 1);
          t.count("rows", 1);
          if (row_record(*hit) != row_record(production))
            checker.replay_mismatch(spec.name + ": cache-served row differs");
          else
            checker.replay_ok();
          continue;
        }
        ++simulated;
        replay_row(t, schedules, materialized, spec, production, checker);
        ScopedSpan st(t, "sim.scenario_cache.store");
        cache.store(key.hash, production);
        t.count("sim.scenario_cache.stores", 1);
      }
      t.count("opt.evaluator.simulated", static_cast<double>(simulated));
      t.count("opt.evaluator.shared_hits", static_cast<double>(shared_hits));
      if (simulated != run.simulated || shared_hits != run.shared_hits)
        checker.replay_mismatch("search replay simulated/shared " +
                     std::to_string(simulated) + "/" +
                     std::to_string(shared_hits) + " vs evaluator " +
                     std::to_string(run.simulated) + "/" +
                     std::to_string(run.shared_hits));
      ScopedSpan s(t, "sim.report");
      static_cast<void>(opt::coopt_report(run.result));
    }
  }
  pass_span.close();
  return ms_between(start, Clock::now()) / 1e3;
}

// ---------------------------------------------------------------------------
// Metrics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile of sorted data.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double pos = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

class MetricLine {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string digest(const Pass& p) {
  StableHash h;
  for (const sim::ScenarioResult& r : p.rows) h.add(row_record(r));
  for (const SearchRun& s : p.searches) {
    h.add(opt::to_string(s.result.best));
    h.add(s.result.best_power_mw);
  }
  return h.hex();
}

void end_to_end_metrics(const Workload& w, const std::vector<Pass>& passes,
                        const Checker& checker, MetricLine& m) {
  // The first pass warms the process up (allocator growth, page faults);
  // it is checked but not timed. Every later pass is as cold as the
  // first: each one builds fresh schedule caches and a wiped scenario
  // cache.
  const std::span<const Pass> timed(passes.data() + 1, passes.size() - 1);
  double rows = 0.0;
  double seconds = 0.0;
  std::printf("rows/s per timed pass:");
  for (const Pass& p : timed) {
    rows += static_cast<double>(p.row_count);
    seconds += p.seconds;
    std::printf(" %.3f", static_cast<double>(p.row_count) / p.seconds);
  }
  std::printf("\n");
  // Per-row host time: each row's mean over the timed passes, so the
  // sample count (rows per pass) is fixed whatever the number of passes.
  // The host alternates between fast and slow phases lasting seconds; a
  // mean moves smoothly with the share of time spent in each, where a
  // median of few passes jumps between the two.
  const std::size_t n = timed.front().row_ms.size();
  std::vector<double> per_row;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const Pass& p : timed) sum += p.row_ms.at(i);
    per_row.push_back(sum / static_cast<double>(timed.size()));
  }
  std::sort(per_row.begin(), per_row.end());
  // Highest whole percentile with at least ten rows beyond it.
  const double tail_pct =
      n > 10 ? std::floor(100.0 * static_cast<double>(n - 10) /
                          static_cast<double>(n))
             : 100.0;
  std::printf("row_ms_tail is p%.0f over %zu rows per pass (%s)\n", tail_pct,
              n, w.search ? "simulated rows, from on_measure timestamps"
                          : "from on_result timestamps");

  double base[2] = {0, 0};
  double ord[2] = {0, 0};
  double best_power = std::numeric_limits<double>::infinity();
  for (const sim::ScenarioResult& r : passes.front().rows) {
    const int f = r.spec.format == DataFormat::kFixed8 ? 0 : 1;
    base[f] += static_cast<double>(r.bt_baseline);
    ord[f] += static_cast<double>(r.bt_ordered);
    if (!w.search) best_power = std::min(best_power, r.power_mw);
  }
  for (const SearchRun& s : passes.front().searches)
    best_power = std::min(best_power, s.result.best_power_mw);

  m.add("rows_per_s", rows / seconds, "rows/s");
  m.add("row_ms_p50", percentile(per_row, 50.0), "ms");
  m.add("row_ms_tail", percentile(per_row, tail_pct), "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Reported as the share of the O0 link BT that ordering keeps (100 minus
  // the paper's reduction): the reduction itself sits near 0% on some
  // workloads, where a relative bound would be meaningless.
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::printf("bt reduction: fx8 %.4f%%, fp32 %.4f%%\n",
              100.0 * (1.0 - ratio(ord[0], base[0])),
              100.0 * (1.0 - ratio(ord[1], base[1])));
  m.add("bt_kept_fx8_pct", 100.0 * ratio(ord[0], base[0]), "%");
  m.add("bt_kept_fp32_pct", 100.0 * ratio(ord[1], base[1]), "%");
  m.add("best_power_mw", best_power, "mW");
  m.add("ok_row_share",
        1.0 - static_cast<double>(checker.failed()) /
                  static_cast<double>(std::max<std::size_t>(checker.attempted(), 1)),
        "fraction");
}

void per_layer_metrics(const Tracer& t, std::size_t traced_passes,
                       double untraced_rps, double traced_rps, MetricLine& m) {
  const Tracer::Folded f = t.fold();
  const double k = static_cast<double>(std::max<std::size_t>(traced_passes, 1));
  const auto self = [&](const std::string& name) {
    const auto it = f.self_ms.find(name);
    return it == f.self_ms.end() ? 0.0 : it->second / k;
  };
  const auto count = [&](const std::string& name) { return t.counted(name) / k; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double row_ms = f.total_ms.count("row") ? f.total_ms.at("row") / k : 0.0;

  m.add("traffic_gen.busy_ms", self("traffic_gen"), "ms");
  m.add("traffic_gen.share", ratio(self("traffic_gen"), row_ms), "fraction");
  m.add("traffic_gen.requests", count("traffic_gen.requests"), "count");
  m.add("ordering.busy_ms", self("ordering"), "ms");
  m.add("ordering.share", ratio(self("ordering"), row_ms), "fraction");
  m.add("ordering.values", count("ordering.values"), "count");
  m.add("ordering.mvalues_per_s",
        ratio(count("ordering.values"), self("ordering") * 1e3), "Mvalues/s");
  m.add("accel.flitize.busy_ms", self("accel.flitize"), "ms");
  m.add("accel.flitize.share", ratio(self("accel.flitize"), row_ms), "fraction");
  m.add("accel.flitize.flits", count("accel.flitize.flits"), "count");
  m.add("noc.analytical.busy_ms", self("noc.analytical"), "ms");
  m.add("noc.analytical.attempts", count("noc.analytical.attempts"), "count");
  m.add("noc.analytical.exact", count("noc.analytical.exact"), "count");
  m.add("noc.analytical.exact_ratio",
        ratio(count("noc.analytical.exact"), count("noc.analytical.attempts")),
        "fraction");
  m.add("noc.analytical.wasted_ms", count("noc.analytical.wasted_ms"), "ms");
  m.add("noc.cycle.busy_ms", self("noc.cycle"), "ms");
  m.add("noc.cycle.share", ratio(self("noc.cycle"), row_ms), "fraction");
  m.add("noc.cycle.runs", count("noc.cycle.runs"), "count");
  m.add("noc.cycle.runs_per_row", ratio(count("noc.cycle.runs"), count("rows")),
        "count");
  m.add("noc.cycle.component_steps", count("noc.cycle.component_steps"), "count");
  m.add("noc.cycle.ns_per_component_step",
        ratio(self("noc.cycle") * 1e6, count("noc.cycle.component_steps")), "ns");
  m.add("hw.energy.busy_ms", self("hw.energy"), "ms");
  // A ScheduleCache::get that materializes a schedule is traffic_gen time;
  // get_ms is the gets served shared plus the SharedSchedule::derived
  // builds (the arrival-BT hints every ordered variant reuses).
  m.add("sim.schedule_cache.materializations",
        count("sim.schedule_cache.materializations"), "count");
  m.add("sim.schedule_cache.get_ms", self("sim.schedule_cache"), "ms");
  m.add("sim.scenario_cache.lookups", count("sim.scenario_cache.lookups"), "count");
  m.add("sim.scenario_cache.hits", count("sim.scenario_cache.hits"), "count");
  m.add("sim.scenario_cache.hit_ratio",
        ratio(count("sim.scenario_cache.hits"), count("sim.scenario_cache.lookups")),
        "fraction");
  m.add("sim.scenario_cache.stores", count("sim.scenario_cache.stores"), "count");
  m.add("sim.scenario_cache.lookup_ms", self("sim.scenario_cache.lookup"), "ms");
  m.add("sim.scenario_cache.store_ms", self("sim.scenario_cache.store"), "ms");
  m.add("opt.evaluator.lookups", count("opt.evaluator.lookups"), "count");
  m.add("opt.evaluator.memo_hits", count("opt.evaluator.memo_hits"), "count");
  m.add("opt.evaluator.simulated", count("opt.evaluator.simulated"), "count");
  m.add("opt.evaluator.shared_hits", count("opt.evaluator.shared_hits"), "count");
  m.add("sim.report.busy_ms", self("sim.report"), "ms");
  m.add("trace.overhead_pct", 100.0 * (1.0 - ratio(traced_rps, untraced_rps)), "%");
  m.add("trace.row_coverage_pct", 100.0 * ratio(f.covered_ms / k, row_ms), "%");

  // The stage with the largest self time, for the workload rationale.
  std::string top;
  double top_ms = -1.0;
  for (const char* stage : {"traffic_gen", "sim.schedule_cache", "ordering",
                            "accel.flitize", "noc.analytical", "noc.cycle",
                            "hw.energy", "sim.scenario_cache.lookup",
                            "sim.scenario_cache.store"})
    if (self(stage) > top_ms) {
      top_ms = self(stage);
      top = stage;
    }
  std::printf("largest stage self time: %s (%.1f ms per pass, %.1f%% of row time)\n",
              top.c_str(), top_ms, 100.0 * ratio(top_ms, row_ms));
}

int run(const Args& a) {
  const Workload w = make_workload(a);
  const std::string cache_dir = a.work_dir + "/scenario_cache";
  if (w.search) wipe_dir(cache_dir);
  if (a.setup_only) {
    std::printf("ready\n");  // the first row would be requested here
    std::fflush(stdout);
    return 0;
  }
  std::printf("env: {\"kernel_tier\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\"}\n",
              std::string(ordering::active_kernel_backend().name()).c_str(),
              std::thread::hardware_concurrency(), E2E_BUILD_TYPE);

  Checker checker;
  MetricLine m;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  const auto elapsed = [&] { return ms_between(start, Clock::now()) / 1e3; };
  if (!a.trace) {
    // At least two passes (the determinism check needs a pair, and the
    // first is not timed); stop when the next pass would overrun --seconds
    // by more than half a pass.
    while (passes.size() < 2 ||
           elapsed() + 0.5 * elapsed() / static_cast<double>(passes.size()) <
               a.seconds) {
      passes.push_back(run_pass(w, cache_dir));
      if (a.corrupt_row && passes.size() == 2 && passes.back().rows.size() > 1)
        passes.back().rows[1].cycles += 1;
      checker.check_pass(passes.back(),
                         passes.size() > 1 ? &passes.front() : nullptr);
      if (passes.size() > 1) {
        // Checked against the first pass; only its timings are still
        // needed, and holding every pass's rows would grow peak_rss_mb
        // with the number of passes.
        Pass& done = passes.back();
        done.rows = {};
        done.campaigns = {};
        done.searches = {};
      }
    }
    end_to_end_metrics(w, passes, checker, m);
  } else {
    Tracer tracer;
    std::vector<double> untraced_rps;
    std::vector<double> traced_rps;
    // The first production pass warms the process up and is the reference
    // later passes are checked against; it is neither timed nor replayed.
    passes.push_back(run_pass(w, cache_dir));
    checker.check_pass(passes.front(), nullptr);
    while (traced_rps.empty() ||
           elapsed() + 0.5 * elapsed() / static_cast<double>(traced_rps.size()) <
               a.seconds) {
      Pass p = run_pass(w, cache_dir);
      if (a.corrupt_row && p.rows.size() > 1) p.rows[1].cycles += 1;
      checker.check_pass(p, &passes.front());
      untraced_rps.push_back(static_cast<double>(p.rows.size()) / p.seconds);
      const double s = replay_pass(tracer, w, p, cache_dir, checker);
      traced_rps.push_back(static_cast<double>(p.rows.size()) / s);
    }
    per_layer_metrics(tracer, traced_rps.size(), median(untraced_rps),
                      median(traced_rps), m);
  }
  std::printf("digest %s: %s over %zu rows per pass\n", w.name.c_str(),
              digest(passes.front()).c_str(), passes.front().rows.size());
  std::filesystem::remove_all(cache_dir);
  std::printf("{\"workload\": \"%s\", \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              w.name.c_str(), checker.attempted(), checker.failed(),
              m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_campaign: %s\n", e.what());
    return 2;
  }
}
