#include "sim/campaign_executor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "sim/run_journal.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"

namespace nocbt::sim {

ShardSpec parse_shard_spec(const std::string& s) {
  const auto bad = [&]() -> std::invalid_argument {
    return std::invalid_argument(
        "parse_shard_spec: expected i/N with N >= 1 and i < N (e.g. \"0/4\"), "
        "got '" +
        s + "'");
  };
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) throw bad();
  const auto parse_u32 = [&](std::size_t first,
                             std::size_t last) -> std::uint32_t {
    std::uint32_t v = 0;
    const char* begin = s.data() + first;
    const char* end = s.data() + last;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr != end || begin == end) throw bad();
    return v;
  };
  ShardSpec shard;
  shard.index = parse_u32(0, slash);
  shard.count = parse_u32(slash + 1, s.size());
  if (shard.count < 1 || shard.index >= shard.count) throw bad();
  return shard;
}

std::string to_string(const ShardSpec& shard) {
  return std::to_string(shard.index) + "/" + std::to_string(shard.count);
}

std::vector<std::size_t> stream_claim_order(
    const std::vector<std::string>& keys, std::size_t pool) {
  std::vector<std::vector<std::size_t>> streams;
  std::unordered_map<std::string, std::size_t> stream_of;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const auto [it, fresh] = stream_of.try_emplace(keys[j], streams.size());
    if (fresh) streams.emplace_back();
    streams[it->second].push_back(j);
  }
  const std::size_t block = pool < 1 ? 1 : pool;
  std::vector<std::size_t> order;
  order.reserve(keys.size());
  for (std::size_t first = 0; first < streams.size(); first += block) {
    const std::size_t last = std::min(streams.size(), first + block);
    for (std::size_t r = 0;; ++r) {
      bool taken = false;
      for (std::size_t s = first; s < last; ++s)
        if (r < streams[s].size()) {
          order.push_back(streams[s][r]);
          taken = true;
        }
      if (!taken) break;
    }
  }
  return order;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerConfig& runner) {
  const ExecutionConfig& exec = runner.exec;
  if (exec.shard.count < 1 || exec.shard.index >= exec.shard.count)
    throw std::invalid_argument("run_campaign: invalid shard " +
                                to_string(exec.shard));

  const std::vector<ScenarioSpec> scenarios = spec.expand();
  CampaignResult result;
  result.stats.grid_total = scenarios.size();

  // Content keys are only needed when some persistence layer is on; a
  // plain sweep skips the hashing (and the trace-file reads it may imply).
  const bool keyed = !exec.cache_dir.empty() || !exec.journal_path.empty();
  std::vector<ContentKey> keys;
  if (keyed) {
    keys.reserve(scenarios.size());
    for (const ScenarioSpec& s : scenarios)
      keys.push_back(scenario_content_key(s, spec.hooks.id));
  }

  std::unique_ptr<ScenarioCache> cache;
  if (!exec.cache_dir.empty())
    cache = std::make_unique<ScenarioCache>(exec.cache_dir);

  // Journal: validate any existing file against this spec's content hash,
  // preload its intact rows, then open for append (or start fresh).
  std::unique_ptr<RunJournal> journal;
  std::unordered_map<std::string, ScenarioResult> journaled;
  if (!exec.journal_path.empty()) {
    const std::string campaign_hash = campaign_content_hash(spec);
    JournalContents prior = read_journal(exec.journal_path);
    bool fresh = true;
    if (prior.exists && prior.header_ok) {
      if (prior.campaign_hash != campaign_hash)
        throw std::runtime_error(
            "run_campaign: journal '" + exec.journal_path +
            "' was written for campaign " + prior.campaign_hash +
            " but campaign '" + spec.name + "' hashes to " + campaign_hash +
            " — refusing to mix rows across differing campaign specs (point "
            "resume= at a fresh file or rerun the original spec)");
      journaled = std::move(prior.rows);
      fresh = false;
    }
    for (std::string& w : prior.warnings)
      result.stats.warnings.push_back(std::move(w));
    // Damaged records were diagnosed above; compact them away by rewriting
    // the journal from its intact rows, so the next resume is warning-free
    // instead of re-reporting the same torn fragment forever.
    const bool compact = !fresh && !prior.warnings.empty();
    journal = std::make_unique<RunJournal>(exec.journal_path, campaign_hash,
                                           scenarios.size(),
                                           fresh || compact);
    if (compact)
      for (const auto& [hash, row] : journaled)
        journal->append(hash, prior.indexes.at(hash), row);
  }

  // This shard's slice of the expansion, in grid order.
  std::vector<std::size_t> assigned;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (i % exec.shard.count == exec.shard.index) assigned.push_back(i);
  result.stats.assigned = assigned.size();
  result.rows.resize(assigned.size());

  // One schedule per traffic stream: the mode rows of a grid point share
  // their materialized generator output (expand() gives them one seed).
  // Rows are claimed in stream_claim_order, so only a few streams'
  // schedules are alive at once; result.rows stays in grid order. Each
  // schedule is dropped after its last row in this shard's slice, however
  // that row was obtained, and the timing runs of the latest `pool`
  // packet fingerprints outlive their schedules for the streams that
  // share them (a placed model's other format).
  const std::size_t want = runner.threads < 1 ? 1 : runner.threads;
  const std::size_t pool =
      assigned.size() < want ? (assigned.empty() ? 1 : assigned.size())
                             : want;
  ScheduleCache schedules(spec.modes.size(), 0, pool);
  std::vector<std::string> stream_keys;
  stream_keys.reserve(assigned.size());
  std::unordered_map<std::string, std::size_t> stream_rows;
  for (const std::size_t i : assigned) {
    stream_keys.push_back(schedule_key(scenarios[i]));
    ++stream_rows[stream_keys.back()];
  }
  for (const auto& [key, rows] : stream_rows) schedules.expect(key, rows);
  const std::vector<std::size_t> claim_order =
      stream_claim_order(stream_keys, pool);
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;       // guarded by report_mutex
  std::mutex report_mutex;    // serializes on_result + done
  std::mutex persist_mutex;   // serializes journal appends + stat counts
  const auto worker = [&] {
    for (;;) {
      const std::size_t claim = next.fetch_add(1);
      if (claim >= claim_order.size()) return;
      const std::size_t j = claim_order[claim];
      const std::size_t i = assigned[j];
      const ScenarioSpec& scenario = scenarios[i];
      const ContentKey* key = keyed ? &keys[i] : nullptr;

      std::optional<ScenarioResult> row;
      bool from_journal = false;
      bool from_cache = false;
      if (key && key->cacheable) {
        const auto it = journaled.find(key->hash);
        if (it != journaled.end()) {
          row = it->second;  // journaled is read-only during the sweep
          row->spec = scenario;
          from_journal = true;
        } else if (cache) {
          row = cache->lookup(scenario, key->hash);
          from_cache = row.has_value();
        }
      }
      const bool simulated = !row.has_value();
      if (simulated)
        row = run_scenario_shared(scenario, spec.hooks, &schedules);
      else
        schedules.release(stream_keys[j]);

      {
        const std::lock_guard<std::mutex> lock(persist_mutex);
        if (simulated) ++result.stats.simulated;
        if (from_cache) ++result.stats.cache_hits;
        if (from_journal) ++result.stats.journal_hits;
        if (key && key->cacheable) {
          if (simulated && cache) cache->store(key->hash, *row);
          if (journal && !from_journal) journal->append(key->hash, i, *row);
        }
      }
      result.rows[j] = std::move(*row);
      if (runner.on_result) {
        // done is incremented under the same lock as the callback so the
        // reported counts never regress.
        const std::lock_guard<std::mutex> lock(report_mutex);
        runner.on_result(result.rows[j], ++done, assigned.size());
      }
    }
  };

  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  if (cache)
    for (std::string& w : cache->take_diagnostics())
      result.stats.warnings.push_back(std::move(w));
  return result;
}

}  // namespace nocbt::sim
