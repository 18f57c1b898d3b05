#include "opt/evaluator.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/scenario_runner.h"

namespace nocbt::opt {

namespace {

/// Schedules an Evaluator keeps: the one its latest simulation used. Mode
/// moves keep the schedule and reuse it with its timing run; exact repeats
/// are memo hits and never reach the schedule store. Keeping more trades
/// memory for fewer rebuilds: on the e2ebench coopt searches over placed
/// MobileNet (8x8, up to 6 distinct schedules per search, ~0.65 MB each
/// with its timing run) a pass materializes and times 39 schedules with 1
/// kept, 26 with 3 and 22 with all kept. Against the previous
/// two-simulation runner, keeping all raised the coopt_shared_cache peak
/// RSS by 21% and keeping 2 by 8-11%, past the benchmark's 10% bound;
/// keeping 1 by 1-2%. The timing runs of as many packet fingerprints are
/// kept, so a move between formats at one placed point reuses the run.
constexpr std::size_t kScheduleCacheEntries = 1;

}  // namespace

Evaluator::Evaluator(sim::CampaignSpec base)
    : Evaluator(std::move(base), nullptr) {}

Evaluator::Evaluator(sim::CampaignSpec base,
                     std::shared_ptr<sim::ScenarioCache> cache)
    : base_(std::move(base)),
      cache_(std::move(cache)),
      schedules_(std::numeric_limits<std::size_t>::max(),
                 kScheduleCacheEntries, kScheduleCacheEntries) {
  if (base_.generators.size() != 1)
    throw std::invalid_argument(
        "Evaluator: the campaign template must hold exactly one generator, "
        "got " +
        std::to_string(base_.generators.size()));
  if (base_.meshes.size() != 1)
    throw std::invalid_argument(
        "Evaluator: the campaign template must hold exactly one mesh, got " +
        std::to_string(base_.meshes.size()));
  if (base_.replicates != 1)
    throw std::invalid_argument(
        "Evaluator: the campaign template must use replicates=1, got " +
        std::to_string(base_.replicates));
}

sim::CampaignSpec Evaluator::campaign_for(const Candidate& c) const {
  sim::CampaignSpec camp = base_;
  camp.formats = {c.format};
  camp.modes = {c.mode};
  camp.windows = {c.window};
  camp.base.placement = c.placement;
  return camp;
}

const sim::ScenarioResult& Evaluator::evaluate(const Candidate& c) {
  ++lookups_;
  const std::string key = to_string(c);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  sim::SingleRunOutcome outcome = sim::run_single_scenario_cached(
      campaign_for(c), cache_.get(), &schedules_);
  if (outcome.cache_hit)
    ++shared_hits_;
  else
    ++simulated_;
  if (!outcome.row.error.empty())
    throw std::runtime_error("Evaluator: candidate " + key + " failed: " +
                             outcome.row.error);
  if (on_measure && !outcome.cache_hit && !outcome.content_hash.empty())
    on_measure(c, outcome.content_hash, outcome.row);
  return memo_.emplace(key, std::move(outcome.row)).first->second;
}

}  // namespace nocbt::opt
