#pragma once
// Campaign reporting layer: render a CampaignResult's rows as the ASCII
// table, the per-scenario CSV, the step-loop profile CSV, the per-link
// heatmap CSV, or the JSON document. Pure functions of (spec, rows) — a
// merged sharded run and a serial run with equal rows emit byte-identical
// reports, which the shard differential tests and the CI cmp gate prove.

#include <cstddef>
#include <string>

#include "sim/campaign.h"

namespace nocbt::sim {

/// Render results as the repo's standard ASCII table.
[[nodiscard]] std::string render_table(const CampaignResult& result);

/// Write one CSV row per scenario via common/csv. Returns rows written.
std::size_t write_csv_report(const std::string& path,
                             const CampaignSpec& campaign,
                             const CampaignResult& result);

/// Step-loop profile CSV: one row per scenario with the engine, the kernel
/// tier the row's ordering ran on (empty for cache/journal rows), whether
/// the row made its network run ("ran") or reused one ("shared": another
/// row's timing run, or a cache/journal hit), wall-clock per variant and
/// per stage (timing run, order+flitize, replay), deterministic step
/// counters, the component skip ratio and why the analytical backend was
/// rejected. Kept separate from write_csv_report/json_report so these
/// columns never enter the byte-compared golden fixtures (cache- or
/// journal-replayed rows report wall_ms 0 here). Returns rows written.
std::size_t write_profile_csv(const std::string& path,
                              const CampaignSpec& campaign,
                              const CampaignResult& result);

/// Per-link "heatmap" CSV: one row per monitored link per scenario
/// (scenario, link id, kind, src -> dst, flits, BT, energy in pJ), for
/// plotting spatial BT/energy distributions. Returns rows written.
std::size_t write_link_heatmap_csv(const std::string& path,
                                   const CampaignSpec& campaign,
                                   const CampaignResult& result);

/// The JSON report document (no trailing newline).
[[nodiscard]] std::string json_report(const CampaignSpec& campaign,
                                      const CampaignResult& result);

/// json_report written to `path` with a trailing newline. Throws on I/O
/// failure.
void write_json_report(const std::string& path, const CampaignSpec& campaign,
                       const CampaignResult& result);

}  // namespace nocbt::sim
