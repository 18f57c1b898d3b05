#include "noc/crossing_log.h"

#include <stdexcept>
#include <string>

namespace nocbt::noc {

void CrossingLogBuilder::add_packet(std::uint32_t flits) {
  if (flits >= CrossingLog::kLongRun - total_flits_)
    throw std::length_error(
        "CrossingLogBuilder: more than 2^31 flits in one network run");
  first_flit_.push_back(total_flits_);
  packet_flits_.push_back(flits);
  total_flits_ += flits;
}

CrossingLog CrossingLogBuilder::finish() && {
  CrossingLog log;
  std::size_t total = 0;
  for (const auto& words : per_link_) total += words.size();
  log.offsets.reserve(per_link_.size() + 1);
  log.words.reserve(total);
  log.offsets.push_back(0);
  for (auto& words : per_link_) {
    log.words.insert(log.words.end(), words.begin(), words.end());
    log.offsets.push_back(log.words.size());
    std::vector<std::uint32_t>().swap(words);  // release as we go
  }
  log.packet_flits = std::move(packet_flits_);
  return log;
}

void CrossingLog::replay(std::span<const BitVec> payloads,
                         std::span<const std::uint32_t> layout,
                         BtRecorder& into) const {
  if (layout.size() != packet_flits.size())
    throw std::invalid_argument(
        "CrossingLog::replay: " + std::to_string(layout.size()) +
        " packets, the logged run carried " +
        std::to_string(packet_flits.size()));
  std::size_t total = 0;
  for (std::size_t p = 0; p < layout.size(); ++p) {
    if (layout[p] != packet_flits[p])
      throw std::invalid_argument(
          "CrossingLog::replay: packet " + std::to_string(p) + " has " +
          std::to_string(layout[p]) + " flits, the logged run " +
          std::to_string(packet_flits[p]));
    total += layout[p];
  }
  if (payloads.size() != total)
    throw std::invalid_argument(
        "CrossingLog::replay: " + std::to_string(payloads.size()) +
        " flits for a layout of " + std::to_string(total));
  if (into.link_count() != link_count())
    throw std::invalid_argument(
        "CrossingLog::replay: recorder has " +
        std::to_string(into.link_count()) + " links, the log " +
        std::to_string(link_count()));

  // prefix[g]: transitions between consecutive flits 0..g, so a run g..h
  // carries prefix[h] - prefix[g] inside it.
  std::vector<std::uint64_t> prefix(payloads.size(), 0);
  for (std::size_t g = 1; g < payloads.size(); ++g)
    prefix[g] = prefix[g - 1] + static_cast<std::uint64_t>(
                                    payloads[g - 1].transitions_to(payloads[g]));

  for (std::size_t id = 0; id < link_count(); ++id) {
    LinkAccumulator acc(into.payload_bits());
    for_each_run(id, [&](std::uint32_t first, std::uint32_t flits) {
      const std::uint32_t last = first + flits - 1;
      acc.observe_packet(payloads[first], payloads[last],
                         prefix[last] - prefix[first], flits);
    });
    into.absorb(static_cast<std::int32_t>(id), acc);
  }
}

}  // namespace nocbt::noc
