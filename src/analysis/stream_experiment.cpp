#include "analysis/stream_experiment.h"

#include <stdexcept>

#include "analysis/bt_count.h"
#include "common/float_bits.h"
#include "ordering/strategy.h"

namespace nocbt::analysis {

PatternStream make_patterns(std::span<const float> values, DataFormat format,
                            unsigned fixed_bits) {
  PatternStream out;
  out.patterns.reserve(values.size());
  if (format == DataFormat::kFloat32) {
    for (const float v : values) out.patterns.push_back(float_to_bits(v));
  } else {
    out.codec = FixedPointCodec::calibrate(fixed_bits, values);
    for (const float v : values)
      out.patterns.push_back(out.codec->quantize_to_pattern(v));
  }
  return out;
}

std::vector<std::uint32_t> tile_patterns(
    std::span<const std::uint32_t> patterns, std::size_t count) {
  if (patterns.empty())
    throw std::invalid_argument("tile_patterns: empty source stream");
  std::vector<std::uint32_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::size_t take = std::min(patterns.size(), count - out.size());
    out.insert(out.end(), patterns.begin(),
               patterns.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

StreamExperimentResult run_stream_experiment(
    std::span<const float> values, const StreamExperimentConfig& config) {
  if (config.values_per_flit == 0 || config.flits_per_packet == 0 ||
      config.num_packets == 0)
    throw std::invalid_argument("run_stream_experiment: degenerate config");

  const std::size_t window =
      static_cast<std::size_t>(config.values_per_flit) * config.flits_per_packet;
  const std::size_t total_values = window * config.num_packets;

  const PatternStream source = make_patterns(values, config.format,
                                             config.fixed_bits);
  const auto stream = tile_patterns(source.patterns, total_values);
  const auto ordered = ordering::order_stream_with(
      ordering::get_strategy("popcount"), stream, config.format, window);

  const StreamBt baseline =
      pattern_stream_bt(stream, config.format, config.values_per_flit);
  const StreamBt treated =
      pattern_stream_bt(ordered, config.format, config.values_per_flit);

  StreamExperimentResult result;
  result.baseline_bt_per_flit = baseline.bt_per_flit();
  result.ordered_bt_per_flit = treated.bt_per_flit();
  result.flits = baseline.flit_pairs + 1;
  result.flit_bits = value_bits(config.format) * config.values_per_flit;
  return result;
}

}  // namespace nocbt::analysis
