#include "accel/packet_builder.h"

#include <stdexcept>

#include "common/bitops.h"
#include "ordering/strategy.h"

namespace nocbt::accel {

BuiltPacket build_task_packet(const NeuronTask& task,
                              const LayerCodecs& codecs,
                              ordering::OrderingMode mode,
                              const FlitLayout& layout,
                              bool embed_pairing_index) {
  if (task.inputs.size() != task.weights.size())
    throw std::invalid_argument("build_task_packet: unpaired task");
  const auto n = static_cast<std::uint32_t>(task.weights.size());
  const DataFormat format = codecs.weights.format();

  std::vector<std::uint32_t> input_patterns;
  std::vector<std::uint32_t> weight_patterns;
  input_patterns.reserve(n);
  weight_patterns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    input_patterns.push_back(codecs.inputs.encode(task.inputs[i]));
    weight_patterns.push_back(codecs.weights.encode(task.weights[i]));
  }
  const std::uint32_t bias_pattern = codecs.bias.encode(task.bias);

  BuiltPacket out;
  out.meta.layer_index = task.layer_index;
  out.meta.output_index = task.output_index;
  out.meta.n_pairs = n;
  out.meta.has_bias = true;
  out.meta.mode = mode;
  out.meta.index_embedded = false;

  // The mode's registered strategy and pairing rule supply both
  // permutations; O2 additionally ships the index that re-pairs them.
  const ordering::PairOrder order = ordering::order_pairs(
      mode, weight_patterns, input_patterns, format);
  if (ordering::mode_is_separated(mode))
    out.meta.pair_index =
        ordering::separated_pairing_index(order.weights, order.inputs);
  weight_patterns = ordering::apply_permutation(
      std::span<const std::uint32_t>(weight_patterns),
      std::span<const std::uint32_t>(order.weights));
  input_patterns = ordering::apply_permutation(
      std::span<const std::uint32_t>(input_patterns),
      std::span<const std::uint32_t>(order.inputs));

  out.payloads =
      pack_half_half(input_patterns, weight_patterns, bias_pattern, layout);
  out.meta.data_flits = static_cast<std::uint32_t>(out.payloads.size());

  if (mode == ordering::OrderingMode::kSeparated && embed_pairing_index) {
    out.meta.index_embedded = true;
    const auto index_flits = pack_index_flits(
        out.meta.pair_index, index_bits(n), layout.flit_bits());
    out.meta.index_flits = static_cast<std::uint32_t>(index_flits.size());
    out.payloads.insert(out.payloads.end(), index_flits.begin(),
                        index_flits.end());
  }
  return out;
}

UnpackedTask decode_task_packet(std::span<const BitVec> payloads,
                                const TaskMeta& meta, const FlitLayout& layout,
                                std::vector<std::uint32_t>* pair_index_out) {
  if (payloads.size() != meta.data_flits + meta.index_flits)
    throw std::invalid_argument("decode_task_packet: flit count mismatch");
  UnpackedTask task = unpack_half_half(payloads.first(meta.data_flits),
                                       meta.n_pairs, meta.has_bias, layout);
  if (pair_index_out) {
    if (meta.index_embedded) {
      *pair_index_out =
          unpack_index_flits(payloads.subspan(meta.data_flits), meta.n_pairs,
                             index_bits(meta.n_pairs));
    } else {
      *pair_index_out = meta.pair_index;  // sideband delivery
    }
  }
  return task;
}

double compute_task_output(const UnpackedTask& task,
                           std::span<const std::uint32_t> pair_index,
                           const LayerCodecs& codecs,
                           ordering::OrderingMode mode) {
  const bool separated = mode == ordering::OrderingMode::kSeparated;
  if (separated && pair_index.size() != task.weights.size())
    throw std::invalid_argument("compute_task_output: bad pairing index");

  double result;
  if (codecs.weights.format() == DataFormat::kFloat32) {
    double acc = 0.0;
    for (std::size_t i = 0; i < task.weights.size(); ++i) {
      const std::size_t j = separated ? pair_index[i] : i;
      acc += static_cast<double>(codecs.weights.decode(task.weights[i])) *
             codecs.inputs.decode(task.inputs[j]);
    }
    result = acc + (task.bias ? codecs.bias.decode(*task.bias) : 0.0f);
  } else {
    // Exact integer MAC: order-invariant by construction.
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < task.weights.size(); ++i) {
      const std::size_t j = separated ? pair_index[i] : i;
      acc += static_cast<std::int64_t>(codecs.weights.code(task.weights[i])) *
             codecs.inputs.code(task.inputs[j]);
    }
    result = static_cast<double>(acc) * codecs.weights.scale() *
             codecs.inputs.scale();
    if (task.bias)
      result += codecs.bias.decode(*task.bias);
  }
  return result;
}

}  // namespace nocbt::accel
