// Ablation A6: why the paper's float-32 reductions (~20%, Table I) do not
// emerge from popcount-only ordering of IEEE-754 weights — and what weight
// precision would make them emerge.
//
// On full-precision weights the 23 mantissa bits are i.i.d. coin flips;
// they dominate the popcount, so sorting by popcount barely correlates with
// actual pattern similarity and the measured reduction is a few percent.
// If the float-32 payloads carry *reduced-precision* values (weights that
// came from fp16/bf16 storage or compression, common in accelerator memory
// hierarchies), the mantissa entropy collapses, popcount becomes dominated
// by sign/exponent structure, and ordering recovers reductions of the
// magnitude the paper reports. This sweep quantifies that transition.

#include <cstdio>

#include "analysis/bt_count.h"
#include "analysis/stream_experiment.h"
#include "bench_util.h"
#include "common/float_bits.h"
#include "common/table.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {

constexpr unsigned kValuesPerFlit = 8;
constexpr std::size_t kWindow = 8 * 32;

/// Round a float's mantissa to `bits` bits (round-to-nearest-even on the
/// kept bits, like a conversion through a lower-precision format).
std::uint32_t truncate_mantissa(std::uint32_t pattern, unsigned bits) {
  if (bits >= 23) return pattern;
  const unsigned drop = 23 - bits;
  const std::uint32_t half = 1u << (drop - 1);
  std::uint32_t rounded = pattern + half;
  rounded &= ~((1u << drop) - 1);
  return rounded;
}

}  // namespace

int main() {
  std::puts("=== Ablation A6: float-32 ordering vs mantissa precision ===");
  std::puts("(training LeNet...)\n");
  auto lenet = benchutil::make_lenet_trained(42);
  const auto weights = lenet.weight_values();
  const auto source = analysis::make_patterns(weights, DataFormat::kFloat32);

  AsciiTable table({"Mantissa bits kept", "BT/flit baseline",
                    "BT/flit ordered", "Reduction"});
  for (unsigned bits : {23u, 16u, 10u, 7u, 4u, 2u, 0u}) {
    std::vector<std::uint32_t> reduced;
    reduced.reserve(source.patterns.size());
    for (const auto p : source.patterns)
      reduced.push_back(truncate_mantissa(p, bits));
    const auto tiled = analysis::tile_patterns(reduced, kWindow * 2000);
    const auto baseline =
        analysis::pattern_stream_bt(tiled, DataFormat::kFloat32, kValuesPerFlit);
    const auto ordered = analysis::pattern_stream_bt(
        ordering::order_stream_with(ordering::get_strategy("popcount"), tiled,
                                    DataFormat::kFloat32, kWindow),
        DataFormat::kFloat32, kValuesPerFlit);
    table.add_row({bits == 23 ? "23 (full fp32)" : std::to_string(bits),
                   format_double(baseline.bt_per_flit(), 2),
                   format_double(ordered.bt_per_flit(), 2),
                   format_percent(1.0 - ordered.bt_per_flit() /
                                            baseline.bt_per_flit())});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nReading: at full precision popcount ordering saves only a few");
  std::puts("percent; once mantissa entropy drops toward fp16/bf16-class");
  std::puts("precision, reductions reach the ~20% band of the paper's Table I.");
  return 0;
}
