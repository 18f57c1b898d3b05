// Ablation A3: the paper's ordering vs classic bus-encoding baselines —
// bus-invert coding [Stan & Burleson '95] (whole-flit and per-value
// segmented, extra invert wires charged) and XOR-delta encoding [11]-style.
// Ordering needs no extra wires and no decoder; this bench quantifies how
// it stacks up on the same weight streams.

#include <cstdio>

#include "analysis/bt_count.h"
#include "analysis/stream_experiment.h"
#include "bench_util.h"
#include "common/table.h"
#include "ordering/encoders.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {

constexpr unsigned kValuesPerFlit = 8;
constexpr std::size_t kWindowValues = 8 * 32;

std::uint64_t encoded_bt(const ordering::EncodedStream& stream) {
  return analysis::stream_bt(stream.payloads).total_bt +
         stream.extra_wire_transitions;
}

void run_format(DataFormat format, const std::vector<float>& weights) {
  const auto source = analysis::make_patterns(weights, format);
  const auto tiled =
      analysis::tile_patterns(source.patterns, kWindowValues * 2000);

  const auto baseline_flits = analysis::flitize(tiled, format, kValuesPerFlit);
  const auto baseline_bt = analysis::stream_bt(baseline_flits).total_bt;

  const auto ordered = ordering::order_stream_with(
      ordering::get_strategy("popcount"), tiled, format, kWindowValues);
  const auto ordered_bt =
      analysis::pattern_stream_bt(ordered, format, kValuesPerFlit).total_bt;

  const auto businv1 = ordering::bus_invert_encode(baseline_flits, 1);
  const auto businv_seg =
      ordering::bus_invert_encode(baseline_flits, kValuesPerFlit);
  const auto delta = ordering::xor_delta_encode(baseline_flits);

  // Ordering composed with bus-invert: the techniques are orthogonal.
  const auto ordered_flits = analysis::flitize(ordered, format, kValuesPerFlit);
  const auto combo = ordering::bus_invert_encode(ordered_flits, kValuesPerFlit);

  auto reduction = [&](std::uint64_t bt) {
    return format_percent(1.0 - static_cast<double>(bt) /
                                    static_cast<double>(baseline_bt));
  };

  std::printf("--- %s trained weights ---\n", to_string(format).c_str());
  AsciiTable table({"Scheme", "Total BT", "Reduction", "Extra wires",
                    "Decoder needed"});
  table.add_row({"baseline", std::to_string(baseline_bt), "0.00%", "0", "no"});
  table.add_row({"popcount ordering (paper)", std::to_string(ordered_bt),
                 reduction(ordered_bt), "0", "no (order-invariant)"});
  table.add_row({"bus-invert, whole flit", std::to_string(encoded_bt(businv1)),
                 reduction(encoded_bt(businv1)), "1", "yes"});
  table.add_row({"bus-invert, per value",
                 std::to_string(encoded_bt(businv_seg)),
                 reduction(encoded_bt(businv_seg)),
                 std::to_string(kValuesPerFlit), "yes"});
  table.add_row({"XOR-delta", std::to_string(encoded_bt(delta)),
                 reduction(encoded_bt(delta)), "0", "yes (XOR register)"});
  table.add_row({"ordering + bus-invert", std::to_string(encoded_bt(combo)),
                 reduction(encoded_bt(combo)), std::to_string(kValuesPerFlit),
                 "yes"});
  std::fputs(table.render().c_str(), stdout);
  std::puts("");
}

}  // namespace

int main() {
  std::puts("=== Ablation A3: ordering vs related-work encoders ===");
  std::puts("(training LeNet...)\n");
  auto lenet = benchutil::make_lenet_trained(42);
  const auto weights = lenet.weight_values();
  run_format(DataFormat::kFloat32, weights);
  run_format(DataFormat::kFixed8, weights);
  std::puts("Note: ordering composes with invert-coding — the combined row");
  std::puts("shows additional headroom at the cost of the invert wires.");
  return 0;
}
