// Ablation A4: popcount-sort (the paper's 12.91 kGE bubble-sort unit) vs a
// greedy min-Hamming-distance chain (O(N^2) comparisons, far costlier
// hardware). Quantifies how much BT reduction the cheap popcount proxy
// leaves behind relative to directly minimizing XOR distance.

#include <cstdio>

#include "analysis/bt_count.h"
#include "analysis/stream_experiment.h"
#include "bench_util.h"
#include "common/table.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {
constexpr unsigned kValuesPerFlit = 8;
}

int main() {
  std::puts("=== Ablation A4: popcount sort vs greedy min-XOR chain ===");
  std::puts("(training LeNet...)\n");
  auto lenet = benchutil::make_lenet_trained(42);
  const auto weights = lenet.weight_values();

  for (DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    const auto source = analysis::make_patterns(weights, format);
    std::printf("--- %s trained weights ---\n", to_string(format).c_str());
    AsciiTable table({"Window (flits)", "baseline BT/flit", "popcount sort",
                      "greedy chain", "sort reduction", "greedy reduction"});
    for (unsigned window_flits : {8u, 32u, 128u}) {
      const std::size_t window = window_flits * kValuesPerFlit;
      const auto tiled = analysis::tile_patterns(source.patterns, window * 500);
      const auto base =
          analysis::pattern_stream_bt(tiled, format, kValuesPerFlit);
      const auto sorted = analysis::pattern_stream_bt(
          ordering::order_stream_with(ordering::get_strategy("popcount"),
                                      tiled, format, window),
          format, kValuesPerFlit);
      const auto greedy = analysis::pattern_stream_bt(
          ordering::order_stream_with(ordering::get_strategy("chain"), tiled,
                                      format, window),
          format, kValuesPerFlit);
      auto reduction = [&](const analysis::StreamBt& s) {
        return format_percent(1.0 - s.bt_per_flit() / base.bt_per_flit());
      };
      table.add_row({std::to_string(window_flits),
                     format_double(base.bt_per_flit(), 2),
                     format_double(sorted.bt_per_flit(), 2),
                     format_double(greedy.bt_per_flit(), 2), reduction(sorted),
                     reduction(greedy)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("");
  }
  std::puts("Expected shape: greedy chaining beats popcount sorting by a");
  std::puts("margin that represents the price of the paper's cheap hardware");
  std::puts("(N(N-1)/2 comparisons vs a bubble-sort of popcount keys).");
  return 0;
}
