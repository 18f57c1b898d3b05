// Regenerates paper Fig. 9: the '1'-bit-count grid of a window of flits
// before (left) and after (right) descending ordering. Each row is one
// flit of 8 float-32 LeNet weights; the number shown is each weight's
// popcount.

#include <cstdio>
#include <string>

#include "analysis/bt_count.h"
#include "analysis/stream_experiment.h"
#include "bench_util.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {

void print_grid(const char* title, std::span<const std::uint32_t> patterns,
                unsigned values_per_flit, unsigned flits) {
  std::printf("%s\n", title);
  std::printf("flit |");
  for (unsigned v = 0; v < values_per_flit; ++v) std::printf(" w%-2u", v);
  std::printf("\n-----+%s\n", std::string(4 * values_per_flit, '-').c_str());
  for (unsigned f = 0; f < flits; ++f) {
    std::printf("%4u |", f);
    for (unsigned v = 0; v < values_per_flit; ++v) {
      const std::size_t idx = static_cast<std::size_t>(f) * values_per_flit + v;
      if (idx < patterns.size())
        std::printf(" %-3d", pattern_popcount(patterns[idx], DataFormat::kFloat32));
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::puts("=== Fig. 9: data before ordering (left grid) vs after (right grid) ===\n");
  constexpr unsigned kValuesPerFlit = 8;
  constexpr unsigned kFlits = 21;  // the window shown in the paper's figure
  constexpr std::size_t kWindow = kValuesPerFlit * kFlits;

  auto lenet = benchutil::make_lenet_trained(42);
  const auto weights = lenet.weight_values();
  const auto stream = analysis::make_patterns(weights, DataFormat::kFloat32);
  const std::span<const std::uint32_t> window(stream.patterns.data(), kWindow);

  const ordering::OrderingStrategy& popcount =
      ordering::get_strategy("popcount");
  const auto ordered = ordering::order_stream_with(
      popcount, window, DataFormat::kFloat32, kWindow);

  print_grid("Before ordering ('1'-bit count per weight):", window,
             kValuesPerFlit, kFlits);
  print_grid("After descending ordering:", ordered, kValuesPerFlit, kFlits);

  // Quantify the effect. A single float-32 window is statistically noisy
  // (and float-32 popcount ordering is weak in general — see EXPERIMENTS.md
  // E2); quote the fixed-8 view of the same weights alongside, where the
  // grouping is visible at a glance.
  const auto base_bt =
      analysis::pattern_stream_bt(window, DataFormat::kFloat32, kValuesPerFlit);
  const auto ord_bt =
      analysis::pattern_stream_bt(ordered, DataFormat::kFloat32, kValuesPerFlit);
  std::printf("Window BT (float-32): baseline %llu, ordered %llu\n",
              static_cast<unsigned long long>(base_bt.total_bt),
              static_cast<unsigned long long>(ord_bt.total_bt));

  const auto fx = analysis::make_patterns(weights, DataFormat::kFixed8);
  const std::span<const std::uint32_t> fx_window(fx.patterns.data(), kWindow);
  const auto fx_ordered = ordering::order_stream_with(
      popcount, fx_window, DataFormat::kFixed8, kWindow);
  const auto fx_base =
      analysis::pattern_stream_bt(fx_window, DataFormat::kFixed8, kValuesPerFlit);
  const auto fx_ord =
      analysis::pattern_stream_bt(fx_ordered, DataFormat::kFixed8, kValuesPerFlit);
  std::printf("Window BT (fixed-8) : baseline %llu, ordered %llu (%.2f%% reduction)\n",
              static_cast<unsigned long long>(fx_base.total_bt),
              static_cast<unsigned long long>(fx_ord.total_bt),
              100.0 * (1.0 - static_cast<double>(fx_ord.total_bt) /
                                 static_cast<double>(fx_base.total_bt)));
  return 0;
}
