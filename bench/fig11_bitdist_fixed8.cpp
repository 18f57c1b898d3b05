// Regenerates paper Fig. 11: per-bit-position analysis of fixed-8 weights —
// the fixed-point counterpart of Fig. 10. The trained-weight panel shows
// the largest baseline/ordered gap, matching Table I's 55.71% row.

#include <cstdio>

#include "analysis/bit_stats.h"
#include "analysis/stream_experiment.h"
#include "bench_util.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {

constexpr unsigned kValuesPerFlit = 8;
constexpr std::size_t kWindow = 8 * 32;

void print_bit_rows(const char* label, const std::vector<double>& p) {
  std::printf("%-26s", label);
  for (double v : p) std::printf(" %5.3f", v);
  std::printf("\n");
}

void analyze(const char* name, const std::vector<float>& weights) {
  const auto stream = analysis::make_patterns(weights, DataFormat::kFixed8);
  const auto tiled = analysis::tile_patterns(stream.patterns, kWindow * 2000);
  const auto ordered = ordering::order_stream_with(
      ordering::get_strategy("popcount"), tiled, DataFormat::kFixed8, kWindow);

  std::printf("\n--- %s weights (8-bit two's complement) ---\n", name);
  std::printf("%-26s", "");
  for (int b = 1; b <= 8; ++b) std::printf(" %5d", b);
  std::printf("\n");
  print_bit_rows("P('1')",
                 analysis::one_probability_per_bit(tiled, DataFormat::kFixed8));
  print_bit_rows("P(transition) baseline",
                 analysis::transition_probability_per_bit(
                     tiled, DataFormat::kFixed8, kValuesPerFlit));
  print_bit_rows("P(transition) ordered",
                 analysis::transition_probability_per_bit(
                     ordered, DataFormat::kFixed8, kValuesPerFlit));
}

}  // namespace

int main() {
  std::puts("=== Fig. 11: bit distribution & transition probability, fixed-8 ===");
  auto lenet_random = benchutil::make_lenet_random(42);
  analyze("random", lenet_random.weight_values());
  std::puts("\n(training LeNet for the trained-weight panels...)");
  auto lenet_trained = benchutil::make_lenet_trained(42);
  analyze("trained LeNet", lenet_trained.weight_values());
  std::puts("\nExpected shape: trained weights concentrate near zero, so the");
  std::puts("ordered transition probabilities collapse (largest gap of all).");
  return 0;
}
