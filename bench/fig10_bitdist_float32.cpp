// Regenerates paper Fig. 10: per-bit-position analysis of float-32 weights.
//   Top: probability of a '1' at each of the 32 bit positions (random
//        weights vs trained LeNet weights) — sign/exponent/mantissa
//        structure is clearly visible.
//   Bottom: probability of a transition at each position between
//        consecutive flits, baseline (blue in the paper) vs ordered
//        (orange) — ordering must lower every position.

#include <cstdio>

#include "analysis/bit_stats.h"
#include "analysis/stream_experiment.h"
#include "bench_util.h"
#include "common/table.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {

constexpr unsigned kValuesPerFlit = 8;
constexpr std::size_t kWindow = 8 * 32;

void print_bit_rows(const char* label, const std::vector<double>& p) {
  std::printf("%-26s", label);
  for (double v : p) std::printf(" %4.2f", v);
  std::printf("\n");
}

void analyze(const char* name, const std::vector<float>& weights) {
  const auto stream = analysis::make_patterns(weights, DataFormat::kFloat32);
  const auto tiled = analysis::tile_patterns(stream.patterns, kWindow * 2000);
  const auto ordered = ordering::order_stream_with(
      ordering::get_strategy("popcount"), tiled, DataFormat::kFloat32, kWindow);

  std::printf("\n--- %s weights ---\n", name);
  std::printf("bit position (MSB=sign, then 8-bit exponent, 23-bit mantissa)\n");
  std::printf("%-26s", "");
  for (int b = 1; b <= 32; ++b) std::printf(" %4d", b);
  std::printf("\n");
  print_bit_rows("P('1')",
                 analysis::one_probability_per_bit(tiled, DataFormat::kFloat32));
  print_bit_rows("P(transition) baseline",
                 analysis::transition_probability_per_bit(
                     tiled, DataFormat::kFloat32, kValuesPerFlit));
  print_bit_rows("P(transition) ordered",
                 analysis::transition_probability_per_bit(
                     ordered, DataFormat::kFloat32, kValuesPerFlit));
}

}  // namespace

int main() {
  std::puts("=== Fig. 10: bit distribution & transition probability, float-32 ===");
  auto lenet_random = benchutil::make_lenet_random(42);
  analyze("random", lenet_random.weight_values());
  std::puts("\n(training LeNet for the trained-weight panels...)");
  auto lenet_trained = benchutil::make_lenet_trained(42);
  analyze("trained LeNet", lenet_trained.weight_values());
  std::puts("\nExpected shape: sign bit P('1') ~ 0.5; exponent bits strongly");
  std::puts("biased; ordered transition probability below baseline everywhere.");
  return 0;
}
