// Micro-benchmarks (google-benchmark) for the ordering primitives: the
// software cost of what the paper implements in 12.91 kGE of hardware.
//
// Two modes:
//   $ ./micro_ordering [--benchmark_* flags]    # google-benchmark harness
//   $ ./micro_ordering --json BENCH_ordering.json [--window 32]
//
// The --json mode is the machine-readable perf baseline: it self-times the
// word-packed BT-count kernel against the retained naive per-bit reference,
// the HD chain under every kernel tier and every registered ordering
// strategy at the given window size, then
// writes one JSON document (via common/json_writer) that CI uploads as an
// artifact so future PRs have a regression trajectory to compare against.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "accel/flitization.h"
#include "accel/packet_builder.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"

using namespace nocbt;

namespace {

std::vector<std::uint32_t> random_patterns(std::size_t n, unsigned bits,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(rng.bits64() & low_mask(bits)));
  return out;
}

void BM_PopcountDescendingOrder(benchmark::State& state) {
  const auto patterns =
      random_patterns(static_cast<std::size_t>(state.range(0)), 32, 1);
  for (auto _ : state) {
    auto perm = ordering::popcount_descending_order(patterns,
                                                    DataFormat::kFloat32);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PopcountDescendingOrder)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_OrderStream(benchmark::State& state) {
  const auto patterns = random_patterns(1 << 16, 8, 3);
  const ordering::OrderingStrategy& popcount =
      ordering::get_strategy("popcount");
  for (auto _ : state) {
    auto ordered = ordering::order_stream_with(
        popcount, patterns, DataFormat::kFixed8,
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(ordered);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_OrderStream)->Arg(64)->Arg(256)->Arg(1024);

// The BT-count kernel pair the --json mode baselines: word-packed
// XOR+popcount vs the naive per-bit reference, per 32-value window.
void BM_SequenceBtPacked(benchmark::State& state) {
  const auto window =
      random_patterns(static_cast<std::size_t>(state.range(0)), 8, 7);
  for (auto _ : state) {
    auto bt = ordering::sequence_bt(window, DataFormat::kFixed8);
    benchmark::DoNotOptimize(bt);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SequenceBtPacked)->Arg(32)->Arg(256)->Arg(4096);

void BM_SequenceBtReference(benchmark::State& state) {
  const auto window =
      random_patterns(static_cast<std::size_t>(state.range(0)), 8, 7);
  for (auto _ : state) {
    auto bt = ordering::sequence_bt_reference(window, DataFormat::kFixed8);
    benchmark::DoNotOptimize(bt);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SequenceBtReference)->Arg(32)->Arg(256)->Arg(4096);

// The unguarded HD chain (the chain/hybrid hot path) on the active tier.
void BM_HdChain(benchmark::State& state, DataFormat format) {
  const auto window = random_patterns(static_cast<std::size_t>(state.range(0)),
                                      value_bits(format), 8);
  for (auto _ : state) {
    auto perm = ordering::hd_chain_order(window, format);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_HdChain, fx8, DataFormat::kFixed8)->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(BM_HdChain, fp32, DataFormat::kFloat32)->Arg(64)->Arg(512);

// Every registered strategy at the paper-ish window sizes.
void BM_Strategy(benchmark::State& state, const char* name, DataFormat format) {
  const ordering::OrderingStrategy& strategy = ordering::get_strategy(name);
  const auto window = random_patterns(static_cast<std::size_t>(state.range(0)),
                                      value_bits(format), 9);
  for (auto _ : state) {
    auto perm = strategy.order(window, format);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PackHalfHalf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inputs = random_patterns(n, 32, 4);
  const auto weights = random_patterns(n, 32, 5);
  const accel::FlitLayout layout{16, 32};
  for (auto _ : state) {
    auto flits = accel::pack_half_half(inputs, weights, 7u, layout);
    benchmark::DoNotOptimize(flits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackHalfHalf)->Arg(25)->Arg(150)->Arg(400);

void BM_BuildTaskPacketSeparated(benchmark::State& state) {
  Rng rng(6);
  accel::NeuronTask task;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    task.inputs.push_back(static_cast<float>(rng.uniform(-1, 1)));
    task.weights.push_back(static_cast<float>(rng.uniform(-1, 1)));
  }
  const accel::LayerCodecs codecs{
      accel::ValueCodec::fixed_calibrated(8, task.weights),
      accel::ValueCodec::fixed_calibrated(8, task.inputs),
      accel::ValueCodec::float32()};
  const accel::FlitLayout layout{16, 8};
  for (auto _ : state) {
    auto packet = accel::build_task_packet(
        task, codecs, ordering::OrderingMode::kSeparated, layout);
    benchmark::DoNotOptimize(packet);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildTaskPacketSeparated)->Arg(25)->Arg(150)->Arg(400);

// ---------------------------------------------------------------------------
// --json mode: self-timed perf baseline written through JsonWriter.

struct Measurement {
  double mvalues_per_s = 0.0;    ///< windowed values processed per second /1e6
  std::uint64_t checksum = 0;    ///< fold of results, defeats dead-code elim
};

/// Time `fn(window_index)` over consecutive windows until ~100ms elapsed.
template <typename Fn>
Measurement measure_windows(std::size_t window_values, std::size_t num_windows,
                            Fn&& fn) {
  using clock = std::chrono::steady_clock;
  Measurement m;
  // One untimed warm-up pass touches every window (faults pages, warms
  // caches) so the timed passes measure the kernel, not the allocator.
  for (std::size_t w = 0; w < num_windows; ++w) m.checksum += fn(w);

  std::size_t values = 0;
  const clock::time_point start = clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t w = 0; w < num_windows; ++w) m.checksum += fn(w);
    values += window_values * num_windows;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.1);
  m.mvalues_per_s = static_cast<double>(values) / elapsed / 1e6;
  return m;
}

int run_json_bench(const std::string& path, std::size_t window_values) {
  constexpr std::size_t kNumWindows = 512;
  JsonWriter json;
  json.begin_object()
      .key("bench").value("micro_ordering")
      .key("window_values").value(static_cast<std::uint64_t>(window_values))
      .key("windows_per_pass").value(static_cast<std::uint64_t>(kNumWindows));

  json.key("bt_kernel").begin_array();
  double worst_speedup = -1.0;
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    const auto patterns = random_patterns(window_values * kNumWindows,
                                          value_bits(format), 11);
    const auto window_of = [&](std::size_t w) {
      return std::span<const std::uint32_t>(patterns)
          .subspan(w * window_values, window_values);
    };
    // Correctness gate before timing: the two kernels must agree on every
    // window (the differential test suite pins this too, but a perf
    // baseline over diverging kernels would be meaningless).
    std::uint64_t window_bt_sum = 0;
    for (std::size_t w = 0; w < kNumWindows; ++w) {
      const std::uint64_t reference =
          ordering::sequence_bt_reference(window_of(w), format);
      if (reference != ordering::sequence_bt(window_of(w), format)) {
        std::fprintf(stderr,
                     "micro_ordering: packed/naive BT mismatch at window %zu\n",
                     w);
        return 1;
      }
      window_bt_sum += reference;
    }
    const Measurement naive = measure_windows(
        window_values, kNumWindows, [&](std::size_t w) {
          return ordering::sequence_bt_reference(window_of(w), format);
        });
    const Measurement packed = measure_windows(
        window_values, kNumWindows, [&](std::size_t w) {
          return ordering::sequence_bt(window_of(w), format);
        });
    const double speedup = packed.mvalues_per_s / naive.mvalues_per_s;
    if (worst_speedup < 0.0 || speedup < worst_speedup)
      worst_speedup = speedup;
    json.begin_object()
        .key("format").value(to_string(format))
        .key("naive_mvalues_per_s").value(naive.mvalues_per_s)
        .key("packed_mvalues_per_s").value(packed.mvalues_per_s)
        .key("speedup").value(speedup)
        .key("window_bt_sum").value(window_bt_sum)
        .end_object();
  }
  json.end_array();
  json.key("bt_kernel_min_speedup").value(worst_speedup);

  // Kernel tiers: every registered BtKernelBackend timed on fixed-8
  // windows, single-call and batched. The gate CI enforces is
  // tier_best_speedup — the best tier's *batched* throughput over the
  // scalar tier's single-call throughput, i.e. what the batched scenario
  // runner gains over the PR-3 per-window kernels. tier_bt_identical
  // asserts every tier's BT sum equals the naive reference's.
  json.key("kernel_tiers").begin_array();
  {
    const DataFormat format = DataFormat::kFixed8;
    const auto patterns =
        random_patterns(window_values * kNumWindows, value_bits(format), 17);
    const auto window_of = [&](std::size_t w) {
      return std::span<const std::uint32_t>(patterns)
          .subspan(w * window_values, window_values);
    };
    std::uint64_t reference_sum = 0;
    for (std::size_t w = 0; w < kNumWindows; ++w)
      reference_sum += ordering::sequence_bt_reference(window_of(w), format);

    double scalar_single = 0.0;
    double best_batched = 0.0;
    bool tiers_identical = true;
    for (const ordering::BtKernelBackend* backend :
         ordering::registered_kernel_backends()) {
      json.begin_object()
          .key("name").value(backend->name())
          .key("available").value(backend->available());
      if (!backend->available()) {
        json.end_object();
        continue;
      }
      std::vector<std::uint64_t> batch_out(kNumWindows);
      backend->sequence_bt_batch(patterns, format, window_values, batch_out);
      std::uint64_t bt_sum = 0;
      for (const std::uint64_t bt : batch_out) bt_sum += bt;
      if (bt_sum != reference_sum) tiers_identical = false;
      const Measurement single = measure_windows(
          window_values, kNumWindows, [&](std::size_t w) {
            return backend->sequence_bt(window_of(w), format);
          });
      const Measurement batched = measure_windows(
          window_values * kNumWindows, 1, [&](std::size_t) {
            backend->sequence_bt_batch(patterns, format, window_values,
                                       batch_out);
            std::uint64_t fold = 0;
            for (const std::uint64_t bt : batch_out) fold += bt;
            return fold;
          });
      if (backend->name() == "scalar") scalar_single = single.mvalues_per_s;
      if (batched.mvalues_per_s > best_batched)
        best_batched = batched.mvalues_per_s;
      json.key("single_mvalues_per_s").value(single.mvalues_per_s)
          .key("batched_mvalues_per_s").value(batched.mvalues_per_s)
          .key("window_bt_sum").value(bt_sum)
          .end_object();
    }
    json.end_array();
    json.key("tier_best_speedup")
        .value(scalar_single > 0.0 ? best_batched / scalar_single : 0.0);
    json.key("tier_bt_identical").value(tiers_identical);
    if (!tiers_identical) {
      std::fprintf(stderr,
                   "micro_ordering: kernel tiers disagree on the BT sum\n");
      return 1;
    }
  }

  // The HD chain under every available tier, both formats: its min-scan
  // is the kernel method that dominates chain/hybrid rows.
  // tier_chain_identical asserts every tier returns the scalar tier's
  // permutation on every window.
  json.key("chain_tiers").begin_array();
  bool chains_identical = true;
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    const auto patterns = random_patterns(window_values * kNumWindows,
                                          value_bits(format), 19);
    const auto window_of = [&](std::size_t w) {
      return std::span<const std::uint32_t>(patterns)
          .subspan(w * window_values, window_values);
    };
    std::vector<std::vector<std::uint32_t>> reference;
    {
      const ordering::ScopedKernelTier force("scalar");
      for (std::size_t w = 0; w < kNumWindows; ++w)
        reference.push_back(ordering::hd_chain_order(window_of(w), format));
    }
    for (const ordering::BtKernelBackend* backend :
         ordering::registered_kernel_backends()) {
      if (!backend->available()) continue;
      const ordering::ScopedKernelTier force(backend->name());
      for (std::size_t w = 0; w < kNumWindows; ++w)
        if (ordering::hd_chain_order(window_of(w), format) != reference[w])
          chains_identical = false;
      const Measurement m = measure_windows(
          window_values, kNumWindows, [&](std::size_t w) {
            const auto perm = ordering::hd_chain_order(window_of(w), format);
            return static_cast<std::uint64_t>(perm.empty() ? 0 : perm.back());
          });
      json.begin_object()
          .key("name").value(backend->name())
          .key("format").value(to_string(format))
          .key("mvalues_per_s").value(m.mvalues_per_s)
          .end_object();
    }
  }
  json.end_array();
  json.key("tier_chain_identical").value(chains_identical);
  if (!chains_identical) {
    std::fprintf(stderr,
                 "micro_ordering: kernel tiers disagree on the HD chain\n");
    return 1;
  }

  json.key("strategies").begin_array();
  // One shared pattern buffer per format: the draw is seed-fixed, so
  // regenerating it per strategy would only burn setup time.
  const auto fx8_patterns = random_patterns(window_values * kNumWindows, 8, 13);
  const auto fp32_patterns =
      random_patterns(window_values * kNumWindows, 32, 13);
  for (const ordering::OrderingStrategy* strategy :
       ordering::registered_strategies()) {
    for (const DataFormat format :
         {DataFormat::kFixed8, DataFormat::kFloat32}) {
      const auto& patterns =
          format == DataFormat::kFixed8 ? fx8_patterns : fp32_patterns;
      const Measurement m = measure_windows(
          window_values, kNumWindows, [&](std::size_t w) {
            const auto window = std::span<const std::uint32_t>(patterns)
                                    .subspan(w * window_values, window_values);
            const auto perm = strategy->order(window, format);
            return static_cast<std::uint64_t>(perm.empty() ? 0 : perm[0]);
          });
      json.begin_object()
          .key("name").value(strategy->name())
          .key("format").value(to_string(format))
          .key("mvalues_per_s").value(m.mvalues_per_s)
          .end_object();
    }
  }
  json.end_array().end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_ordering: cannot open %s\n", path.c_str());
    return 1;
  }
  out << json.take() << '\n';
  if (!out) {
    std::fprintf(stderr, "micro_ordering: write failed for %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (BT kernel min speedup %.2fx at %zu-value windows)\n",
              path.c_str(), worst_speedup, window_values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t window_values = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 2 || parsed > 1'000'000) {
        std::fprintf(stderr, "micro_ordering: --window must be in [2, 1e6]\n");
        return 1;
      }
      window_values = static_cast<std::size_t>(parsed);
    }
  }
  if (!json_path.empty()) return run_json_bench(json_path, window_values);

  for (const ordering::OrderingStrategy* strategy :
       ordering::registered_strategies()) {
    const std::string name =
        "BM_Strategy/" + std::string(strategy->name()) + "/fx8";
    benchmark::RegisterBenchmark(name.c_str(), BM_Strategy,
                                 strategy->name().data(), DataFormat::kFixed8)
        ->Arg(32)
        ->Arg(256);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
