#include "ordering/bt_kernels.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/bitops.h"
#include "ordering/bt_kernel_backend.h"

namespace nocbt::ordering {

namespace detail {

void pack_into(std::uint64_t* words, std::span<const std::uint32_t> patterns,
               unsigned bits, std::uint64_t mask) noexcept {
  if (64 % bits == 0) {
    // 8- and 32-bit values never straddle a word: assemble each word in a
    // register and store it once.
    const unsigned per_word = 64 / bits;
    std::size_t i = 0;
    for (std::size_t w = 0; i < patterns.size(); ++w) {
      const std::size_t n =
          std::min<std::size_t>(per_word, patterns.size() - i);
      std::uint64_t word = 0;
      for (std::size_t k = 0; k < n; ++k)
        word |= (patterns[i + k] & mask) << (k * bits);
      words[w] = word;
      i += n;
    }
    return;
  }
  const std::size_t word_count = (patterns.size() * bits + 63) / 64;
  std::fill_n(words, word_count, std::uint64_t{0});
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const std::size_t pos = i * bits;
    const unsigned shift = static_cast<unsigned>(pos & 63);
    const std::uint64_t value = patterns[i] & mask;
    words[pos >> 6] |= value << shift;
    if (shift + bits > 64) words[(pos >> 6) + 1] |= value >> (64 - shift);
  }
}

std::uint64_t sequence_bt_words(const std::uint64_t* words,
                                std::size_t word_count, std::size_t value_count,
                                unsigned bits) noexcept {
  if (value_count < 2 || bits == 0) return 0;
  // Bit j of (stream XOR (stream >> bits)) is the flip between bit j of
  // value i and the same slot bit of value i+1; summing popcounts over the
  // first (count-1)*bits positions yields exactly the sequence BT.
  const std::size_t limit = (value_count - 1) * bits;
  const std::size_t nwords = (limit + 63) / 64;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    std::uint64_t shifted = words[i] >> bits;
    if (i + 1 < word_count) shifted |= words[i + 1] << (64 - bits);
    std::uint64_t x = words[i] ^ shifted;
    const std::size_t bits_here = std::min<std::size_t>(64, limit - i * 64);
    if (bits_here < 64) x &= low_mask(static_cast<unsigned>(bits_here));
    total += static_cast<std::uint64_t>(popcount64(x));
  }
  return total;
}

}  // namespace detail

PackedStream pack_patterns(std::span<const std::uint32_t> patterns,
                           DataFormat format) {
  PackedStream out;
  pack_patterns_into(out, patterns, format);
  return out;
}

void pack_patterns_into(PackedStream& out,
                        std::span<const std::uint32_t> patterns,
                        DataFormat format) {
  const unsigned bits = value_bits(format);
  out.value_count = patterns.size();
  out.bits_per_value = bits;
  // resize (not assign) reuses the buffer without re-zeroing it:
  // detail::pack_into writes every word including the ragged last one.
  out.words.resize((patterns.size() * bits + 63) / 64);
  detail::pack_into(out.words.data(), patterns, bits, low_mask(bits));
}

std::uint64_t sequence_bt(const PackedStream& stream) noexcept {
  return detail::sequence_bt_words(stream.words.data(), stream.words.size(),
                                   stream.value_count, stream.bits_per_value);
}

std::uint64_t sequence_bt(std::span<const std::uint32_t> patterns,
                          DataFormat format) {
  return active_kernel_backend().sequence_bt(patterns, format);
}

std::vector<std::uint64_t> sequence_bt_batch(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values) {
  if (window_values == 0)
    throw std::invalid_argument("sequence_bt_batch: window_values == 0");
  std::vector<std::uint64_t> out(
      (patterns.size() + window_values - 1) / window_values);
  active_kernel_backend().sequence_bt_batch(patterns, format, window_values,
                                            out);
  return out;
}

std::uint64_t permuted_sequence_bt(std::span<const std::uint32_t> patterns,
                                   std::span<const std::uint32_t> perm,
                                   DataFormat format) {
  // Scored on the kernel tier: a scalar XOR-popcount loop here costs one
  // libgcc popcount call per value, since this file is built without
  // -mpopcnt. The per-thread copy stops allocating once it has grown.
  thread_local std::vector<std::uint32_t> ordered;
  ordered.resize(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) ordered[i] = patterns[perm[i]];
  return sequence_bt(ordered, format);
}

std::uint64_t sequence_bt_reference(std::span<const std::uint32_t> patterns,
                                    DataFormat format) {
  const unsigned bits = value_bits(format);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i + 1 < patterns.size(); ++i)
    for (unsigned b = 0; b < bits; ++b)
      total += ((patterns[i] >> b) ^ (patterns[i + 1] >> b)) & 1u;
  return total;
}

}  // namespace nocbt::ordering
