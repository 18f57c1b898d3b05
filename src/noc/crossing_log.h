#pragma once
// Per-link crossing log: which flits crossed each link, in wire order.
//
// Link timing does not depend on payload bits — routers and NIs never read
// them — so one network run of a schedule fixes, for every link, the order
// in which the schedule's flits cross it. A CrossingLog records that order
// once; replay() then charges any other payload set for the same schedule
// (another ordering of the same windows) through the same LinkAccumulator
// the engines charge, with no network at all.
//
// Flits are numbered globally: packet p's flit f is flit
// first_flit(p) + f, packets in injection order. The log is CSR by link
// id: link L's runs are encoded in words[offsets[L], offsets[L + 1]). A
// run is a stretch of consecutively numbered flits that crossed the link
// back to back; a one-flit run is its flit number (one word), a longer
// run its first flit number tagged with kLongRun followed by its length
// (two words). Under zero load a run is a whole packet; under contention
// flits of different virtual channels interleave and most runs are one
// flit long, so a run never costs more than 4 bytes per flit crossing.
//
// Replay charges a run as one boundary popcount against the link's wire
// state plus the transitions inside the run, read off a per-flit prefix
// sum (LinkAccumulator::observe_packet). Two flits that cross back to back
// charge their XOR whether or not they share a packet, so a run may span
// a packet boundary.

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "noc/bt_recorder.h"

namespace nocbt::noc {

struct CrossingLog {
  /// Tags the first word of a run longer than one flit.
  static constexpr std::uint32_t kLongRun = 1u << 31;

  std::vector<std::size_t> offsets;   ///< link_count() + 1 entries
  std::vector<std::uint32_t> words;   ///< encoded runs, link-major
  /// Flit count of every packet the run carried, by packet index.
  std::vector<std::uint32_t> packet_flits;

  [[nodiscard]] std::size_t link_count() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  /// Call f(first_flit, flits) for each run of link `id`, in wire order.
  template <typename F>
  void for_each_run(std::size_t id, F&& f) const {
    for (std::size_t i = offsets[id]; i < offsets[id + 1];) {
      const std::uint32_t w = words[i];
      if (w & kLongRun) {
        f(w & ~kLongRun, words[i + 1]);
        i += 2;
      } else {
        f(w, std::uint32_t{1});
        i += 1;
      }
    }
  }

  /// Charge `payloads` — every packet's flits, concatenated in packet
  /// order, `layout[p]` of them for packet p — over every logged link, in
  /// wire order, into `into`: a recorder with this log's link table and
  /// no traffic yet (fresh or reset()). The result is exactly what a
  /// network run of the same schedule carrying `payloads` records. Throws
  /// std::invalid_argument when the packet layout differs from the logged
  /// run's or the link tables differ in size.
  void replay(std::span<const BitVec> payloads,
              std::span<const std::uint32_t> layout, BtRecorder& into) const;
};

/// Collects crossings link by link while a run proceeds.
class CrossingLogBuilder {
 public:
  explicit CrossingLogBuilder(std::size_t links)
      : per_link_(links), open_(links) {}

  /// Declare the next packet (packet indexes count up from 0 in call
  /// order) and its flit count; its flits can then cross links. Throws
  /// std::length_error past 2^31 flits in one network run.
  void add_packet(std::uint32_t flits);

  /// Flit `seq` of `packet` crossed `link`; calls per link come in wire
  /// order.
  void add_flit(std::size_t link, std::uint32_t packet, std::uint32_t seq) {
    const std::uint32_t flit = first_flit_[packet] + seq;
    std::vector<std::uint32_t>& words = per_link_[link];
    OpenRun& run = open_[link];
    if (!words.empty() && flit == run.last + 1) {
      if (words[run.at] & CrossingLog::kLongRun) {
        ++words[run.at + 1];
      } else {
        words[run.at] |= CrossingLog::kLongRun;
        words.push_back(2);
      }
    } else {
      run.at = words.size();
      words.push_back(flit);
    }
    run.last = flit;
  }

  /// Flatten into CSR form.
  [[nodiscard]] CrossingLog finish() &&;

 private:
  /// The run each link's next flit may extend.
  struct OpenRun {
    std::size_t at = 0;      ///< its first word
    std::uint32_t last = 0;  ///< its last flit number
  };
  std::vector<std::vector<std::uint32_t>> per_link_;
  std::vector<OpenRun> open_;
  std::vector<std::uint32_t> first_flit_;
  std::vector<std::uint32_t> packet_flits_;
  std::uint32_t total_flits_ = 0;
};

}  // namespace nocbt::noc
