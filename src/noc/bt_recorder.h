#pragma once
// Bit-transition recorder (paper Fig. 8).
//
// One previous-flit register per link; every flit pushed onto a link is
// XOR-compared against that register and the popcount of the difference is
// accumulated. Idle cycles hold the wire state, so no transitions are
// charged while a link is silent. Recording is measurement-only: it models
// the *wires*, not hardware added to the design.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "noc/noc_config.h"

namespace nocbt::noc {

/// Which class of physical link a monitored channel is.
enum class LinkKind : std::uint8_t {
  kInjection,    ///< NI -> router (NI output port)
  kInterRouter,  ///< router -> router
  kEjection,     ///< router -> NI (router local output port)
};

/// Static description of a monitored link.
struct LinkInfo {
  LinkKind kind = LinkKind::kInterRouter;
  std::int32_t src = -1;       ///< source node id (router or NI node)
  std::int32_t dst = -1;       ///< destination node id
  std::int32_t src_port = -1;  ///< output port at the source (routers only)
};

[[nodiscard]] inline bool operator==(const LinkInfo& a,
                                     const LinkInfo& b) noexcept {
  return a.kind == b.kind && a.src == b.src && a.dst == b.dst &&
         a.src_port == b.src_port;
}

/// One link's accumulated measurements, frozen at snapshot time. This is
/// the unit the hw::EnergyModel converts into pJ — keeping it a plain
/// value lets campaign workers copy it out of a worker-private Network
/// before the network is torn down.
struct LinkObservation {
  std::int32_t link_id = -1;
  LinkInfo info;
  std::uint64_t flits = 0;
  std::uint64_t transitions = 0;
};

[[nodiscard]] inline bool operator==(const LinkObservation& a,
                                     const LinkObservation& b) noexcept {
  return a.link_id == b.link_id && a.info == b.info && a.flits == b.flits &&
         a.transitions == b.transitions;
}

/// One link's live wire state + counters. This is the unit of BT
/// accounting shared by the cycle engines (via BtRecorder::observe, one
/// flit at a time) and the analytical engine (whole packets at a time,
/// and thread-local partials absorbed at the end). Keeping the XOR/latch
/// in one place means the two paths cannot drift.
struct LinkAccumulator {
  BitVec prev;  ///< wire state: payload of the last flit that crossed
  std::uint64_t flits = 0;
  std::uint64_t transitions = 0;

  LinkAccumulator() = default;
  explicit LinkAccumulator(unsigned payload_bits) : prev(payload_bits) {}

  /// One flit crossing: charge popcount(prev XOR payload), latch payload.
  /// Returns the transitions charged so callers can mirror them into
  /// per-class totals.
  std::uint64_t observe(const BitVec& payload) {
    const auto bt = static_cast<std::uint64_t>(prev.transitions_to(payload));
    prev = payload;
    transitions += bt;
    ++flits;
    return bt;
  }

  /// A run of flits crossing back-to-back (a whole packet, or a stretch of
  /// one or more packets — see noc::CrossingLog): the boundary transition
  /// against the current wire state plus the run's precomputed internal
  /// transitions, in O(1) popcounts. Exactly equivalent to observe()-ing
  /// every flit in order.
  std::uint64_t observe_packet(const BitVec& first, const BitVec& last,
                               std::uint64_t intra_bt,
                               std::uint64_t packet_flits) {
    const auto bt =
        static_cast<std::uint64_t>(prev.transitions_to(first)) + intra_bt;
    prev = last;
    transitions += bt;
    flits += packet_flits;
    return bt;
  }
};

/// Accumulates bit transitions per link and per link class.
class BtRecorder {
 public:
  BtRecorder(BtScopeConfig scope, unsigned payload_bits)
      : scope_(scope), payload_bits_(payload_bits) {}

  /// Register a link to monitor; returns its link id.
  std::int32_t register_link(const LinkInfo& info);

  /// Record one flit payload crossing link `link_id`.
  void observe(std::int32_t link_id, const BitVec& payload);

  /// Fold a finished per-link partial into link `link_id`. The partial
  /// must describe *all* traffic on that link starting from the reset wire
  /// state (all-zero) — the analytical engine owns each link with exactly
  /// one accumulator, so absorbing is a plain add + wire-state adoption.
  void absorb(std::int32_t link_id, const LinkAccumulator& partial);

  /// BTs summed over the link classes enabled in the scope config — the
  /// "NoC Bit Transition Sum" of Fig. 8.
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// BTs over every monitored link regardless of scope.
  [[nodiscard]] std::uint64_t total_all_links() const noexcept;

  [[nodiscard]] std::uint64_t by_kind(LinkKind kind) const noexcept {
    return kind_bt_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t flits_by_kind(LinkKind kind) const noexcept {
    return kind_flits_[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] unsigned payload_bits() const noexcept { return payload_bits_; }
  [[nodiscard]] const LinkInfo& link_info(std::int32_t id) const {
    return links_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::uint64_t link_bt(std::int32_t id) const {
    return accs_[static_cast<std::size_t>(id)].transitions;
  }
  [[nodiscard]] std::uint64_t link_flits(std::int32_t id) const {
    return accs_[static_cast<std::size_t>(id)].flits;
  }

  /// Frozen copies of every monitored link's counters, in link-id order.
  [[nodiscard]] std::vector<LinkObservation> snapshot() const;

  /// Flits observed on in-scope links.
  [[nodiscard]] std::uint64_t flits_in_scope() const noexcept;

  /// Mean BT per flit over in-scope links (0 when nothing observed).
  [[nodiscard]] double bt_per_flit() const noexcept;

  /// Reset all accumulators and wire states (for multi-phase experiments).
  void reset() noexcept;

 private:
  [[nodiscard]] bool in_scope(LinkKind kind) const noexcept;

  BtScopeConfig scope_;
  unsigned payload_bits_;
  std::vector<LinkInfo> links_;
  std::vector<LinkAccumulator> accs_;  // wire state + counters per link
  std::uint64_t kind_bt_[3] = {0, 0, 0};
  std::uint64_t kind_flits_[3] = {0, 0, 0};
};

/// Human-readable name of a link kind.
[[nodiscard]] std::string to_string(LinkKind kind);

}  // namespace nocbt::noc
