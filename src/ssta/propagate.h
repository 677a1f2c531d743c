// The one arrival-propagation rule of paper sec. 2/4, written once: at every
// gate a left fold of the pairwise statistical max over the fanin arrivals
// (eq. 18b), then the gate delay added (eq. 4); the circuit delay is the same
// fold over the primary outputs. Every engine — SSTA, corner STA, Monte
// Carlo trials, canonical-form SSTA, the reduced-space tape, the incremental
// worklist and the model audit — folds through fold_max, so the operand
// convention (operand A = accumulator, operand B = the next node in list
// order) lives in exactly one place and the copies cannot drift.
//
// ConeWorklist is the one edit -> dirty-cone -> level-bucket worklist that
// IncrementalEngine::apply_edits and ReducedEvaluator::taped_forward share
// (DESIGN.md §12). A cold tape is the same worklist with every gate seeded.

#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "netlist/timing_view.h"
#include "stat/normal.h"

namespace statsize::ssta {

/// Left fold of `max` over values[nodes[0]], values[nodes[1]], ... (nodes
/// non-empty): acc = values[nodes[0]], then acc = max(acc, values[nodes[k]])
/// for k = 1, 2, ... `max` may also take the position k as a third argument
/// (to record step k of a tape, or to remember which node won).
template <class Nodes, class Values, class Max>
auto fold_max(const Nodes& nodes, const Values& values, Max&& max) {
  auto acc = values[static_cast<std::size_t>(nodes[0])];
  for (std::size_t k = 1; k < nodes.size(); ++k) {
    const auto& b = values[static_cast<std::size_t>(nodes[k])];
    if constexpr (std::is_invocable_v<Max&, decltype(acc)&, decltype(b), std::size_t>) {
      acc = max(acc, b, k);
    } else {
      acc = max(acc, b);
    }
  }
  return acc;
}

/// Bitwise moment comparison — the worklist's propagation-termination
/// predicate. Exact bit equality (not ==) keeps the contract conservative:
/// any representation change, however tiny, keeps propagating; only a
/// byte-identical value can cut the cone, and a byte-identical value by
/// construction yields byte-identical downstream folds.
inline bool same_bits(const stat::NormalRV& a, const stat::NormalRV& b) {
  return std::memcmp(&a.mu, &b.mu, sizeof(double)) == 0 &&
         std::memcmp(&a.var, &b.var, sizeof(double)) == 0;
}

/// Level-ordered dirty-cone repropagation over one TimingView's structure:
///
///   1. mark() / mark_edit() collect the delay-dirty gates;
///   2. recompute_dirty(recompute) calls recompute(g) -> changed on each and
///      seeds the gates whose delay changed;
///   3. drain(refold) visits the seeded gates level by level, lowest first,
///      calling refold(g) -> changed; a changed arrival seeds g's fanouts.
///
/// A gate reads only strictly-lower-level arrivals and its fanouts sit at
/// strictly higher levels, so the bucket being drained never grows and the
/// order within a level cannot change any value. Serial by design: the cone
/// is the small case this exists for. The view is passed to each call rather
/// than held, so an owner that embeds its view may be moved.
class ConeWorklist {
 public:
  ConeWorklist() = default;
  explicit ConeWorklist(const netlist::TimingView& view)
      : dirty_mask_(static_cast<std::size_t>(view.num_nodes()), 0),
        queued_mask_(static_cast<std::size_t>(view.num_nodes()), 0),
        bucket_(static_cast<std::size_t>(view.num_levels())) {}

  /// Marks gate `g` delay-dirty (primary inputs have no delay and are
  /// ignored).
  void mark(const netlist::TimingView& view, netlist::NodeId g) {
    if (!view.is_gate(g)) return;
    unsigned char& m = dirty_mask_[static_cast<std::size_t>(g)];
    if (!m) {
      m = 1;
      dirty_.push_back(g);
    }
  }

  /// An edit of `g`'s speed or pin capacitance: `g` itself plus its gate
  /// fanins, whose loads carry g's c_in * S term (eq. 14).
  void mark_edit(const netlist::TimingView& view, netlist::NodeId g) {
    mark(view, g);
    for (const netlist::NodeId f : view.fanins(g)) mark(view, f);
  }

  /// Queues gate `g` for a refold at its level (idempotent until drained).
  void seed(const netlist::TimingView& view, netlist::NodeId g) {
    unsigned char& m = queued_mask_[static_cast<std::size_t>(g)];
    if (m) return;
    m = 1;
    // Gate levels are 1-based (inputs sit at level 0).
    bucket_[static_cast<std::size_t>(view.level(g) - 1)].push_back(g);
  }

  /// recompute(g) -> changed for every marked gate, in mark order; seeds
  /// the changed ones and clears the dirty set. Returns the number of
  /// delays recomputed.
  template <class Recompute>
  std::size_t recompute_dirty(const netlist::TimingView& view, Recompute&& recompute) {
    for (const netlist::NodeId g : dirty_) {
      dirty_mask_[static_cast<std::size_t>(g)] = 0;
      if (recompute(g)) seed(view, g);
    }
    const std::size_t count = dirty_.size();
    dirty_.clear();
    return count;
  }

  /// Drains the buckets; returns the number of gates refolded.
  template <class Refold>
  std::size_t drain(const netlist::TimingView& view, Refold&& refold) {
    std::size_t refolded = 0;
    for (std::vector<netlist::NodeId>& bucket : bucket_) {
      refolded += bucket.size();
      for (const netlist::NodeId g : bucket) {
        queued_mask_[static_cast<std::size_t>(g)] = 0;
        if (!refold(g)) continue;
        for (const netlist::NodeId fo : view.fanouts(g)) seed(view, fo);
      }
      bucket.clear();
    }
    return refolded;
  }

 private:
  std::vector<netlist::NodeId> dirty_;
  std::vector<unsigned char> dirty_mask_;
  std::vector<unsigned char> queued_mask_;
  std::vector<std::vector<netlist::NodeId>> bucket_;  ///< per gate level
};

}  // namespace statsize::ssta
