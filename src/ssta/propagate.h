// The one arrival-propagation rule of paper sec. 2/4, written once: at every
// gate a left fold of the pairwise statistical max over the fanin arrivals
// (eq. 18b), then the gate delay added (eq. 4); the circuit delay is the same
// fold over the primary outputs. Every engine — SSTA, corner STA, Monte
// Carlo trials, canonical-form SSTA, the reduced-space tape, the incremental
// worklist and the model audit — folds through fold_max, so the operand
// convention (operand A = accumulator, operand B = the next node in list
// order) lives in exactly one place and the copies cannot drift.
//
// ConeWorklist is the one edit -> dirty-cone worklist that
// IncrementalEngine::apply_edits and ReducedEvaluator::taped_forward share
// (DESIGN.md §12).

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
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

/// One-pass dirty-cone repropagation over one TimingView's structure, kept
/// as two bitmaps over positions in gates_in_topo_order(): delay-dirty gates
/// (mark, mark_edit) and gates queued for a refold. mark_all() flags and
/// queues every gate: a cold sweep.
///
/// walk() visits the flagged positions in ascending order. A dirty gate
/// recomputes its delay slot; a bitwise-changed delay or a queued gate calls
/// refold(g) -> changed, and a changed arrival queues g's fanouts. A gate
/// reads only arrivals of earlier positions and its fanouts sit at later
/// ones, and a delay reads no arrival, so one forward pass is exact. Serial
/// by design: the cone is the small case this exists for. The view is passed
/// to each call rather than held, so an owner that embeds it may be moved.
class ConeWorklist {
 public:
  struct Counts {
    std::size_t delays = 0, refolds = 0;  ///< delays recomputed, arrivals refolded
  };

  ConeWorklist() = default;
  explicit ConeWorklist(const netlist::TimingView& view)
      : position_(static_cast<std::size_t>(view.num_nodes()), -1),
        dirty_((view.gates_in_topo_order().size() + 63) / 64, 0),
        queued_(dirty_.size(), 0) {
    const std::vector<netlist::NodeId>& order = view.gates_in_topo_order();
    for (std::size_t p = 0; p < order.size(); ++p) {
      position_[static_cast<std::size_t>(order[p])] = static_cast<int>(p);
    }
  }

  /// Marks gate `g` delay-dirty (primary inputs have no delay: ignored).
  void mark(netlist::NodeId g) {
    const int p = position_[static_cast<std::size_t>(g)];
    if (p >= 0) flag(dirty_, static_cast<std::size_t>(p));
  }

  /// An edit of `g`'s speed or pin capacitance: `g` itself plus its gate
  /// fanins, whose loads carry g's c_in * S term (eq. 14).
  void mark_edit(const netlist::TimingView& view, netlist::NodeId g) {
    mark(g);
    for (const netlist::NodeId f : view.fanins(g)) mark(f);
  }

  void mark_all(const netlist::TimingView& view) {
    const std::size_t gates = view.gates_in_topo_order().size();
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
      const std::size_t left = gates - w * 64;  // gates from word w on
      dirty_[w] = queued_[w] = left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
    }
  }

  /// The one forward pass, recomputing dirty delays with `calc` at `speed`
  /// into `delay`; clears both bitmaps.
  template <class Refold>
  Counts walk(const netlist::TimingView& view, const DelayCalculator& calc,
              const std::vector<double>& speed, std::vector<stat::NormalRV>& delay,
              Refold&& refold) {
    const netlist::NodeId* order = view.gates_in_topo_order().data();
    Counts counts;
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
      std::uint64_t dirty = std::exchange(dirty_[w], 0);
      std::uint64_t queued = std::exchange(queued_[w], 0);
      while (dirty | queued) {
        const std::uint64_t bit = (dirty | queued) & -(dirty | queued);
        const netlist::NodeId g = order[w * 64 + static_cast<std::size_t>(std::countr_zero(bit))];
        bool run = (queued & bit) != 0;
        if (dirty & bit) {
          ++counts.delays;
          const stat::NormalRV d = calc.delay(g, speed);
          stat::NormalRV& slot = delay[static_cast<std::size_t>(g)];
          run = run || !same_bits(d, slot);
          slot = d;
        }
        dirty &= ~bit;
        queued &= ~bit;
        if (!run) continue;
        ++counts.refolds;
        if (!refold(g)) continue;
        // Fanouts sit at later positions: this word's stay in the register.
        for (const netlist::NodeId fo : view.fanouts(g)) {
          const std::size_t q = static_cast<std::size_t>(position_[static_cast<std::size_t>(fo)]);
          if (q / 64 == w) {
            queued |= std::uint64_t{1} << (q % 64);
          } else {
            flag(queued_, q);
          }
        }
      }
    }
    return counts;
  }

 private:
  static void flag(std::vector<std::uint64_t>& bits, std::size_t p) {
    bits[p / 64] |= std::uint64_t{1} << (p % 64);
  }

  std::vector<int> position_;         ///< NodeId -> topological gate position; -1 for inputs
  std::vector<std::uint64_t> dirty_;  ///< delay to recompute
  std::vector<std::uint64_t> queued_;  ///< arrival to refold
};

}  // namespace statsize::ssta
