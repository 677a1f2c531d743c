// Flat, immutable structure-of-arrays compilation of a finalized Circuit —
// the cache-friendly timing graph every hot sweep traverses (DESIGN.md §8).
//
// The Circuit (per-node heap vectors, bounds-checked node() access) is the
// build record: nodes, fanins, cells, loads, outputs and names. Everything
// derived from it lives here, computed once by Circuit::finalize():
//
//   * CSR fanin/fanout edge arrays (offsets + one flat NodeId array each),
//   * packed per-node kind / is_output / level / cell arrays,
//   * per-gate delay-model constants (t_int, c, c_in, area, Boolean function)
//     copied out of the CellLibrary once,
//   * per-node static load (wire_load + pad_load-if-output) and a
//     per-fanout-edge precomputed sink C_in, so load_capacitance (eq. 14's
//     C_load + sum C_in,i S_i) is a contiguous dot product with no Node or
//     CellLibrary chasing,
//   * the topological order, the gates-only topological order the sweeps and
//     the dirty-cone worklist walk, the primary outputs, and the CSR level
//     partition the adjoint walks,
//   * the node names, in one immutable table every copy of the view shares
//     (full-space variable names and diagnostics read them).
//
// The view is the one input of every timing and sizing engine (ssta,
// core); a Circuit converts to its view(), so callers holding a Circuit
// pass it unchanged.
//
// Derivation orders, which every fold order depends on: fanins in pin order;
// each driver's fanouts in ascending sink id, one entry per pin; a gate's
// level is 1 + max fanin level (inputs at 0), and each level lists its gates
// in ascending topological position. Every stored double is a copy of the
// Node or CellLibrary value. Circuit::finalize() compiles and caches the
// view (Circuit::view()); that shared snapshot is held const and never
// mutated, and a Circuit cannot change after finalize()
// (FinalizedMutationError), so the two can never disagree. Post-finalize
// (ECO) edits operate on value *copies* of the view instead: TimingView is
// all-vector and cheaply copyable, and update_node_params() mutates such a
// copy in place and bumps its epoch, the one edit record downstream caches
// compare against (DESIGN.md §12).
//
// Compilation validates that every precomputed constant is finite and throws
// std::invalid_argument naming the offending cell/node otherwise; `statsize
// lint` diagnoses the same defect earlier as rule MOD005.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/cell_library.h"
#include "netlist/circuit.h"

namespace statsize::netlist {

/// Non-owning contiguous run of NodeIds (a CSR row of the view).
struct NodeSpan {
  const NodeId* ptr = nullptr;
  std::size_t count = 0;

  const NodeId* begin() const { return ptr; }
  const NodeId* end() const { return ptr + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  NodeId operator[](std::size_t i) const { return ptr[i]; }
  NodeId front() const { return ptr[0]; }
};

class TimingView {
 public:
  int num_nodes() const { return static_cast<int>(kind_.size()); }
  int num_gates() const { return num_gates_; }
  int num_inputs() const { return num_inputs_; }
  int num_levels() const { return static_cast<int>(level_offset_.size()) - 1; }

  NodeKind kind(NodeId id) const { return kind_[static_cast<std::size_t>(id)]; }
  bool is_gate(NodeId id) const { return kind(id) == NodeKind::kGate; }
  bool is_output(NodeId id) const { return is_output_[static_cast<std::size_t>(id)] != 0; }
  /// Topological level: 0 for primary inputs, 1 + max fanin level for gates.
  int level(NodeId id) const { return level_[static_cast<std::size_t>(id)]; }
  /// The node's name in the source netlist. Copies of a view share one
  /// immutable name table, so an edited copy copies no strings.
  const std::string& name(NodeId id) const { return (*names_)[static_cast<std::size_t>(id)]; }
  /// CellLibrary id of the gate's cell; -1 for primary inputs.
  int cell(NodeId id) const { return cell_[static_cast<std::size_t>(id)]; }
  CellFunction function(NodeId id) const { return function_[static_cast<std::size_t>(id)]; }

  // Per-gate delay-model constants (eq. 14), 0 for primary inputs.
  double t_int(NodeId id) const { return t_int_[static_cast<std::size_t>(id)]; }
  double drive_c(NodeId id) const { return drive_c_[static_cast<std::size_t>(id)]; }
  double c_in(NodeId id) const { return c_in_[static_cast<std::size_t>(id)]; }
  double area(NodeId id) const { return area_[static_cast<std::size_t>(id)]; }
  /// wire_load + pad_load-if-output: the constant part of eq. 14's C_load.
  double static_load(NodeId id) const { return static_load_[static_cast<std::size_t>(id)]; }

  /// Gate `id`'s delay-model constants as one record (0s for inputs).
  NodeParams node_params(NodeId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return {t_int_[i], drive_c_[i], c_in_[i], area_[i]};
  }

  // --- Post-finalize edit protocol (DESIGN.md §12) --------------------------
  //
  // The view Circuit::view() serves stays an immutable snapshot; ECO edits
  // mutate a value *copy* through update_node_params. Each successful edit
  // bumps epoch(), so a cache built on the view (core::ReducedEvaluator's
  // tape) detects a stale base by epoch mismatch instead of going silently
  // wrong.

  /// Replaces gate `id`'s delay-model constants: t_int/c/c_in/area, plus the
  /// derived per-edge pin cap on every fanin→id fanout edge (a gate wired
  /// twice to one driver has both edges rewritten). Throws
  /// std::invalid_argument — view unchanged — if `id` is not a gate or any
  /// value is non-finite (the same validation compilation applies).
  void update_node_params(NodeId id, const NodeParams& params);

  /// Monotone edit counter: 0 for a freshly compiled (or copied-from-
  /// pristine) view, +1 per successful update_node_params.
  std::uint64_t epoch() const { return epoch_; }

  /// Fanins of `id` in pin order (empty for primary inputs).
  NodeSpan fanins(NodeId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return {fanin_.data() + fanin_offset_[i], fanin_offset_[i + 1] - fanin_offset_[i]};
  }

  /// Fanout gates of `id` in ascending id, one entry per connected pin.
  NodeSpan fanouts(NodeId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return {fanout_.data() + fanout_offset_[i], fanout_offset_[i + 1] - fanout_offset_[i]};
  }

  /// Precomputed sink-pin capacitance (C_in at S = 1) per fanout edge of
  /// `id`, aligned with fanouts(id).
  const double* fanout_cin(NodeId id) const {
    return fanout_cin_.data() + fanout_offset_[static_cast<std::size_t>(id)];
  }

  /// Total load at `id` under `speed` (indexed by NodeId): eq. 14's
  /// C_load + sum C_in,i S_i as one contiguous dot product over the node's
  /// fanout edges, folded in fanouts(id) order.
  double load_capacitance(NodeId id, const double* speed) const {
    const std::size_t i = static_cast<std::size_t>(id);
    double cap = static_load_[i];
    const std::size_t end = fanout_offset_[i + 1];
    for (std::size_t e = fanout_offset_[i]; e < end; ++e) {
      cap += fanout_cin_[e] * speed[static_cast<std::size_t>(fanout_[e])];
    }
    return cap;
  }

  /// Batched eq. 14 over every node at once: `cap[id]` receives the same
  /// value load_capacitance(id, speed) returns, for all num_nodes() ids.
  /// Restructured for SIMD — one flat pass computes every fanout edge's
  /// C_in,e * S_sink product (a long contiguous multiply the compiler
  /// auto-vectorizes, instead of num_nodes short gather loops), then each
  /// node left-folds its own edge products in edge order seeded with its
  /// static load. Same multiplications, same per-node addition order as the
  /// per-node loop, hence bit-identical results.
  void batch_load_capacitance(const double* speed, double* cap) const;

  /// Every node, fanins before fanouts (Circuit::topo_order() reads it).
  const std::vector<NodeId>& topo_order() const { return topo_; }

  /// The gates of topo_order() in the same relative order — the serial
  /// sweeps' iteration set, with the kind branch compiled out.
  const std::vector<NodeId>& gates_in_topo_order() const { return gate_topo_; }

  /// Primary outputs in mark_output order (the eq. 18a fold order).
  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// Gates of level `l` (0-based; level(id) == l + 1) in ascending topo
  /// position, as one flat CSR array. Gates in one level do not depend on
  /// each other, so a sweep may run them concurrently.
  NodeSpan level_gates(int l) const {
    const std::size_t k = static_cast<std::size_t>(l);
    return {level_gate_.data() + level_offset_[k], level_offset_[k + 1] - level_offset_[k]};
  }

 private:
  friend class Circuit;

  /// Compiles the build record of `circuit` in the topological order `topo`
  /// (finalize() passes the analyzer's). Throws std::invalid_argument if
  /// any compiled constant (cell t_int / c / c_in / area, wire or pad load)
  /// is non-finite.
  TimingView(const Circuit& circuit, std::vector<NodeId> topo);

  int num_gates_ = 0;
  int num_inputs_ = 0;

  std::uint64_t epoch_ = 0;

  std::shared_ptr<const std::vector<std::string>> names_;
  std::vector<NodeKind> kind_;
  std::vector<unsigned char> is_output_;
  std::vector<int> level_;
  std::vector<int> cell_;
  std::vector<CellFunction> function_;

  std::vector<double> t_int_;
  std::vector<double> drive_c_;
  std::vector<double> c_in_;
  std::vector<double> area_;
  std::vector<double> static_load_;

  std::vector<std::size_t> fanin_offset_;  ///< size num_nodes + 1
  std::vector<NodeId> fanin_;
  std::vector<std::size_t> fanout_offset_;  ///< size num_nodes + 1
  std::vector<NodeId> fanout_;
  std::vector<double> fanout_cin_;  ///< aligned with fanout_

  std::vector<NodeId> topo_;
  std::vector<NodeId> gate_topo_;
  std::vector<NodeId> outputs_;
  std::vector<std::size_t> level_offset_;  ///< size num_levels + 1
  std::vector<NodeId> level_gate_;
};

/// Structural analytics over a compiled TimingView — the raw numbers the
/// lint driver's graph step (`statsize lint`, rules GRF0xx) judges. Everything here
/// is a pure function of the CSR arrays: no timing model is evaluated.
struct TimingViewStats {
  int num_nodes = 0;
  int num_gates = 0;
  int num_inputs = 0;
  int num_outputs = 0;
  std::size_t num_edges = 0;  ///< fanin edges (== fanout edges)

  // Level-width histogram: width of each gate level, plus its summary.
  std::vector<std::size_t> level_widths;
  std::size_t min_level_width = 0;
  std::size_t max_level_width = 0;
  double mean_level_width = 0.0;

  // Fanout skew: a few very-high-fanout nets unbalance level chunks.
  std::size_t max_fanout = 0;
  NodeId max_fanout_node = kInvalidNode;
  double mean_gate_fanout = 0.0;

  // Reconvergence: the first Betti number of the underlying undirected graph
  // (edges - nodes + weakly-connected components) counts independent
  // reconvergent path pairs — 0 for a tree/forest. High ratios mean the
  // independence-SSTA correlation error grows (PAPERS.md, canonical SSTA).
  std::size_t reconvergence_count = 0;
  double reconvergence_ratio = 0.0;  ///< count / max(1, num_edges)
  int num_components = 0;

  // Max-cone statistics over the sampled primary outputs: the transitive
  // fanin cone is the unit of work an incremental (ECO) re-analysis touches.
  std::size_t max_cone_size = 0;  ///< nodes in the largest sampled cone
  NodeId max_cone_output = kInvalidNode;
  double mean_cone_size = 0.0;
  int sampled_outputs = 0;  ///< cones actually traversed (capped for scale)
};

/// Computes structural statistics in O(edges + sampled_outputs * cone size).
/// At most `max_cone_samples` output cones are traversed (evenly strided when
/// the circuit has more outputs); 0 skips cone statistics entirely.
TimingViewStats compute_view_stats(const TimingView& view, int max_cone_samples = 64);

/// Self-check of the CSR invariants the sweeps rely on (offsets
/// monotone and exactly tiling, edge targets in range, fanin/fanout symmetry,
/// topological order consistent with edges, level partition matching the
/// per-node level array, every gate in exactly one level). Returns one
/// human-readable violation description per defect, empty when sound. The
/// audit reports violations as rule GRF001; a non-empty result means the
/// view (or the Circuit finalize that built it) has a bug.
std::vector<std::string> check_view_invariants(const TimingView& view);

}  // namespace statsize::netlist
