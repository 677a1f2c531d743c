// Combinational circuit DAG — the structural substrate the timing engines and
// the sizing formulation operate on.
//
// The graph distinguishes primary inputs (schedule-time sources) from gates.
// Primary outputs are gates (or inputs) flagged as driving an output pad; the
// paper takes the statistical maximum over exactly these nodes to form the
// total circuit delay distribution (sec. 4).
//
// A circuit is built incrementally (add_input / add_gate / mark_output) and
// then frozen by finalize(), which validates the structure (pin counts,
// acyclicity, no dangling gates) and compiles the TimingView. The Circuit
// keeps only what its builder set — nodes, fanins, cells, loads, outputs and
// names; fanouts, levels and the topological order are derived once, into the
// view (DESIGN.md §8). Mutating calls after finalize() throw.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/cell_library.h"

namespace statsize::netlist {

class TimingView;

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

enum class NodeKind : std::uint8_t { kPrimaryInput, kGate };

/// Thrown by every structural mutator once finalize() has run. The compiled
/// TimingView served by view() is a snapshot; letting add_gate/set_fanin/...
/// succeed after finalize() would leave it silently stale. Post-finalize
/// edits go through a TimingView *copy* instead (update_node_params — the
/// edit→invalidate→repropagate path, DESIGN.md §12), which the message names
/// so callers hitting this learn the sanctioned route. Derives from
/// std::runtime_error, matching what require_mutable historically threw.
class FinalizedMutationError : public std::runtime_error {
 public:
  explicit FinalizedMutationError(const std::string& operation)
      : std::runtime_error("Circuit::" + operation +
                           ": circuit is finalized; no further edits allowed. Post-finalize "
                           "parameter edits go through a TimingView copy "
                           "(TimingView::update_node_params / ssta::IncrementalEngine), which "
                           "tracks its own epoch instead of staling view().") {}
};

/// Per-gate delay-model constants of eq. 14 as one editable record: the unit
/// a post-finalize library edit replaces via TimingView::update_node_params.
/// Matches the CellType fields the view compiled (t_int, c, c_in, area).
struct NodeParams {
  double t_int = 0.0;  ///< intrinsic delay
  double c = 0.0;      ///< drive "resistance" constant (eq. 14's c)
  double c_in = 0.0;   ///< input pin capacitance at S = 1
  double area = 0.0;   ///< cell area at S = 1
};

struct Node {
  NodeKind kind = NodeKind::kGate;
  int cell = -1;  ///< id into the circuit's CellLibrary; -1 for inputs
  std::string name;
  std::vector<NodeId> fanins;
  bool is_output = false;
  double wire_load = 0.0;  ///< C_load: wiring capacitance on this node's output
  double pad_load = 0.0;   ///< extra capacitance when driving a primary output
};

class Circuit {
 public:
  explicit Circuit(const CellLibrary& library) : library_(&library) {}

  NodeId add_input(std::string name);

  /// Adds a gate of type `cell` driven by `fanins` (inputs or earlier gates).
  /// An empty name is auto-generated ("g<N>").
  NodeId add_gate(int cell, std::vector<NodeId> fanins, std::string name = {});

  /// Adds a gate with every fanin pin unconnected (kInvalidNode), to be wired
  /// later with set_fanin. Unlike add_gate this permits forward references,
  /// which importers need for netlists listed out of dependency order; it is
  /// also the only way to build a cyclic graph for the analyzer to diagnose.
  NodeId add_gate_deferred(int cell, std::string name = {});

  /// Wires pin `pin` of gate `id` to `driver` (any existing node, including
  /// ones added after `id`).
  void set_fanin(NodeId id, int pin, NodeId driver);

  /// Flags `id` as driving a primary output pad with capacitance `pad_load`.
  /// Throws std::invalid_argument for an out-of-range id or a node that is
  /// already an output (the eq. 18a fold would Clark-max it with itself).
  void mark_output(NodeId id, double pad_load = 1.0);

  void set_wire_load(NodeId id, double load);

  /// Freezes the circuit: validates, topologically sorts, and compiles the
  /// flat TimingView every hot sweep runs on (see view()).
  /// Validation runs through analyze::lint_circuit_structure, so the thrown
  /// std::runtime_error lists every structural error at once and names the
  /// offending nodes (including the actual gates forming a combinational
  /// cycle). Circuits built with fanin-before-fanout ordering keep the
  /// identity topological order; deferred construction gets the
  /// lexicographically smallest valid order. Non-finite cell constants or
  /// loads make the view compile throw std::invalid_argument (rule MOD005
  /// reports them at lint time).
  void finalize();

  bool finalized() const { return finalized_; }

  /// The flat structure-of-arrays timing graph compiled by finalize() —
  /// CSR edges, packed node attributes, precomputed loads (timing_view.h).
  /// Immutable and shared by value-copies of this circuit. Throws until
  /// finalize() has run.
  const TimingView& view() const;

  /// Every timing and sizing engine takes a TimingView; a Circuit passes as
  /// its view() (DESIGN.md §8). Throws until finalize() has run.
  operator const TimingView&() const { return view(); }

  const CellLibrary& library() const { return *library_; }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  const CellType& cell_of(NodeId id) const { return library_->cell(node(id).cell); }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_gates() const { return num_gates_; }
  int num_inputs() const { return num_inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// All nodes, inputs first is NOT guaranteed — use topo_order for
  /// dependency-respecting traversal (every fanin precedes its fanouts).
  const std::vector<NodeId>& topo_order() const;

  /// Logic depth in gate levels (longest input-to-output path).
  int depth() const;

 private:
  /// Throws FinalizedMutationError naming `operation` once finalize() ran.
  void require_mutable(const char* operation) const;
  /// The node `id`, or std::invalid_argument naming `operation` and the id.
  Node& node_for(const char* operation, NodeId id);

  const CellLibrary* library_;
  std::shared_ptr<const TimingView> view_;  ///< compiled by finalize()
  std::vector<Node> nodes_;
  std::vector<NodeId> outputs_;
  int num_gates_ = 0;
  int num_inputs_ = 0;
  bool finalized_ = false;
};

/// Aggregate structural statistics (used by benches to report workload shape).
struct CircuitStats {
  int num_gates = 0;
  int num_inputs = 0;
  int num_outputs = 0;
  int depth = 0;
  double avg_fanin = 0.0;
  double avg_fanout = 0.0;
  int max_fanout = 0;
};

CircuitStats compute_stats(const Circuit& circuit);

/// Structural copy of `circuit` bound to another library (cells matched by
/// id, so `library` must be index-compatible — e.g. produced by
/// scale_library_delays). The caller keeps `library` alive for the clone's
/// lifetime.
Circuit clone_with_library(const Circuit& circuit, const CellLibrary& library);

}  // namespace statsize::netlist
