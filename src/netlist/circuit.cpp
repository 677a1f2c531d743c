#include "netlist/circuit.h"

#include <algorithm>
#include <stdexcept>

#include "analyze/circuit_lint.h"
#include "netlist/timing_view.h"

namespace statsize::netlist {

void Circuit::require_mutable(const char* operation) const {
  if (finalized_) throw FinalizedMutationError(operation);
}

Node& Circuit::node_for(const char* operation, NodeId id) {
  if (id < 0 || id >= static_cast<NodeId>(nodes_.size())) {
    throw std::invalid_argument(std::string(operation) + ": node id " + std::to_string(id) +
                                " out of range");
  }
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId Circuit::add_input(std::string name) {
  require_mutable("add_input");
  Node n;
  n.kind = NodeKind::kPrimaryInput;
  n.name = name.empty() ? "pi" + std::to_string(num_inputs_) : std::move(name);
  nodes_.push_back(std::move(n));
  ++num_inputs_;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

NodeId Circuit::add_gate(int cell, std::vector<NodeId> fanins, std::string name) {
  require_mutable("add_gate");
  const CellType& type = library_->cell(cell);  // throws on bad id
  if (name.empty()) name = "g" + std::to_string(num_gates_);
  if (static_cast<int>(fanins.size()) != type.num_inputs) {
    throw std::invalid_argument("add_gate: gate '" + name + "': cell " + type.name + " expects " +
                                std::to_string(type.num_inputs) + " fanins, got " +
                                std::to_string(fanins.size()));
  }
  const NodeId self = static_cast<NodeId>(nodes_.size());
  for (NodeId f : fanins) {
    if (f < 0 || f >= self) {
      throw std::invalid_argument("add_gate: gate '" + name + "': fanin id " + std::to_string(f) +
                                  " out of range (forward ref?)");
    }
  }
  Node n;
  n.kind = NodeKind::kGate;
  n.cell = cell;
  n.name = std::move(name);
  n.fanins = std::move(fanins);
  nodes_.push_back(std::move(n));
  ++num_gates_;
  return self;
}

NodeId Circuit::add_gate_deferred(int cell, std::string name) {
  require_mutable("add_gate_deferred");
  const CellType& type = library_->cell(cell);  // throws on bad id
  Node n;
  n.kind = NodeKind::kGate;
  n.cell = cell;
  n.name = name.empty() ? "g" + std::to_string(num_gates_) : std::move(name);
  n.fanins.assign(static_cast<std::size_t>(type.num_inputs), kInvalidNode);
  nodes_.push_back(std::move(n));
  ++num_gates_;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

void Circuit::set_fanin(NodeId id, int pin, NodeId driver) {
  require_mutable("set_fanin");
  Node& n = node_for("set_fanin", id);
  if (n.kind != NodeKind::kGate) {
    throw std::invalid_argument("set_fanin: node '" + n.name + "' is not a gate");
  }
  if (pin < 0 || pin >= static_cast<int>(n.fanins.size())) {
    throw std::invalid_argument("set_fanin: gate '" + n.name + "' has no pin " +
                                std::to_string(pin));
  }
  if (driver < 0 || driver >= static_cast<NodeId>(nodes_.size())) {
    throw std::invalid_argument("set_fanin: driver id " + std::to_string(driver) +
                                " out of range");
  }
  n.fanins[static_cast<std::size_t>(pin)] = driver;
}

void Circuit::mark_output(NodeId id, double pad_load) {
  require_mutable("mark_output");
  Node& n = node_for("mark_output", id);
  if (n.is_output) {
    throw std::invalid_argument("mark_output: node '" + n.name + "' is already a primary output");
  }
  n.is_output = true;
  n.pad_load = pad_load;
  outputs_.push_back(id);
}

void Circuit::set_wire_load(NodeId id, double load) {
  require_mutable("set_wire_load");
  Node& n = node_for("set_wire_load", id);
  if (load < 0.0) {
    throw std::invalid_argument("set_wire_load: node '" + n.name +
                                "': wire load must be non-negative");
  }
  n.wire_load = load;
}

void Circuit::finalize() {
  require_mutable("finalize");

  // The structural analyzer performs all validation (pin wiring, pin counts,
  // acyclicity with cycle extraction, output reachability) and produces the
  // topological order; error-severity findings become one exception that
  // names every offending node.
  std::vector<NodeId> topo;
  const analyze::Report report = analyze::lint_circuit_structure(*this, &topo);
  if (report.has_errors()) {
    throw std::runtime_error("circuit validation failed:\n" + report.errors_text());
  }

  // The view derives fanouts and levels from the fanins and this order. A
  // failed compile (non-finite cell constants/loads, see MOD005) throws
  // before finalized_ is set, so the circuit is never half-frozen.
  view_.reset(new TimingView(*this, std::move(topo)));
  finalized_ = true;
}

const TimingView& Circuit::view() const {
  if (!finalized_) throw std::runtime_error("circuit must be finalized first");
  return *view_;
}

const std::vector<NodeId>& Circuit::topo_order() const { return view().topo_order(); }

int Circuit::depth() const { return view().num_levels(); }

CircuitStats compute_stats(const Circuit& circuit) {
  CircuitStats s;
  s.num_gates = circuit.num_gates();
  s.num_inputs = circuit.num_inputs();
  s.num_outputs = static_cast<int>(circuit.outputs().size());
  s.depth = circuit.depth();
  const TimingView& view = circuit.view();
  long fanin_sum = 0;
  long fanout_sum = 0;
  for (NodeId id : view.topo_order()) {
    const int fanouts = static_cast<int>(view.fanouts(id).size());
    if (view.is_gate(id)) fanin_sum += static_cast<long>(view.fanins(id).size());
    fanout_sum += fanouts;
    s.max_fanout = std::max(s.max_fanout, fanouts);
  }
  if (s.num_gates > 0) s.avg_fanin = static_cast<double>(fanin_sum) / s.num_gates;
  const int drivers = s.num_gates + s.num_inputs;
  if (drivers > 0) s.avg_fanout = static_cast<double>(fanout_sum) / drivers;
  return s;
}

Circuit clone_with_library(const Circuit& circuit, const CellLibrary& library) {
  if (library.size() < circuit.library().size()) {
    throw std::invalid_argument("replacement library is missing cells");
  }
  Circuit clone(library);
  // Copy in id order (NOT topo order — imported circuits may have a
  // non-identity topological order) so node ids survive; deferred
  // construction tolerates fanins that have not been copied yet.
  const int n = circuit.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = circuit.node(id);
    NodeId copied;
    if (node.kind == NodeKind::kPrimaryInput) {
      copied = clone.add_input(node.name);
    } else {
      copied = clone.add_gate_deferred(node.cell, node.name);
      clone.set_wire_load(copied, node.wire_load);
    }
    if (copied != id) throw std::logic_error("clone produced different node ids");
  }
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = circuit.node(id);
    if (node.kind != NodeKind::kGate) continue;
    for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
      clone.set_fanin(id, static_cast<int>(pin), node.fanins[pin]);
    }
  }
  for (NodeId id : circuit.outputs()) clone.mark_output(id, circuit.node(id).pad_load);
  clone.finalize();
  return clone;
}

}  // namespace statsize::netlist
