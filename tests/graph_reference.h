// Reference derivations of the structure a TimingView compiles, written
// against Circuit/Node fanin lists only and never the view code, so a test
// can pin the view's fanouts and levels to something independent of it.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "netlist/circuit.h"

namespace statsize::graph_reference {

using netlist::Circuit;
using netlist::NodeId;

/// Per driver, the gates it feeds: sinks in ascending id, one entry per pin.
inline std::vector<std::vector<NodeId>> fanouts(const Circuit& c) {
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    for (NodeId f : c.node(id).fanins) out[static_cast<std::size_t>(f)].push_back(id);
  }
  return out;
}

/// Longest-path level per node (0 for inputs, 1 + max fanin level for
/// gates), relaxed to a fixed point so no topological order is needed.
inline std::vector<int> levels(const Circuit& c) {
  std::vector<int> level(static_cast<std::size_t>(c.num_nodes()), 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId id = 0; id < c.num_nodes(); ++id) {
      const netlist::Node& n = c.node(id);
      if (n.kind != netlist::NodeKind::kGate) continue;
      int lvl = 1;
      for (NodeId f : n.fanins) lvl = std::max(lvl, level[static_cast<std::size_t>(f)] + 1);
      if (lvl != level[static_cast<std::size_t>(id)]) {
        level[static_cast<std::size_t>(id)] = lvl;
        changed = true;
      }
    }
  }
  return level;
}

/// Gates by level (row l holds level l + 1), each row in the order the gates
/// appear in `order`.
inline std::vector<std::vector<NodeId>> gate_levels(const Circuit& c,
                                                    const std::vector<NodeId>& order) {
  const std::vector<int> level = levels(c);
  std::vector<std::vector<NodeId>> rows;
  for (NodeId id : order) {
    if (c.node(id).kind != netlist::NodeKind::kGate) continue;
    const std::size_t row = static_cast<std::size_t>(level[static_cast<std::size_t>(id)] - 1);
    if (rows.size() <= row) rows.resize(row + 1);
    rows[row].push_back(id);
  }
  return rows;
}

}  // namespace statsize::graph_reference
