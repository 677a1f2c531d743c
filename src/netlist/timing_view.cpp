#include "netlist/timing_view.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

namespace statsize::netlist {

namespace {

/// Throws unless v is finite. The message names `owner` (a node or cell)
/// and `what`, and is built only on the throwing path: finalize() checks
/// every node and cell, and every edit checks its parameters.
void require_finite(double v, const char* owner_kind, const std::string& owner,
                    const char* what) {
  if (std::isfinite(v)) return;
  throw std::invalid_argument(
      "TimingView: " + std::string(owner_kind) + " '" + owner + "' " + what +
      " is not finite, so the compiled timing graph would propagate NaN/Inf into every " +
      "sweep; `statsize lint` (rule MOD005) diagnoses this before finalize()");
}

}  // namespace

TimingView::TimingView(const Circuit& circuit, std::vector<NodeId> topo)
    : topo_(std::move(topo)) {
  const std::size_t n = static_cast<std::size_t>(circuit.num_nodes());
  num_gates_ = circuit.num_gates();
  num_inputs_ = circuit.num_inputs();

  kind_.resize(n);
  is_output_.assign(n, 0);
  level_.assign(n, 0);
  cell_.assign(n, -1);
  function_.assign(n, CellFunction::kBuf);
  t_int_.assign(n, 0.0);
  drive_c_.assign(n, 0.0);
  c_in_.assign(n, 0.0);
  area_.assign(n, 0.0);
  static_load_.assign(n, 0.0);

  fanin_offset_.assign(n + 1, 0);
  fanout_offset_.assign(n + 1, 0);

  auto names = std::make_shared<std::vector<std::string>>(n);
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const Node& node = circuit.node(id);
    const std::size_t i = static_cast<std::size_t>(id);
    (*names)[i] = node.name;
    kind_[i] = node.kind;
    is_output_[i] = node.is_output ? 1 : 0;
    static_load_[i] = node.wire_load + (node.is_output ? node.pad_load : 0.0);
    require_finite(static_load_[i], "node", node.name, "wire/pad load");
    if (node.kind == NodeKind::kGate) {
      const CellType& cell = circuit.library().cell(node.cell);
      cell_[i] = node.cell;
      function_[i] = cell.function;
      t_int_[i] = cell.t_int;
      drive_c_[i] = cell.c;
      c_in_[i] = cell.c_in;
      area_[i] = cell.area;
      require_finite(cell.t_int, "cell", cell.name, "intrinsic delay t_int");
      require_finite(cell.c, "cell", cell.name, "drive coefficient c");
      require_finite(cell.c_in, "cell", cell.name, "input capacitance c_in");
      require_finite(cell.area, "cell", cell.name, "area");
    }
    fanin_offset_[i + 1] = fanin_offset_[i] + node.fanins.size();
    for (NodeId f : node.fanins) ++fanout_offset_[static_cast<std::size_t>(f) + 1];
  }
  names_ = std::move(names);
  for (std::size_t i = 0; i < n; ++i) fanout_offset_[i + 1] += fanout_offset_[i];

  // Fanout CSR: sinks visited in ascending id, pins in order, so each
  // driver's row lists its sinks in ascending id with one entry per pin.
  fanin_.reserve(fanin_offset_[n]);
  fanout_.resize(fanout_offset_[n]);
  fanout_cin_.resize(fanout_offset_[n]);
  std::vector<std::size_t> fill(fanout_offset_.begin(), fanout_offset_.end() - 1);
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const std::vector<NodeId>& fanins = circuit.node(id).fanins;
    fanin_.insert(fanin_.end(), fanins.begin(), fanins.end());
    for (NodeId f : fanins) {
      const std::size_t e = fill[static_cast<std::size_t>(f)]++;
      fanout_[e] = id;
      fanout_cin_[e] = c_in_[static_cast<std::size_t>(id)];
    }
  }

  // Levels: 1 + max fanin level per gate, inputs at 0; each level lists its
  // gates in ascending topological position.
  outputs_ = circuit.outputs();
  gate_topo_.reserve(static_cast<std::size_t>(num_gates_));
  int max_level = 0;
  for (NodeId id : topo_) {
    const std::size_t i = static_cast<std::size_t>(id);
    if (kind_[i] != NodeKind::kGate) continue;
    gate_topo_.push_back(id);
    int lvl = 1;
    for (NodeId f : fanins(id)) lvl = std::max(lvl, level_[static_cast<std::size_t>(f)] + 1);
    level_[i] = lvl;
    max_level = std::max(max_level, lvl);
  }
  // Gate level L lands in partition row L - 1: count into offset L, prefix-
  // sum, then fill each row in the order gate_topo_ visits its gates.
  level_offset_.assign(static_cast<std::size_t>(max_level) + 1, 0);
  for (NodeId id : gate_topo_) ++level_offset_[static_cast<std::size_t>(level(id))];
  for (std::size_t l = 0; l < static_cast<std::size_t>(max_level); ++l) {
    level_offset_[l + 1] += level_offset_[l];
  }
  level_gate_.resize(gate_topo_.size());
  fill.assign(level_offset_.begin(), level_offset_.end() - 1);
  for (NodeId id : gate_topo_) level_gate_[fill[static_cast<std::size_t>(level(id) - 1)]++] = id;
}

void TimingView::update_node_params(NodeId id, const NodeParams& params) {
  const std::size_t i = static_cast<std::size_t>(id);
  if (id < 0 || id >= num_nodes() || kind_[i] != NodeKind::kGate) {
    throw std::invalid_argument("TimingView::update_node_params: node " + std::to_string(id) +
                                " is not a gate of this view");
  }
  require_finite(params.t_int, "edited node", name(id), "intrinsic delay t_int");
  require_finite(params.c, "edited node", name(id), "drive coefficient c");
  require_finite(params.c_in, "edited node", name(id), "input capacitance c_in");
  require_finite(params.area, "edited node", name(id), "area");

  t_int_[i] = params.t_int;
  drive_c_[i] = params.c;
  c_in_[i] = params.c_in;
  area_[i] = params.area;
  // The derived per-edge pin caps: every fanin's fanout edge targeting this
  // gate carries its C_in. A gate wired twice to one driver owns two such
  // edges on that driver; the scan rewrites each (matching the compile,
  // which emitted one fanout_cin_ slot per fanin pin).
  const std::size_t fi_end = fanin_offset_[i + 1];
  for (std::size_t fe = fanin_offset_[i]; fe < fi_end; ++fe) {
    const std::size_t f = static_cast<std::size_t>(fanin_[fe]);
    const std::size_t end = fanout_offset_[f + 1];
    for (std::size_t e = fanout_offset_[f]; e < end; ++e) {
      if (fanout_[e] == id) fanout_cin_[e] = params.c_in;
    }
  }

  ++epoch_;
}

void TimingView::batch_load_capacitance(const double* speed, double* cap) const {
  const std::size_t num = kind_.size();
  const std::size_t num_edges = fanout_.size();
  // Flat vectorizable pass: every fanout edge's C_in * S_sink product. The
  // gather through fanout_ is the only indirection; cin/prod are contiguous.
  std::vector<double> prod(num_edges);
  const NodeId* sinks = fanout_.data();
  const double* cin = fanout_cin_.data();
  for (std::size_t e = 0; e < num_edges; ++e) {
    prod[e] = cin[e] * speed[static_cast<std::size_t>(sinks[e])];
  }
  // Per-node fold in edge order, seeded with the static load — the exact
  // accumulation order of load_capacitance(id, speed).
  for (std::size_t i = 0; i < num; ++i) {
    double acc = static_load_[i];
    const std::size_t end = fanout_offset_[i + 1];
    for (std::size_t e = fanout_offset_[i]; e < end; ++e) acc += prod[e];
    cap[i] = acc;
  }
}

namespace {

/// Union-find root with path halving, over the weak-component forest.
std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

}  // namespace

TimingViewStats compute_view_stats(const TimingView& view, int max_cone_samples) {
  TimingViewStats s;
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  s.num_nodes = view.num_nodes();
  s.num_gates = view.num_gates();
  s.num_inputs = view.num_inputs();
  s.num_outputs = static_cast<int>(view.outputs().size());

  // Level-width histogram.
  s.level_widths.reserve(static_cast<std::size_t>(view.num_levels()));
  for (int l = 0; l < view.num_levels(); ++l) {
    s.level_widths.push_back(view.level_gates(l).size());
  }
  if (!s.level_widths.empty()) {
    s.min_level_width = *std::min_element(s.level_widths.begin(), s.level_widths.end());
    s.max_level_width = *std::max_element(s.level_widths.begin(), s.level_widths.end());
    const std::size_t total =
        std::accumulate(s.level_widths.begin(), s.level_widths.end(), std::size_t{0});
    s.mean_level_width =
        static_cast<double>(total) / static_cast<double>(s.level_widths.size());
  }

  // Edge counts, fanout skew, and the weak-component forest in one pass.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::size_t gate_fanout_edges = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const std::size_t i = static_cast<std::size_t>(id);
    const NodeSpan fo = view.fanouts(id);
    s.num_edges += view.fanins(id).size();
    if (fo.size() > s.max_fanout) {
      s.max_fanout = fo.size();
      s.max_fanout_node = id;
    }
    if (view.is_gate(id)) gate_fanout_edges += fo.size();
    for (const NodeId sink : fo) {
      const std::size_t a = uf_find(parent, i);
      const std::size_t b = uf_find(parent, static_cast<std::size_t>(sink));
      if (a != b) parent[a] = b;
    }
  }
  if (s.num_gates > 0) {
    s.mean_gate_fanout = static_cast<double>(gate_fanout_edges) / s.num_gates;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (uf_find(parent, i) == i) ++s.num_components;
  }
  // First Betti number of the underlying undirected graph: each unit counts
  // one reconvergent path pair that independence SSTA treats as uncorrelated.
  if (s.num_edges + static_cast<std::size_t>(s.num_components) > n) {
    s.reconvergence_count = s.num_edges + static_cast<std::size_t>(s.num_components) - n;
  }
  s.reconvergence_ratio =
      static_cast<double>(s.reconvergence_count) / static_cast<double>(std::max<std::size_t>(1, s.num_edges));

  // Transitive-fanin cones of (a sample of) the primary outputs, via an
  // epoch-stamped visited array so repeated traversals cost no clearing.
  const std::vector<NodeId>& outs = view.outputs();
  if (max_cone_samples > 0 && !outs.empty()) {
    const std::size_t stride =
        std::max<std::size_t>(1, outs.size() / static_cast<std::size_t>(max_cone_samples));
    std::vector<int> stamp(n, -1);
    std::vector<NodeId> stack;
    std::size_t total_cone = 0;
    int epoch = 0;
    for (std::size_t k = 0; k < outs.size(); k += stride) {
      const NodeId root = outs[k];
      std::size_t cone = 0;
      stack.assign(1, root);
      stamp[static_cast<std::size_t>(root)] = epoch;
      while (!stack.empty()) {
        const NodeId top = stack.back();
        stack.pop_back();
        ++cone;
        for (const NodeId fi : view.fanins(top)) {
          if (stamp[static_cast<std::size_t>(fi)] != epoch) {
            stamp[static_cast<std::size_t>(fi)] = epoch;
            stack.push_back(fi);
          }
        }
      }
      if (cone > s.max_cone_size) {
        s.max_cone_size = cone;
        s.max_cone_output = root;
      }
      total_cone += cone;
      ++s.sampled_outputs;
      ++epoch;
    }
    if (s.sampled_outputs > 0) {
      s.mean_cone_size = static_cast<double>(total_cone) / s.sampled_outputs;
    }
  }
  return s;
}

std::vector<std::string> check_view_invariants(const TimingView& view) {
  std::vector<std::string> violations;
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  auto flag = [&](std::string text) { violations.push_back(std::move(text)); };

  // Edge targets in range, fanin/fanout symmetry via a paired-edge count.
  std::size_t fanin_edges = 0;
  std::size_t fanout_edges = 0;
  std::size_t matched = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    for (const NodeId fi : view.fanins(id)) {
      ++fanin_edges;
      if (fi < 0 || static_cast<std::size_t>(fi) >= n) {
        flag("fanin edge of node " + std::to_string(id) + " targets out-of-range id " +
             std::to_string(fi));
        continue;
      }
      const NodeSpan fo = view.fanouts(fi);
      if (std::find(fo.begin(), fo.end(), id) != fo.end()) ++matched;
    }
    for (const NodeId fo : view.fanouts(id)) {
      ++fanout_edges;
      if (fo < 0 || static_cast<std::size_t>(fo) >= n) {
        flag("fanout edge of node " + std::to_string(id) + " targets out-of-range id " +
             std::to_string(fo));
      }
    }
    if (view.kind(id) == NodeKind::kPrimaryInput && !view.fanins(id).empty()) {
      flag("primary input node " + std::to_string(id) + " has fanin edges");
    }
  }
  if (fanin_edges != fanout_edges) {
    flag("fanin edge count " + std::to_string(fanin_edges) + " != fanout edge count " +
         std::to_string(fanout_edges));
  } else if (matched != fanin_edges) {
    flag(std::to_string(fanin_edges - matched) +
         " fanin edge(s) have no matching reverse fanout edge");
  }

  // Topological order: a permutation of all nodes, fanins before fanouts.
  {
    const std::vector<NodeId>& topo = view.topo_order();
    if (topo.size() != n) {
      flag("topo order has " + std::to_string(topo.size()) + " entries for " +
           std::to_string(n) + " nodes");
    }
    std::vector<int> pos(n, -1);
    for (std::size_t i = 0; i < topo.size(); ++i) {
      const NodeId id = topo[i];
      if (id < 0 || static_cast<std::size_t>(id) >= n || pos[static_cast<std::size_t>(id)] >= 0) {
        flag("topo order entry " + std::to_string(i) + " (node " + std::to_string(id) +
             ") is out of range or repeated");
        continue;
      }
      pos[static_cast<std::size_t>(id)] = static_cast<int>(i);
    }
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
      for (const NodeId fi : view.fanins(id)) {
        if (fi < 0 || static_cast<std::size_t>(fi) >= n) continue;
        if (pos[static_cast<std::size_t>(fi)] >= 0 && pos[static_cast<std::size_t>(id)] >= 0 &&
            pos[static_cast<std::size_t>(fi)] > pos[static_cast<std::size_t>(id)]) {
          flag("topo order places node " + std::to_string(id) + " before its fanin " +
               std::to_string(fi));
        }
      }
    }
  }

  // Level partition: every gate exactly once, in its own level, and each
  // gate's level is 1 + max fanin level (inputs at level 0).
  {
    std::vector<int> seen(n, 0);
    std::size_t partition_gates = 0;
    for (int l = 0; l < view.num_levels(); ++l) {
      const NodeSpan lvl = view.level_gates(l);
      partition_gates += lvl.size();
      for (const NodeId id : lvl) {
        if (id < 0 || static_cast<std::size_t>(id) >= n) {
          flag("level " + std::to_string(l) + " contains out-of-range node id " +
               std::to_string(id));
          continue;
        }
        ++seen[static_cast<std::size_t>(id)];
        if (!view.is_gate(id)) {
          flag("level " + std::to_string(l) + " contains non-gate node " + std::to_string(id));
        }
        if (view.level(id) != l + 1) {
          flag("node " + std::to_string(id) + " sits in level partition " + std::to_string(l) +
               " but carries level " + std::to_string(view.level(id)));
        }
      }
    }
    if (partition_gates != static_cast<std::size_t>(view.num_gates())) {
      flag("level partition covers " + std::to_string(partition_gates) + " gates of " +
           std::to_string(view.num_gates()));
    }
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
      if (view.is_gate(id) && seen[static_cast<std::size_t>(id)] != 1) {
        flag("gate " + std::to_string(id) + " appears " +
             std::to_string(seen[static_cast<std::size_t>(id)]) + " times in the level partition");
      }
      int max_fanin_level = -1;
      for (const NodeId fi : view.fanins(id)) {
        if (fi < 0 || static_cast<std::size_t>(fi) >= n) continue;
        max_fanin_level = std::max(max_fanin_level, view.level(fi));
      }
      if (view.is_gate(id) && max_fanin_level >= 0 && view.level(id) != max_fanin_level + 1) {
        flag("gate " + std::to_string(id) + " has level " + std::to_string(view.level(id)) +
             " but 1 + max fanin level is " + std::to_string(max_fanin_level + 1));
      }
      if (view.kind(id) == NodeKind::kPrimaryInput && view.level(id) != 0) {
        flag("primary input node " + std::to_string(id) + " has non-zero level " +
             std::to_string(view.level(id)));
      }
    }
  }
  return violations;
}

}  // namespace statsize::netlist
