// Tests for netlist::TimingView — the flat CSR compilation of a finalized
// Circuit that every hot sweep traverses (DESIGN.md §8).
//
// The contract under test is structural *and* numeric: the view's edge
// arrays, orders, and precomputed constants must match a derivation from
// the Node fanin lists written in this test (graph_reference.h) exactly
// (EXPECT_EQ on ids and on copied doubles, no tolerances), the compiled
// load_capacitance must be bit-identical to a Node walk, and compilation
// must reject non-finalized circuits and non-finite delay-model constants
// (the defect `statsize lint` flags as MOD005).

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/circuit_lint.h"
#include "graph_reference.h"
#include "netlist/blif.h"
#include "netlist/cell_library.h"
#include "netlist/circuit.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"

namespace {

using namespace statsize;
using netlist::CellLibrary;
using netlist::CellType;
using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;
using netlist::TimingView;

Circuit view_test_circuit(std::uint64_t seed, int gates = 120) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 14;
  p.seed = seed;
  return make_random_dag(p);
}

TEST(TimingView, PackedArraysMirrorTheNodes) {
  const Circuit c = view_test_circuit(11);
  const TimingView& v = c.view();
  const std::vector<int> levels = graph_reference::levels(c);
  ASSERT_EQ(v.num_nodes(), c.num_nodes());
  EXPECT_EQ(v.num_gates(), c.num_gates());
  EXPECT_EQ(v.num_inputs(), c.num_inputs());
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    EXPECT_EQ(v.kind(id), n.kind);
    EXPECT_EQ(v.is_gate(id), n.kind == NodeKind::kGate);
    EXPECT_EQ(v.is_output(id), n.is_output);
    EXPECT_EQ(v.level(id), levels[static_cast<std::size_t>(id)]);
    EXPECT_EQ(v.static_load(id), n.wire_load + (n.is_output ? n.pad_load : 0.0));
    if (n.kind == NodeKind::kGate) {
      const CellType& cell = c.library().cell(n.cell);
      EXPECT_EQ(v.cell(id), n.cell);
      EXPECT_EQ(v.function(id), cell.function);
      EXPECT_EQ(v.t_int(id), cell.t_int);
      EXPECT_EQ(v.drive_c(id), cell.c);
      EXPECT_EQ(v.c_in(id), cell.c_in);
      EXPECT_EQ(v.area(id), cell.area);
    } else {
      EXPECT_EQ(v.cell(id), -1);
    }
  }
}

TEST(TimingView, CsrEdgesPreserveNodeListOrder) {
  const Circuit c = view_test_circuit(12);
  const TimingView& v = c.view();
  const auto fanouts = graph_reference::fanouts(c);
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    const netlist::NodeSpan fi = v.fanins(id);
    ASSERT_EQ(fi.size(), n.fanins.size());
    for (std::size_t k = 0; k < fi.size(); ++k) EXPECT_EQ(fi[k], n.fanins[k]);
    const netlist::NodeSpan fo = v.fanouts(id);
    const double* fo_cin = v.fanout_cin(id);
    const std::vector<NodeId>& ref = fanouts[static_cast<std::size_t>(id)];
    ASSERT_EQ(fo.size(), ref.size());
    for (std::size_t k = 0; k < fo.size(); ++k) {
      EXPECT_EQ(fo[k], ref[k]);
      // The precomputed edge capacitance is a copy of the sink cell's c_in.
      EXPECT_EQ(fo_cin[k], c.library().cell(c.node(fo[k]).cell).c_in);
    }
  }
}

TEST(TimingView, TraversalViewsMatchCircuitOrders) {
  const Circuit c = view_test_circuit(13);
  const TimingView& v = c.view();
  // The analyzer's order, computed afresh: finalize() hands the view this.
  std::vector<NodeId> topo;
  ASSERT_FALSE(analyze::lint_circuit_structure(c, &topo).has_errors());
  EXPECT_EQ(v.topo_order(), topo);
  EXPECT_EQ(c.topo_order(), topo);
  EXPECT_EQ(v.outputs(), c.outputs());

  std::vector<NodeId> gate_walk;
  for (NodeId id : topo) {
    if (c.node(id).kind == NodeKind::kGate) gate_walk.push_back(id);
  }
  EXPECT_EQ(v.gates_in_topo_order(), gate_walk);

  const auto levels = graph_reference::gate_levels(c, topo);
  EXPECT_EQ(c.depth(), static_cast<int>(levels.size()));
  ASSERT_EQ(v.num_levels(), static_cast<int>(levels.size()));
  for (int l = 0; l < v.num_levels(); ++l) {
    const netlist::NodeSpan lvl = v.level_gates(l);
    ASSERT_EQ(lvl.size(), levels[static_cast<std::size_t>(l)].size());
    for (std::size_t k = 0; k < lvl.size(); ++k) {
      EXPECT_EQ(lvl[k], levels[static_cast<std::size_t>(l)][k]);
    }
  }
}

TEST(TimingView, LoadCapacitanceIsBitIdenticalToTheNodeWalk) {
  const Circuit c = view_test_circuit(14);
  const TimingView& v = c.view();
  const auto fanouts = graph_reference::fanouts(c);
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()));
  for (std::size_t i = 0; i < speed.size(); ++i) {
    speed[i] = 1.0 + 0.37 * static_cast<double>(i % 7);  // uneven, deterministic
  }
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    // The Node walk: static load plus sum of sink c_in * S.
    double ref = n.wire_load + (n.is_output ? n.pad_load : 0.0);
    for (NodeId fo : fanouts[static_cast<std::size_t>(id)]) {
      ref += c.library().cell(c.node(fo).cell).c_in * speed[static_cast<std::size_t>(fo)];
    }
    EXPECT_EQ(v.load_capacitance(id, speed.data()), ref) << "node " << id;
  }
}

TEST(TimingView, DerivesFanoutsAndLevelsOnANonIdentityOrder) {
  // The .names are out of dependency order (y is listed before the n1/n2 it
  // reads), so the topological order is not the id order, and n1 is wired
  // twice to a: a's fanout row holds n1 once per pin. y is a 3-input gate,
  // so b's two fanout edges carry different pin capacitances.
  std::istringstream blif(R"(.model order
.inputs a b
.outputs y z
.names n1 n2 b y
111 0
.names a n1 z
11 0
.names a a n1
11 0
.names b n1 n2
11 0
.end
)");
  const Circuit c = netlist::read_blif(blif, CellLibrary::standard());
  const TimingView& v = c.view();
  std::vector<NodeId> identity(static_cast<std::size_t>(c.num_nodes()));
  std::iota(identity.begin(), identity.end(), NodeId{0});
  ASSERT_NE(v.topo_order(), identity);

  const auto fanouts = graph_reference::fanouts(c);
  const std::vector<int> levels = graph_reference::levels(c);
  const NodeId a = 0;
  ASSERT_EQ(c.node(a).name, "a");
  ASSERT_EQ(fanouts[static_cast<std::size_t>(a)].size(), 3u);  // z, then n1 twice
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    SCOPED_TRACE("node " + c.node(id).name);
    const std::vector<NodeId>& ref = fanouts[static_cast<std::size_t>(id)];
    const netlist::NodeSpan fo = v.fanouts(id);
    ASSERT_EQ(fo.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(fo[k], ref[k]);
      EXPECT_EQ(v.fanout_cin(id)[k], c.library().cell(c.node(ref[k]).cell).c_in);
    }
    EXPECT_EQ(v.level(id), levels[static_cast<std::size_t>(id)]);
  }
  const auto rows = graph_reference::gate_levels(c, v.topo_order());
  ASSERT_EQ(v.num_levels(), static_cast<int>(rows.size()));
  ASSERT_EQ(v.num_levels(), 3);  // n1; z and n2; y
  for (int l = 0; l < v.num_levels(); ++l) {
    const netlist::NodeSpan lvl = v.level_gates(l);
    EXPECT_EQ(std::vector<NodeId>(lvl.begin(), lvl.end()), rows[static_cast<std::size_t>(l)])
        << "level " << l;
  }
}

TEST(TimingView, RequiresAFinalizedCircuit) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(lib.find("INV"), {a}, "g");
  c.mark_output(g, 1.0);
  // Only finalize() compiles a view. A Circuit converts to its view, so
  // copying a view out of an unfinalized circuit throws, as view() does.
  EXPECT_THROW(TimingView v(c), std::runtime_error);
  EXPECT_THROW(c.view(), std::runtime_error);
  c.finalize();
  EXPECT_NO_THROW(c.view());
}

TEST(TimingView, NonFiniteCellParameterFailsFinalizeAndRollsBack) {
  // CellLibrary::add rejects non-positive constants, but NaN slips through
  // every `<= 0` comparison — exactly the defect MOD005 lints for. The view
  // compilation is the enforcement backstop: finalize() must throw a named
  // invalid_argument and leave the circuit un-finalized (rollback), so a
  // caller cannot observe a half-built view.
  CellLibrary lib;
  CellType bad;
  bad.name = "INV_NAN";
  bad.num_inputs = 1;
  bad.c_in = std::numeric_limits<double>::quiet_NaN();
  bad.function = netlist::CellFunction::kInv;
  const int bad_id = lib.add(bad);
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(bad_id, {a}, "g");
  c.mark_output(g, 1.0);
  try {
    c.finalize();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("INV_NAN"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("c_in"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(c.finalized());
}

TEST(TimingView, NonFiniteWireLoadFailsFinalizeAndRollsBack) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(lib.find("INV"), {a}, "g");
  c.mark_output(g, 1.0);
  c.set_wire_load(g, std::numeric_limits<double>::quiet_NaN());
  try {
    c.finalize();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'g'"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(c.finalized());
  // The defect is repairable: fixing the load makes finalize() succeed.
  c.set_wire_load(g, 0.5);
  EXPECT_NO_THROW(c.finalize());
  EXPECT_EQ(c.view().static_load(g), 0.5 + 1.0);
}

}  // namespace
