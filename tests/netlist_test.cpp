// Tests for the netlist substrate: cell library, circuit DAG invariants,
// generators, and BLIF round-tripping.

#include "netlist/blif.h"
#include "netlist/cell_library.h"
#include "netlist/circuit.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"

#include <set>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

namespace statsize::netlist {
namespace {

TEST(CellLibrary, StandardHasCoreCells) {
  const CellLibrary& lib = CellLibrary::standard();
  for (const char* name : {"INV", "NAND2", "NAND3", "NAND4", "NOR2", "XOR2"}) {
    EXPECT_GE(lib.find(name), 0) << name;
  }
  EXPECT_EQ(lib.find("NAND17"), -1);
}

TEST(CellLibrary, CellForInputsPrefersNand) {
  const CellLibrary& lib = CellLibrary::standard();
  EXPECT_EQ(lib.cell(lib.cell_for_inputs(2)).name, "NAND2");
  EXPECT_EQ(lib.cell(lib.cell_for_inputs(3)).name, "NAND3");
  EXPECT_EQ(lib.cell(lib.cell_for_inputs(1)).name, "INV");
  EXPECT_EQ(lib.cell_for_inputs(9), -1);
}

TEST(CellLibrary, RejectsInvalidCells) {
  CellLibrary lib;
  EXPECT_THROW(lib.add({"", 2, 1, 1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(lib.add({"X", 0, 1, 1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(lib.add({"X", 2, -1, 1, 1, 1}), std::invalid_argument);
  lib.add({"X", 2, 1, 1, 1, 1});
  EXPECT_THROW(lib.add({"X", 2, 1, 1, 1, 1}), std::invalid_argument);
}

TEST(Circuit, BuildAndQueryTree) {
  const Circuit c = make_tree_circuit();
  EXPECT_EQ(c.num_gates(), 7);
  EXPECT_EQ(c.num_inputs(), 8);
  EXPECT_EQ(c.outputs().size(), 1u);
  EXPECT_EQ(c.depth(), 3);

  const CircuitStats s = compute_stats(c);
  EXPECT_EQ(s.num_gates, 7);
  EXPECT_EQ(s.depth, 3);
  EXPECT_DOUBLE_EQ(s.avg_fanin, 2.0);
}

TEST(Circuit, TopoOrderRespectsDependencies) {
  const Circuit c = make_mcnc_like("apex2");
  std::set<NodeId> seen;
  for (NodeId id : c.topo_order()) {
    for (NodeId f : c.node(id).fanins) {
      EXPECT_TRUE(seen.count(f)) << "fanin " << f << " after node " << id;
    }
    seen.insert(id);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), c.num_nodes());
}

TEST(Circuit, LoadCapacitanceSumsFanoutPins) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId pi = c.add_input("a");
  const NodeId g0 = c.add_gate(lib.find("INV"), {pi}, "g0");
  const NodeId g1 = c.add_gate(lib.find("NAND2"), {pi, g0}, "g1");
  const NodeId g2 = c.add_gate(lib.find("NAND2"), {g0, g1}, "g2");
  c.set_wire_load(g0, 0.5);
  c.mark_output(g2, 2.0);
  c.finalize();

  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  speed[static_cast<std::size_t>(g1)] = 3.0;
  speed[static_cast<std::size_t>(g2)] = 2.0;
  const double c_in_nand2 = lib.cell(lib.find("NAND2")).c_in;
  // g0 drives pin of g1 (S=3) and pin of g2 (S=2) plus wire 0.5.
  EXPECT_DOUBLE_EQ(c.view().load_capacitance(g0, speed.data()),
                   0.5 + c_in_nand2 * 3.0 + c_in_nand2 * 2.0);
  // g2 is an output: pad load 2.0 only.
  EXPECT_DOUBLE_EQ(c.view().load_capacitance(g2, speed.data()), 2.0);
}

/// The what() of the std::invalid_argument `fn` throws ("" if none).
template <class Fn>
std::string invalid_argument_text(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Circuit, RejectsWrongPinCount) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId pi = c.add_input("a");
  EXPECT_THROW(c.add_gate(lib.find("NAND2"), {pi}, "bad"), std::invalid_argument);
  // Every builder error names the gate or the id at fault: an unnamed gate
  // by the name it would have been given.
  EXPECT_EQ(invalid_argument_text([&] { c.add_gate(lib.find("NAND2"), {pi}); }),
            "add_gate: gate 'g0': cell NAND2 expects 2 fanins, got 1");
  EXPECT_EQ(invalid_argument_text([&] { c.add_gate(lib.find("INV"), {7}, "fwd"); }),
            "add_gate: gate 'fwd': fanin id 7 out of range (forward ref?)");
  EXPECT_EQ(invalid_argument_text([&] { c.set_wire_load(9, 1.0); }),
            "set_wire_load: node id 9 out of range");
  EXPECT_EQ(invalid_argument_text([&] { c.mark_output(-1); }),
            "mark_output: node id -1 out of range");
  EXPECT_EQ(invalid_argument_text([&] { c.set_fanin(5, 0, pi); }),
            "set_fanin: node id 5 out of range");
}

TEST(Circuit, RejectsANodeMarkedAsAnOutputTwice) {
  // Marked twice, 23GAT would enter the eq. 18a output fold twice and be
  // Clark-maxed with itself as if the two were independent.
  std::istringstream blif(
      ".model c17\n.inputs 1GAT 2GAT 3GAT 6GAT 7GAT\n.outputs 22GAT 23GAT 23GAT\n"
      ".names 1GAT 3GAT 10GAT\n.names 3GAT 6GAT 11GAT\n.names 2GAT 11GAT 16GAT\n"
      ".names 11GAT 7GAT 19GAT\n.names 10GAT 16GAT 22GAT\n.names 16GAT 19GAT 23GAT\n.end\n");
  EXPECT_EQ(invalid_argument_text([&] { read_blif(blif); }),
            "mark_output: node '23GAT' is already a primary output");

  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId g = c.add_gate(lib.find("INV"), {c.add_input("a")}, "g");
  c.mark_output(g);
  EXPECT_THROW(c.mark_output(g, 2.0), std::invalid_argument);
  EXPECT_EQ(c.outputs(), std::vector<NodeId>{g});
  EXPECT_EQ(c.node(g).pad_load, 1.0);
}

TEST(Circuit, RejectsEditsAfterFinalize) {
  Circuit c = make_chain(3);
  EXPECT_THROW(c.add_input("late"), std::runtime_error);
  EXPECT_THROW(c.mark_output(0), std::runtime_error);
}

TEST(Circuit, RejectsDanglingGates) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId pi = c.add_input("a");
  const NodeId g0 = c.add_gate(lib.find("INV"), {pi}, "g0");
  c.add_gate(lib.find("INV"), {pi}, "dangling");
  c.mark_output(g0);
  EXPECT_THROW(c.finalize(), std::runtime_error);
}

TEST(Circuit, RejectsNoOutputs) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId pi = c.add_input("a");
  c.add_gate(lib.find("INV"), {pi}, "g0");
  EXPECT_THROW(c.finalize(), std::runtime_error);
}

TEST(Generators, ChainShape) {
  const Circuit c = make_chain(10);
  EXPECT_EQ(c.num_gates(), 10);
  EXPECT_EQ(c.depth(), 10);
  EXPECT_EQ(c.outputs().size(), 1u);
}

TEST(Generators, BalancedTreeShape) {
  const Circuit c = make_balanced_tree(4);
  EXPECT_EQ(c.num_gates(), 15);
  EXPECT_EQ(c.depth(), 4);
  EXPECT_EQ(c.num_inputs(), 16);
}

TEST(Generators, TreeCircuitMatchesFigure3) {
  const Circuit c = make_tree_circuit();
  // Gate G is the single output and is fed by C and F, which are fed by
  // {A,B} and {D,E} respectively.
  const NodeId g = c.outputs().front();
  EXPECT_EQ(c.node(g).name, "G");
  ASSERT_EQ(c.node(g).fanins.size(), 2u);
  const Node& gc = c.node(c.node(g).fanins[0]);
  const Node& gf = c.node(c.node(g).fanins[1]);
  EXPECT_EQ(gc.name, "C");
  EXPECT_EQ(gf.name, "F");
  EXPECT_EQ(c.node(gc.fanins[0]).name, "A");
  EXPECT_EQ(c.node(gc.fanins[1]).name, "B");
  EXPECT_EQ(c.node(gf.fanins[0]).name, "D");
  EXPECT_EQ(c.node(gf.fanins[1]).name, "E");
}

TEST(Generators, McncPresetsHavePaperCellCounts) {
  EXPECT_EQ(make_mcnc_like("apex1").num_gates(), 982);
  EXPECT_EQ(make_mcnc_like("apex2").num_gates(), 117);
  EXPECT_EQ(make_mcnc_like("k2").num_gates(), 1692);
  EXPECT_THROW(make_mcnc_like("nosuch"), std::invalid_argument);
}

TEST(Generators, RandomDagIsDeterministic) {
  RandomDagParams p;
  p.num_gates = 200;
  p.seed = 42;
  const Circuit a = make_random_dag(p);
  const Circuit b = make_random_dag(p);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    EXPECT_EQ(a.node(id).cell, b.node(id).cell);
    EXPECT_EQ(a.node(id).fanins, b.node(id).fanins);
  }
}

TEST(Generators, RandomDagSeedChangesStructure) {
  RandomDagParams p;
  p.num_gates = 200;
  p.seed = 1;
  const Circuit a = make_random_dag(p);
  p.seed = 2;
  const Circuit b = make_random_dag(p);
  bool any_diff = false;
  for (NodeId id = 0; id < std::min(a.num_nodes(), b.num_nodes()) && !any_diff; ++id) {
    any_diff = a.node(id).fanins != b.node(id).fanins || a.node(id).cell != b.node(id).cell;
  }
  EXPECT_TRUE(any_diff);
}

class RandomDagSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagSweep, StructurallyValid) {
  RandomDagParams p;
  p.num_gates = 50 + 37 * GetParam();
  p.num_inputs = 8 + GetParam();
  p.depth = 5 + GetParam();
  p.seed = static_cast<std::uint64_t>(GetParam()) * 977 + 13;
  const Circuit c = make_random_dag(p);
  EXPECT_EQ(c.num_gates(), p.num_gates);
  EXPECT_GE(c.depth(), 2);
  EXPECT_LE(c.depth(), p.depth);
  EXPECT_FALSE(c.outputs().empty());
  // No gate may have duplicate fanins that came from the dedup path, and
  // every gate's pin count must match its cell.
  for (NodeId id : c.topo_order()) {
    const Node& n = c.node(id);
    if (n.kind != NodeKind::kGate) continue;
    EXPECT_EQ(static_cast<int>(n.fanins.size()), c.library().cell(n.cell).num_inputs);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomDagSweep, ::testing::Range(0, 10));

TEST(Blif, ParseSimpleNetwork) {
  const std::string text = R"(
# simple test network
.model test
.inputs a b c
.outputs y
.names a b t1
11 1
.names t1 c y
11 1
.end
)";
  std::istringstream in(text);
  const Circuit c = read_blif(in);
  EXPECT_EQ(c.num_inputs(), 3);
  EXPECT_EQ(c.num_gates(), 2);
  EXPECT_EQ(c.outputs().size(), 1u);
  EXPECT_EQ(c.node(c.outputs().front()).name, "y");
}

TEST(Blif, HandlesOutOfOrderDefinitions) {
  // t1 is used before its .names block appears.
  const std::string text =
      ".model t\n.inputs a b\n.outputs y\n.names t1 b y\n11 1\n.names a t1\n1 1\n.end\n";
  std::istringstream in(text);
  const Circuit c = read_blif(in);
  EXPECT_EQ(c.num_gates(), 2);
}

TEST(Blif, HandlesLineContinuations) {
  const std::string text =
      ".model t\n.inputs a \\\nb\n.outputs y\n.names a b \\\ny\n11 1\n.end\n";
  std::istringstream in(text);
  const Circuit c = read_blif(in);
  EXPECT_EQ(c.num_inputs(), 2);
  EXPECT_EQ(c.num_gates(), 1);
}

TEST(Blif, ConstantNodesBecomeTimeZeroSources) {
  const std::string text =
      ".model t\n.inputs a\n.outputs y\n.names one\n1\n.names a one y\n11 1\n.end\n";
  std::istringstream in(text);
  const Circuit c = read_blif(in);
  EXPECT_EQ(c.num_inputs(), 2);  // 'a' plus the constant
  EXPECT_EQ(c.num_gates(), 1);
}

TEST(Blif, RejectsCycle) {
  const std::string text =
      ".model t\n.inputs a\n.outputs y\n.names a y x\n11 1\n.names x y\n1 1\n.end\n";
  std::istringstream in(text);
  EXPECT_THROW(read_blif(in), std::runtime_error);
}

TEST(Blif, RejectsUndefinedSignal) {
  const std::string text = ".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n";
  std::istringstream in(text);
  EXPECT_THROW(read_blif(in), std::runtime_error);
}

TEST(Blif, RejectsLatches) {
  const std::string text = ".model t\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
  std::istringstream in(text);
  EXPECT_THROW(read_blif(in), std::runtime_error);
}

TEST(Blif, RoundTripPreservesStructure) {
  const Circuit original = make_mcnc_like("apex2");
  std::ostringstream out;
  write_blif(out, original, "apex2_like");
  std::istringstream in(out.str());
  const Circuit parsed = read_blif(in);
  EXPECT_EQ(parsed.num_gates(), original.num_gates());
  EXPECT_EQ(parsed.num_inputs(), original.num_inputs());
  EXPECT_EQ(parsed.outputs().size(), original.outputs().size());
  EXPECT_EQ(parsed.depth(), original.depth());
}

}  // namespace
}  // namespace statsize::netlist
