// Tests for the static-analysis subsystem (src/analyze): the diagnostics
// engine, the three analysis families (circuit / library / model), the lint
// driver with its parser error paths, and the reworked Circuit::finalize()
// that reports through the analyzer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/circuit_lint.h"
#include "analyze/diagnostic.h"
#include "analyze/library_lint.h"
#include "analyze/lint.h"
#include "analyze/model_audit.h"
#include "analyze/registry.h"
#include "netlist/blif.h"
#include "netlist/generators.h"
#include "netlist/verilog.h"
#include "nlp/problem.h"

namespace {

using namespace statsize;
using analyze::Report;
using analyze::Severity;
using netlist::CellLibrary;
using netlist::Circuit;
using netlist::NodeId;

bool has_rule(const Report& report, const std::string& id) {
  for (const auto& d : report.diagnostics()) {
    if (d.id == id) return true;
  }
  return false;
}

std::string message_of(const Report& report, const std::string& id) {
  for (const auto& d : report.diagnostics()) {
    if (d.id == id) return d.locus + ": " + d.message;
  }
  return {};
}

/// inputs a,b -> NAND2 "C" -> output; plus whatever the test grafts on.
Circuit small_base(NodeId* out_a = nullptr, NodeId* out_b = nullptr, NodeId* out_c = nullptr) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId g = c.add_gate(lib.cell_for_inputs(2), {a, b}, "C");
  c.mark_output(g, 1.0);
  if (out_a) *out_a = a;
  if (out_b) *out_b = b;
  if (out_c) *out_c = g;
  return c;
}

// ---------------------------------------------------------------------------
// Diagnostics engine
// ---------------------------------------------------------------------------

TEST(Diagnostics, ExitCodeTracksMaxSeverity) {
  Report r;
  EXPECT_EQ(r.exit_code(), 0);
  r.add("CIR007", "input 'x'", "drives no gate");  // note
  EXPECT_EQ(r.exit_code(), 0);
  r.add("CIR010", "gate 'g'", "duplicate");  // warning
  EXPECT_EQ(r.exit_code(), 2);
  r.add("CIR001", "gate 'g'", "cycle");  // error
  EXPECT_EQ(r.exit_code(), 3);
  EXPECT_EQ(r.count(Severity::kError), 1);
  EXPECT_EQ(r.summary(), "1 errors, 1 warnings, 1 notes");
}

TEST(Diagnostics, SortPutsErrorsFirst) {
  Report r;
  r.add("CIR007", "input 'x'", "note first");
  r.add("LIB001", "cell 'n'", "an error");
  r.add("CIR001", "gate 'g'", "another error");
  r.sort();
  ASSERT_EQ(r.diagnostics().size(), 3u);
  EXPECT_EQ(r.diagnostics()[0].id, "CIR001");  // errors first, then by id
  EXPECT_EQ(r.diagnostics()[1].id, "LIB001");
  EXPECT_EQ(r.diagnostics()[2].id, "CIR007");
}

TEST(Diagnostics, UnknownRuleIdBecomesError) {
  Report r;
  r.add("NOPE99", "somewhere", "msg");
  EXPECT_TRUE(r.has_errors());
}

TEST(Diagnostics, ErrorsTextListsOnlyErrors) {
  Report r;
  r.add("CIR007", "input 'x'", "a note");
  r.add("CIR001", "gate 'g'", "cycle here");
  const std::string text = r.errors_text();
  EXPECT_NE(text.find("CIR001"), std::string::npos);
  EXPECT_NE(text.find("cycle here"), std::string::npos);
  EXPECT_EQ(text.find("CIR007"), std::string::npos);
}

TEST(Diagnostics, JsonCarriesTargetSummaryAndIds) {
  Report r;
  r.add("LIB001", "cell 'bad'", "negative");
  std::ostringstream out;
  r.write_json(out, "unit-test");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"target\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"LIB001\""), std::string::npos);
}

TEST(Registry, CatalogIsSortedUniqueAndResolvable) {
  const auto& rules = analyze::rule_catalog();
  ASSERT_FALSE(rules.empty());
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].id, rules[i].id) << "catalog must be sorted by id, no duplicates";
  }
  for (const auto& rule : rules) {
    const auto* found = analyze::find_rule(rule.id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, rule.id);
  }
  EXPECT_EQ(analyze::find_rule("ZZZ999"), nullptr);
  ASSERT_NE(analyze::find_rule("CIR001"), nullptr);
  EXPECT_EQ(analyze::find_rule("CIR001")->severity, Severity::kError);
}

// ---------------------------------------------------------------------------
// Circuit structure lint
// ---------------------------------------------------------------------------

TEST(CircuitLint, CycleDiagnosticNamesTheGates) {
  NodeId a, b;
  Circuit c = small_base(&a, &b);
  const int nand2 = c.library().cell_for_inputs(2);
  const NodeId x = c.add_gate_deferred(nand2, "loopx");
  const NodeId y = c.add_gate_deferred(nand2, "loopy");
  c.set_fanin(x, 0, y);
  c.set_fanin(x, 1, a);
  c.set_fanin(y, 0, x);
  c.set_fanin(y, 1, b);

  const Report report = analyze::lint_circuit_structure(c);
  ASSERT_TRUE(has_rule(report, "CIR001"));
  const std::string msg = message_of(report, "CIR001");
  EXPECT_NE(msg.find("loopx"), std::string::npos);
  EXPECT_NE(msg.find("loopy"), std::string::npos);
  EXPECT_NE(msg.find("->"), std::string::npos);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(CircuitLint, FinalizeNamesCycleGatesInException) {
  NodeId a;
  Circuit c = small_base(&a);
  const int inv = c.library().cell_for_inputs(1);
  const NodeId x = c.add_gate_deferred(inv, "snake");
  c.set_fanin(x, 0, x);  // self-loop
  try {
    c.finalize();
    FAIL() << "finalize() must reject a cyclic circuit";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CIR001"), std::string::npos);
    EXPECT_NE(what.find("snake"), std::string::npos);
  }
}

TEST(CircuitLint, DanglingGateIsCIR006) {
  NodeId a;
  Circuit c = small_base(&a);
  c.add_gate(c.library().cell_for_inputs(1), {a}, "dangle");
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR006"));
  EXPECT_NE(message_of(report, "CIR006").find("dangle"), std::string::npos);
  EXPECT_THROW(c.finalize(), std::runtime_error);
}

TEST(CircuitLint, DeadChainSplitsIntoCIR005AndCIR006) {
  NodeId a;
  Circuit c = small_base(&a);
  const int inv = c.library().cell_for_inputs(1);
  const NodeId d1 = c.add_gate(inv, {a}, "dead_mid");
  c.add_gate(inv, {d1}, "dead_tip");
  const Report report = analyze::lint_circuit_structure(c);
  // dead_mid has a fanout (dead_tip) but no path to an output; dead_tip
  // drives nothing at all.
  EXPECT_NE(message_of(report, "CIR005").find("dead_mid"), std::string::npos);
  EXPECT_NE(message_of(report, "CIR006").find("dead_tip"), std::string::npos);
}

TEST(CircuitLint, UnconnectedPinIsCIR002) {
  Circuit c = small_base();
  const NodeId g = c.add_gate_deferred(c.library().cell_for_inputs(2), "half_wired");
  c.set_fanin(g, 0, 0);
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR002"));
  EXPECT_NE(message_of(report, "CIR002").find("half_wired"), std::string::npos);
}

TEST(CircuitLint, FloatingInputIsANote) {
  Circuit c = small_base();
  c.add_input("unused");
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR007"));
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.exit_code(), 0);  // notes do not gate CI
  c.finalize();                      // and do not block finalize
  EXPECT_TRUE(c.finalized());
}

TEST(CircuitLint, NegativePadLoadIsCIR008) {
  NodeId a, g;
  Circuit c = small_base(&a, nullptr, &g);
  const NodeId h = c.add_gate(c.library().cell_for_inputs(1), {g}, "H");
  c.mark_output(h, -2.0);  // mark_output does not validate; the linter must
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR008"));
  EXPECT_TRUE(report.has_errors());
}

TEST(CircuitLint, ZeroPadLoadOnOutputGateIsANote) {
  NodeId a;
  Circuit c = small_base(&a);
  const NodeId h = c.add_gate(c.library().cell_for_inputs(1), {a}, "H");
  c.mark_output(h, 0.0);
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR009"));
  EXPECT_FALSE(report.has_errors());
}

TEST(CircuitLint, NoOutputsIsCIR004) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  c.add_gate(lib.cell_for_inputs(1), {a}, "g");
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR004"));
}

TEST(CircuitLint, DuplicateNamesWarn) {
  NodeId a, g;
  Circuit c = small_base(&a, nullptr, &g);
  const NodeId h = c.add_gate(c.library().cell_for_inputs(1), {g}, "C");  // name reused
  c.mark_output(h, 1.0);
  const Report report = analyze::lint_circuit_structure(c);
  EXPECT_TRUE(has_rule(report, "CIR010"));
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(CircuitLint, DeferredConstructionYieldsValidTopoOrder) {
  // Wire C = NAND(a, b) "backwards": the gate is created before its fanins
  // exist, so id order is NOT topological and finalize must re-sort.
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId g = c.add_gate_deferred(lib.cell_for_inputs(2), "C");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  c.set_fanin(g, 0, a);
  c.set_fanin(g, 1, b);
  c.mark_output(g, 1.0);
  c.finalize();

  const std::vector<NodeId>& topo = c.topo_order();
  ASSERT_EQ(topo.size(), 3u);
  std::vector<int> pos(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  EXPECT_LT(pos[static_cast<std::size_t>(a)], pos[static_cast<std::size_t>(g)]);
  EXPECT_LT(pos[static_cast<std::size_t>(b)], pos[static_cast<std::size_t>(g)]);
}

TEST(CircuitLint, IdentityOrderPreservedForClassicConstruction) {
  // Fanin-before-fanout construction must keep the identity topological
  // order (run_ssta's primary-input indexing and several reports depend on
  // id-ordered traversal being equivalent).
  Circuit c = netlist::make_tree_circuit();
  const std::vector<NodeId>& topo = c.topo_order();
  for (std::size_t i = 0; i < topo.size(); ++i) {
    EXPECT_EQ(topo[i], static_cast<NodeId>(i));
  }
}

TEST(CircuitLint, CleanCircuitsStayClean) {
  Circuit tree = netlist::make_tree_circuit();
  EXPECT_TRUE(analyze::lint_circuit_structure(tree).empty());
  Circuit apex2 = netlist::make_mcnc_like("apex2");
  EXPECT_FALSE(analyze::lint_circuit_structure(apex2).has_errors());
}

// ---------------------------------------------------------------------------
// Library lint
// ---------------------------------------------------------------------------

TEST(LibraryLint, FlagsNonPhysicalCells) {
  std::vector<netlist::CellType> cells;
  cells.push_back({"NEGDELAY", 2, -0.5, 1.0, 1.0, 1.0, netlist::CellFunction::kNand});
  cells.push_back({"ZEROCIN", 1, 1.0, 1.0, 0.0, 1.0, netlist::CellFunction::kInv});
  cells.push_back({"NEGDELAY", 2, 1.0, 1.0, 1.0, 1.0, netlist::CellFunction::kNand});
  cells.push_back({"NOPINS", 0, 1.0, 1.0, 1.0, 1.0, netlist::CellFunction::kBuf});
  const Report report = analyze::lint_cells(cells);
  EXPECT_TRUE(has_rule(report, "LIB001"));  // negative t_int
  EXPECT_TRUE(has_rule(report, "LIB003"));  // zero c_in
  EXPECT_TRUE(has_rule(report, "LIB005"));  // duplicate name
  EXPECT_TRUE(has_rule(report, "LIB006"));  // zero pins
  EXPECT_TRUE(report.has_errors());
}

TEST(LibraryLint, StandardLibraryIsClean) {
  EXPECT_TRUE(analyze::lint_library(CellLibrary::standard()).empty());
}

TEST(LibraryLint, SigmaModelChecks) {
  EXPECT_TRUE(analyze::lint_sigma_model({0.25, 0.0}, 1.0).empty());
  // Negative offset: sigma < 0 at the smallest attainable delay.
  const Report neg_offset = analyze::lint_sigma_model({0.25, -10.0}, 1.0);
  EXPECT_TRUE(has_rule(neg_offset, "LIB008"));
  // Negative kappa: non-monotone warning, and sigma eventually negative.
  const Report neg_kappa = analyze::lint_sigma_model({-0.1, 1.0}, 1.0);
  EXPECT_TRUE(has_rule(neg_kappa, "LIB009"));
  EXPECT_TRUE(has_rule(neg_kappa, "LIB008"));
}

// ---------------------------------------------------------------------------
// Model audits
// ---------------------------------------------------------------------------

TEST(ModelAudit, BadBoundsAreMOD001) {
  // add_variable validates bounds and clamps the start, so the broken states
  // the audit defends against arise through later mutation (set_start).
  nlp::Problem p;
  p.add_variable(1.0, 3.0, 2.0, "ok");
  const int outside = p.add_variable(0.0, 1.0, 0.5, "start_outside");
  const int nonfinite = p.add_variable(0.0, 1.0, 0.5, "start_nan");
  p.set_start(outside, 5.0);
  p.set_start(nonfinite, std::nan(""));
  const Report report = analyze::audit_problem_bounds(p, "test");
  EXPECT_TRUE(report.has_errors());
  int mod001 = 0;
  for (const auto& d : report.diagnostics()) mod001 += d.id == "MOD001";
  EXPECT_EQ(mod001, 2);
  EXPECT_NE(message_of(report, "MOD001").find("start_outside"), std::string::npos);
}

TEST(ModelAudit, DegenerateSigmaModelTripsClarkCheck) {
  // With sigma identically zero every arrival is deterministic, so every
  // materialized Clark merge has theta = 0. The leaf gates' merges fold
  // (both operands are constant primary-input arrivals — no Clark element is
  // built for them), but the interior gates C, F, G merge live gate arrivals
  // and must all be flagged.
  Circuit tree = netlist::make_tree_circuit();
  const std::vector<double> unit(static_cast<std::size_t>(tree.num_nodes()), 1.0);
  const Report report = analyze::audit_clark_degeneracy(tree, {0.0, 0.0}, unit, 1e-3);
  ASSERT_TRUE(has_rule(report, "MOD002"));
  std::string loci;
  for (const auto& d : report.diagnostics()) {
    if (d.id == "MOD002") loci += d.locus + "; ";
  }
  EXPECT_NE(loci.find("'C'"), std::string::npos) << loci;
  EXPECT_NE(loci.find("'F'"), std::string::npos) << loci;
  EXPECT_NE(loci.find("'G'"), std::string::npos) << loci;
}

TEST(ModelAudit, HealthySigmaModelHasNoDegeneracy) {
  Circuit tree = netlist::make_tree_circuit();
  const std::vector<double> unit(static_cast<std::size_t>(tree.num_nodes()), 1.0);
  EXPECT_TRUE(analyze::audit_clark_degeneracy(tree, {0.25, 0.0}, unit, 1e-3).empty());
}

TEST(ModelAudit, TreeModelAuditIsCleanUnderDefaults) {
  Circuit tree = netlist::make_tree_circuit();
  const Report report = analyze::lint_circuit(tree).report;
  EXPECT_TRUE(report.empty()) << report.errors_text();
}

namespace bad_element {

/// f(x) = x^2 but the reported gradient is 3x — a deliberate analytic bug.
class WrongGradient final : public nlp::ElementFunction {
 public:
  int arity() const override { return 1; }
  double eval(const double* x, double* grad, double* hess) const override {
    if (grad) grad[0] = 3.0 * x[0];
    if (hess) hess[0] = 2.0;
    return x[0] * x[0];
  }
};

}  // namespace bad_element

TEST(ModelAudit, WrongAnalyticGradientIsMOD003) {
  nlp::Problem p;
  const int v = p.add_variable(1.0, 4.0, 2.0, "x");
  const auto* fn = p.own(std::make_unique<bad_element::WrongGradient>());
  nlp::FunctionGroup g;
  g.elements.push_back({fn, {v}, 1.0});
  p.set_objective(std::move(g));
  const Report report = analyze::audit_problem_derivatives(p, "bad", 2, 7u);
  EXPECT_TRUE(has_rule(report, "MOD003"));
}

TEST(ModelAudit, SpecInconsistenciesAreMOD004) {
  Circuit tree = netlist::make_tree_circuit();
  core::SizingSpec spec;
  spec.max_speed = 0.5;  // empty sizing box
  spec.delay_constraint = core::DelayConstraint::at_most(-1.0, 0.0);
  EXPECT_TRUE(analyze::audit_spec(spec, tree).has_errors());

  core::SizingSpec weighted;
  weighted.objective = core::Objective::min_weighted({1.0, 2.0});  // too short
  const Report report = analyze::audit_spec(weighted, tree);
  EXPECT_TRUE(has_rule(report, "MOD004"));
}

netlist::Circuit nan_cell_circuit() {
  // CellLibrary::add rejects non-positive constants but a NaN slips through
  // every `<= 0` comparison — the defect class MOD005 exists for.
  static netlist::CellLibrary lib = [] {
    netlist::CellLibrary l;
    netlist::CellType bad;
    bad.name = "INV_NAN";
    bad.num_inputs = 1;
    bad.c_in = std::numeric_limits<double>::quiet_NaN();
    bad.function = netlist::CellFunction::kInv;
    l.add(bad);
    return l;
  }();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(0, {a}, "g");
  c.mark_output(g, 1.0);
  return c;
}

TEST(ModelAudit, NonFiniteCellParameterIsMOD005) {
  Circuit c = nan_cell_circuit();
  const Report report = analyze::audit_view_compilability(c);
  ASSERT_TRUE(has_rule(report, "MOD005"));
  EXPECT_TRUE(report.has_errors());
  const std::string msg = message_of(report, "MOD005");
  EXPECT_NE(msg.find("INV_NAN"), std::string::npos) << msg;
  EXPECT_NE(msg.find("c_in"), std::string::npos) << msg;
}

TEST(ModelAudit, FinalizeNamesTheNonFiniteCellAndNode) {
  // finalize() compiles the TimingView, which refuses a non-finite parameter
  // and names the cell (or node) that carries it.
  Circuit c = nan_cell_circuit();
  try {
    c.finalize();
    ADD_FAILURE() << "finalize() accepted a NaN c_in";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 'INV_NAN' input capacitance c_in is not finite"),
              std::string::npos)
        << e.what();
  }
  NodeId g;
  Circuit w = small_base(nullptr, nullptr, &g);
  w.set_wire_load(g, std::numeric_limits<double>::infinity());
  try {
    w.finalize();
    ADD_FAILURE() << "finalize() accepted an infinite wire load";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 'C' wire/pad load is not finite"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelAudit, NonFiniteWireLoadIsMOD005) {
  NodeId g;
  Circuit c = small_base(nullptr, nullptr, &g);
  c.set_wire_load(g, std::numeric_limits<double>::infinity());
  const Report report = analyze::audit_view_compilability(c);
  ASSERT_TRUE(has_rule(report, "MOD005"));
  EXPECT_NE(message_of(report, "MOD005").find("'C'"), std::string::npos);
  // A healthy circuit is clean.
  Circuit ok = small_base();
  EXPECT_FALSE(analyze::audit_view_compilability(ok).has_errors());
}


// ---------------------------------------------------------------------------
// Lint driver + parser error paths
// ---------------------------------------------------------------------------

analyze::LintOptions fast_options() {
  analyze::LintOptions options;
  options.derivative_points = 1;
  return options;
}

TEST(LintDriver, TreeIsClean) {
  Circuit tree = netlist::make_tree_circuit();
  const Report report = analyze::lint_circuit(tree, fast_options()).report;
  EXPECT_EQ(report.exit_code(), 0) << report.errors_text();
}

TEST(LintDriver, StructuralErrorsSuppressModelAudit) {
  NodeId a;
  Circuit c = small_base(&a);
  c.add_gate(c.library().cell_for_inputs(1), {a}, "dangle");
  const Report report = analyze::lint_circuit(c, fast_options()).report;
  EXPECT_TRUE(has_rule(report, "CIR006"));
  EXPECT_FALSE(c.finalized());  // driver must not try to finalize broken input
  for (const auto& d : report.diagnostics()) {
    EXPECT_NE(d.id.substr(0, 3), "MOD") << "model audit must not run on broken structure";
  }
}

TEST(LintDriver, NonCompilableViewIsReportedNotThrown) {
  // lint_circuit must report MOD005 instead of dying when finalize() (which
  // compiles the TimingView) would throw on the non-finite parameter — so the
  // audit has to run before the driver's finalize step.
  Circuit c = nan_cell_circuit();
  const Report report = analyze::lint_circuit(c, fast_options()).report;
  EXPECT_TRUE(has_rule(report, "MOD005"));
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(c.finalized());
}

TEST(BlifErrors, UndefinedSignalThrowsAndLints) {
  const std::string text =
      ".model m\n.inputs a\n.outputs y\n.names a phantom y\n11 1\n.end\n";
  {
    std::istringstream in(text);
    EXPECT_THROW(netlist::read_blif(in), std::runtime_error);
  }
  std::istringstream in(text);
  const Report report = analyze::lint_blif(in, CellLibrary::standard(), fast_options()).report;
  ASSERT_TRUE(has_rule(report, "PAR001"));
  EXPECT_NE(message_of(report, "PAR001").find("phantom"), std::string::npos);
  EXPECT_NE(message_of(report, "PAR001").find("never defined"), std::string::npos);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(BlifErrors, DuplicateDefinitionThrowsAndLints) {
  const std::string text =
      ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n";
  {
    std::istringstream in(text);
    EXPECT_THROW(netlist::read_blif(in), std::runtime_error);
  }
  std::istringstream in(text);
  const Report report = analyze::lint_blif(in, CellLibrary::standard(), fast_options()).report;
  ASSERT_TRUE(has_rule(report, "PAR001"));
  EXPECT_NE(message_of(report, "PAR001").find("defined twice"), std::string::npos);
}

TEST(BlifErrors, MissingArityCellThrowsAndLints) {
  const std::string text =
      ".model m\n.inputs a b c d e\n.outputs y\n.names a b c d e y\n11111 1\n.end\n";
  {
    std::istringstream in(text);
    EXPECT_THROW(netlist::read_blif(in), std::runtime_error);  // standard() tops out at 4 pins
  }
  std::istringstream in(text);
  const Report report = analyze::lint_blif(in, CellLibrary::standard(), fast_options()).report;
  ASSERT_TRUE(has_rule(report, "PAR001"));
  EXPECT_NE(message_of(report, "PAR001").find("no library cell with 5 inputs"),
            std::string::npos);
}

TEST(BlifErrors, DuplicateOutputThrowsAndLints) {
  const std::string text =
      ".model m\n.inputs a b\n.outputs y z y\n.names a b y\n11 0\n.names y b z\n11 0\n.end\n";
  {
    std::istringstream in(text);
    EXPECT_THROW(netlist::read_blif(in), std::invalid_argument);
  }
  std::istringstream in(text);
  const Report report = analyze::lint_blif(in, CellLibrary::standard(), fast_options()).report;
  ASSERT_TRUE(has_rule(report, "PAR001"));
  EXPECT_NE(message_of(report, "PAR001").find("'y' is already a primary output"),
            std::string::npos);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(BlifErrors, CycleSurfacesAsStructuralDiagnosticNotParseError) {
  // A cycle is representable in the graph, so the raw importer accepts it and
  // the structural analyzer names the gates — strictly better than the old
  // parser-level rejection.
  const std::string text =
      ".model m\n.inputs a\n.outputs y\n"
      ".names a q y\n11 1\n.names y r\n1 1\n.names r q\n1 1\n.end\n";
  {
    std::istringstream in(text);
    EXPECT_THROW(netlist::read_blif(in), std::runtime_error);
  }
  std::istringstream in(text);
  const Report report = analyze::lint_blif(in, CellLibrary::standard(), fast_options()).report;
  EXPECT_FALSE(has_rule(report, "PAR001"));
  ASSERT_TRUE(has_rule(report, "CIR001"));
  EXPECT_NE(message_of(report, "CIR001").find("->"), std::string::npos);
}

TEST(BlifImport, OutOfOrderDefinitionsBuildAndStayClean) {
  const std::string text =
      ".model m\n.inputs a b\n.outputs y\n"
      ".names n1 b y\n11 1\n.names a b n1\n11 1\n.end\n";
  std::istringstream in(text);
  Circuit c = netlist::read_blif(in);
  EXPECT_EQ(c.num_gates(), 2);
  EXPECT_TRUE(c.finalized());
  EXPECT_TRUE(analyze::lint_circuit_structure(c).empty());
}

TEST(BlifImport, CloneWithLibrarySurvivesNonIdentityTopoOrder) {
  const std::string text =
      ".model m\n.inputs a b\n.outputs y\n"
      ".names n1 b y\n11 1\n.names a b n1\n11 1\n.end\n";
  std::istringstream in(text);
  Circuit c = netlist::read_blif(in);
  const CellLibrary scaled = netlist::scale_library_delays(c.library(), 1.5);
  Circuit clone = netlist::clone_with_library(c, scaled);
  ASSERT_EQ(clone.num_nodes(), c.num_nodes());
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    EXPECT_EQ(clone.node(id).name, c.node(id).name);
    EXPECT_EQ(clone.node(id).fanins, c.node(id).fanins);
  }
  EXPECT_EQ(clone.outputs(), c.outputs());
}

TEST(VerilogErrors, BadInputsThrowAndLint) {
  // 5 pins: unknown names with 1-4 pins fall back to a generic cell, so an
  // unresolvable instance needs an arity the standard library lacks.
  const std::string unknown_cell =
      "module top (a, y);\ninput a;\noutput y;\n"
      "BOGUS9 g1 (.A(a), .B(a), .C(a), .D(a), .E(a), .Y(y));\nendmodule\n";
  const std::string pin_mismatch =
      "module top (a, y);\ninput a;\noutput y;\nNAND2 g1 (.A(a), .Y(y));\nendmodule\n";
  const std::string two_drivers =
      "module top (a, y);\ninput a;\noutput y;\n"
      "INV g1 (.A(a), .Y(y));\nINV g2 (.A(a), .Y(y));\nendmodule\n";
  const std::string undriven =
      "module top (a, y);\ninput a;\noutput y;\nwire n;\nINV g1 (.A(n), .Y(y));\nendmodule\n";
  const struct {
    const std::string* text;
    const char* expect;
  } cases[] = {
      {&unknown_cell, "unknown cell"},
      {&pin_mismatch, "expects"},
      {&two_drivers, "two drivers"},
      {&undriven, "no driver"},
  };
  for (const auto& tc : cases) {
    {
      std::istringstream in(*tc.text);
      EXPECT_THROW(netlist::read_verilog(in), std::runtime_error) << tc.expect;
    }
    std::istringstream in(*tc.text);
    const Report report =
        analyze::lint_verilog(in, CellLibrary::standard(), fast_options()).report;
    ASSERT_TRUE(has_rule(report, "PAR002")) << tc.expect;
    EXPECT_NE(message_of(report, "PAR002").find(tc.expect), std::string::npos);
    EXPECT_EQ(report.exit_code(), 3);
  }
}

TEST(VerilogErrors, DuplicateOutputThrowsAndLints) {
  const std::string text =
      "module top (a, y);\ninput a;\noutput y, y;\nINV g1 (.A(a), .Y(y));\nendmodule\n";
  {
    std::istringstream in(text);
    EXPECT_THROW(netlist::read_verilog(in), std::invalid_argument);
  }
  std::istringstream in(text);
  const Report report = analyze::lint_verilog(in, CellLibrary::standard(), fast_options()).report;
  ASSERT_TRUE(has_rule(report, "PAR002"));
  // A gate node carries its instance name.
  EXPECT_NE(message_of(report, "PAR002").find("'g1' is already a primary output"),
            std::string::npos);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(LintDriver, MissingFileIsAParseDiagnosticNotACrash) {
  const Report blif = analyze::lint_file("/nonexistent/x.blif", CellLibrary::standard()).report;
  EXPECT_TRUE(has_rule(blif, "PAR001"));
  const Report verilog = analyze::lint_file("/nonexistent/x.v", CellLibrary::standard()).report;
  EXPECT_TRUE(has_rule(verilog, "PAR002"));
}

}  // namespace
