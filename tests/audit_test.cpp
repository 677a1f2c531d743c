// Tests for the pre-solve static audits (src/analyze/{nlp_audit, graph_audit}):
// one positive and one clean-instance case per NLP0xx/GRF0xx rule, the
// Report::merge deduplication contract, and the lint driver's graph and NLP
// steps end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/diagnostic.h"
#include "analyze/graph_audit.h"
#include "analyze/lint.h"
#include "analyze/model_audit.h"
#include "analyze/nlp_audit.h"
#include "analyze/registry.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"
#include "nlp/auglag.h"
#include "nlp/problem.h"

namespace {

using namespace statsize;
using analyze::GraphAuditOptions;
using analyze::Report;
using analyze::Severity;
using netlist::CellLibrary;
using netlist::Circuit;
using netlist::NodeId;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool has_rule(const Report& report, const std::string& id) {
  for (const auto& d : report.diagnostics()) {
    if (d.id == id) return true;
  }
  return false;
}

int count_rule(const Report& report, const std::string& id) {
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.id == id) ++n;
  }
  return n;
}

/// A minimal well-posed instance: minimize x0 + x1 subject to x0 * x1 = 1
/// (one Product element), everything referenced, sane scales and names.
nlp::Problem clean_problem() {
  nlp::Problem p;
  const int x0 = p.add_variable(1.0, 3.0, 1.5, "S_a");
  const int x1 = p.add_variable(1.0, 3.0, 1.5, "S_b");
  nlp::FunctionGroup obj;
  obj.linear.push_back({x0, 1.0});
  obj.linear.push_back({x1, 1.0});
  p.set_objective(std::move(obj));
  nlp::FunctionGroup c;
  c.constant = -1.0;
  c.elements.push_back({p.own(std::make_unique<nlp::ProductElement>()), {x0, x1}, 1.0});
  p.add_equality(std::move(c));
  return p;
}

/// Test element with a configurable arity, for the NLP004 cliff cases.
class WideElement final : public nlp::ElementFunction {
 public:
  explicit WideElement(int arity) : arity_(arity) {}
  int arity() const override { return arity_; }
  double eval(const double*, double*, double*) const override { return 0.0; }

 private:
  int arity_;
};

// ---------------------------------------------------------------------------
// NLP0xx — instance rules
// ---------------------------------------------------------------------------

TEST(NlpAudit, CleanInstanceIsClean) {
  const nlp::Problem p = clean_problem();
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(r.empty()) << "unexpected: " << r.summary();
}

TEST(NlpAudit, Nlp001FiresOnNanBound) {
  // add_variable rejects lower > upper eagerly, but NaN bounds pass every
  // comparison — the silent empty box NLP001 exists for.
  nlp::Problem p = clean_problem();
  p.add_variable(kNaN, 1.0, 1.0, "S_broken");
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(has_rule(r, "NLP001"));
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(NlpAudit, EmptyBoxIsNlp001AloneNotMod001) {
  // One defect, one rule: an empty box (a NaN bound on either side) is
  // NLP001's finding once per variable; MOD001 keeps only the start checks.
  for (const bool nan_lower : {true, false}) {
    nlp::Problem p = clean_problem();
    p.add_variable(nan_lower ? kNaN : 1.0, nan_lower ? 1.0 : kNaN, 1.0, "S_broken");
    EXPECT_TRUE(analyze::audit_problem_bounds(p, "test").empty());
    const Report r = analyze::audit_nlp_problem(p, "test");
    EXPECT_EQ(count_rule(r, "NLP001"), 1);
  }
}

TEST(NlpAudit, Nlp002FiresOnCollapsedBound) {
  nlp::Problem p = clean_problem();
  const int pinned = p.add_variable(2.0, 2.0, 2.0, "S_pinned");
  nlp::FunctionGroup c;
  c.linear.push_back({pinned, 1.0});
  c.constant = -2.0;
  p.add_equality(std::move(c));
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(has_rule(r, "NLP002"));
  EXPECT_EQ(r.exit_code(), 0);  // a note, not a gate-tripping finding
}

TEST(NlpAudit, Nlp003FiresOnOrphanVariable) {
  nlp::Problem p = clean_problem();
  p.add_variable(1.0, 3.0, 1.0, "S_orphan");
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(has_rule(r, "NLP003"));
  EXPECT_FALSE(has_rule(r, "NLP001"));
}

TEST(NlpAudit, Nlp004WarnsAtArityCliffAndErrorsBeyondIt) {
  nlp::Problem p = clean_problem();
  const WideElement at_cliff(nlp::kMaxElementArity);
  const WideElement beyond(nlp::kMaxElementArity + 1);
  nlp::FunctionGroup c;
  c.elements.push_back({&at_cliff, std::vector<int>(nlp::kMaxElementArity, 0), 1.0});
  p.add_equality(std::move(c));
  Report r = analyze::audit_nlp_problem(p, "test");
  ASSERT_TRUE(has_rule(r, "NLP004"));
  EXPECT_EQ(r.exit_code(), 2);  // at the cliff: warning

  nlp::FunctionGroup c2;
  c2.elements.push_back({&beyond, std::vector<int>(nlp::kMaxElementArity + 1, 0), 1.0});
  p.add_equality(std::move(c2));
  r = analyze::audit_nlp_problem(p, "test");
  EXPECT_EQ(r.exit_code(), 3);  // beyond it: stack-buffer overflow, error
}

TEST(NlpAudit, Nlp005FiresOnConstantConstraint) {
  nlp::Problem p = clean_problem();
  nlp::FunctionGroup infeasible;
  infeasible.constant = 4.2;  // "4.2 = 0"
  p.add_equality(std::move(infeasible));
  nlp::FunctionGroup vacuous;  // "0 = 0"
  p.add_equality(std::move(vacuous));
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_EQ(count_rule(r, "NLP005"), 2);
  EXPECT_EQ(r.exit_code(), 3);  // the non-zero constant variant is an error
}

TEST(NlpAudit, Nlp006FiresOnObjectiveVsConstraintScaleMismatch) {
  nlp::Problem p;
  const int x = p.add_variable(1.0, 3.0, 1.0, "S_a");
  nlp::FunctionGroup obj;
  obj.linear.push_back({x, 1.0});  // objective scale ~3
  p.set_objective(std::move(obj));
  nlp::FunctionGroup c;
  c.linear.push_back({x, 1e9});  // constraint scale ~3e9: ratio 1e9 > 1e6
  p.add_equality(std::move(c));
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(has_rule(r, "NLP006"));
}

TEST(NlpAudit, Nlp006FiresOnConstraintSpread) {
  nlp::Problem p;
  const int x = p.add_variable(1.0, 3.0, 1.0, "S_a");
  nlp::FunctionGroup obj;
  obj.linear.push_back({x, 1.0});
  p.set_objective(std::move(obj));
  nlp::FunctionGroup small;
  small.linear.push_back({x, 1.0});
  p.add_equality(std::move(small));
  nlp::FunctionGroup huge;
  huge.linear.push_back({x, 1e9});  // spread 1e9 > 1e8 default threshold
  p.add_equality(std::move(huge));
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(has_rule(r, "NLP006"));
}

TEST(NlpAudit, Nlp006SilentOnCommensurateScales) {
  const nlp::Problem p = clean_problem();
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_FALSE(has_rule(r, "NLP006"));
}

TEST(NlpAudit, Nlp007FiresOnDuplicateVariableNames) {
  nlp::Problem p = clean_problem();
  const int dup = p.add_variable(1.0, 3.0, 1.0, "S_a");  // name already taken
  nlp::FunctionGroup c;
  c.linear.push_back({dup, 1.0});
  p.add_equality(std::move(c));
  const Report r = analyze::audit_nlp_problem(p, "test");
  EXPECT_TRUE(has_rule(r, "NLP007"));
}

TEST(NlpAudit, EstimateGroupScaleUsesBoundsAndWeights) {
  nlp::Problem p;
  const int x = p.add_variable(1.0, 5.0, 1.0, "S_a");
  nlp::FunctionGroup g;
  g.constant = 2.0;
  g.linear.push_back({x, 10.0});  // 10 * typical magnitude 5 = 50 dominates
  EXPECT_DOUBLE_EQ(analyze::estimate_group_scale(p, g), 50.0);
}

TEST(NlpAudit, Nlp008FiresOnBrokenAugLagState) {
  const nlp::Problem p = clean_problem();
  const nlp::AugLagModel clean(p, {0.0}, 10.0);
  EXPECT_TRUE(analyze::audit_auglag_state(clean, "test").empty());

  const nlp::AugLagModel nan_mult(p, {kNaN}, 10.0);
  EXPECT_TRUE(has_rule(analyze::audit_auglag_state(nan_mult, "test"), "NLP008"));

  const nlp::AugLagModel zero_rho(p, {0.0}, 0.0);
  EXPECT_TRUE(has_rule(analyze::audit_auglag_state(zero_rho, "test"), "NLP008"));
}

// ---------------------------------------------------------------------------
// GRF0xx — graph rules
// ---------------------------------------------------------------------------

TEST(GraphAudit, CleanTreeHasNoStructuralFindings) {
  Circuit c = netlist::make_tree_circuit();  // generators finalize
  netlist::TimingViewStats stats;
  const Report r = analyze::audit_graph(c.view(), {}, &stats);
  EXPECT_FALSE(has_rule(r, "GRF001"));
  EXPECT_FALSE(has_rule(r, "GRF002"));
  EXPECT_FALSE(has_rule(r, "GRF004"));
  EXPECT_FALSE(has_rule(r, "GRF005"));
  EXPECT_EQ(stats.num_gates, 7);
  EXPECT_EQ(stats.num_edges, 14u);
  ASSERT_EQ(stats.level_widths.size(), 3u);
  EXPECT_EQ(stats.level_widths[0], 4u);
  EXPECT_EQ(stats.level_widths[2], 1u);
  EXPECT_EQ(stats.reconvergence_count, 0u);  // a tree, by construction
  EXPECT_EQ(stats.num_components, 1);
  EXPECT_EQ(stats.max_cone_size, 15u);  // the root's cone is the whole circuit
}

TEST(GraphAudit, ViewInvariantsHoldOnGeneratedCircuits) {
  for (const char* which : {"tree", "chain", "dag"}) {
    Circuit c = std::string(which) == "tree"   ? netlist::make_tree_circuit()
                : std::string(which) == "chain" ? netlist::make_chain(12)
                                                : netlist::make_mcnc_like("apex1");
    EXPECT_TRUE(netlist::check_view_invariants(c.view()).empty()) << which;
  }
}

TEST(GraphAudit, Grf002FiresOnZeroWidthLevels) {
  const std::vector<std::size_t> widths = {4, 0, 9, 0};
  const Report r = analyze::audit_level_widths(widths);
  EXPECT_EQ(count_rule(r, "GRF002"), 2);
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(GraphAudit, Grf002SilentOnPositiveWidths) {
  // Any histogram a sound finalize() can emit — including a single-gate
  // level and a very wide one — is not a GRF002 finding.
  const std::vector<std::size_t> widths = {1, 250, 3, 1};
  const Report r = analyze::audit_level_widths(widths);
  EXPECT_EQ(count_rule(r, "GRF002"), 0);
  EXPECT_FALSE(r.has_errors());
}

TEST(GraphAudit, Grf004FiresOnFanoutSkew) {
  const CellLibrary& lib = CellLibrary::standard();
  const int inv = lib.cell_for_inputs(1);
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId root = c.add_gate(inv, {a}, "root");
  for (int i = 0; i < 40; ++i) {
    const NodeId leaf = c.add_gate(inv, {root}, "leaf" + std::to_string(i));
    c.mark_output(leaf, 1.0);
  }
  c.finalize();
  netlist::TimingViewStats stats;
  const Report r = analyze::audit_graph(c.view(), {}, &stats);
  EXPECT_EQ(stats.max_fanout, 40u);
  EXPECT_EQ(stats.max_fanout_node, root);
  EXPECT_TRUE(has_rule(r, "GRF004"));
}

TEST(GraphAudit, Grf005FiresOnReconvergence) {
  // Two stacked diamonds: every gate pair reconverges, Betti number 2 over 8
  // edges. The default 0.25 threshold needs a nudge — the rule is judged at
  // the option surface, which is exactly what the test pins down.
  const CellLibrary& lib = CellLibrary::standard();
  const int inv = lib.cell_for_inputs(1);
  const int nand2 = lib.cell_for_inputs(2);
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId l1 = c.add_gate(inv, {a}, "l1");
  const NodeId r1 = c.add_gate(inv, {a}, "r1");
  const NodeId m = c.add_gate(nand2, {l1, r1}, "m");
  const NodeId l2 = c.add_gate(inv, {m}, "l2");
  const NodeId r2 = c.add_gate(inv, {m}, "r2");
  const NodeId out = c.add_gate(nand2, {l2, r2}, "out");
  c.mark_output(out, 1.0);
  c.finalize();

  GraphAuditOptions sensitive;
  sensitive.reconvergence_ratio_threshold = 0.2;
  netlist::TimingViewStats stats;
  const Report r = analyze::audit_graph(c.view(), sensitive, &stats);
  EXPECT_EQ(stats.reconvergence_count, 2u);
  EXPECT_TRUE(has_rule(r, "GRF005"));

  Circuit chain = netlist::make_chain(6);
  const Report clean = analyze::audit_graph(chain.view(), sensitive);
  EXPECT_FALSE(has_rule(clean, "GRF005"));
}

TEST(GraphAudit, Grf006FiresOnDeepNarrowGraphs) {
  Circuit deep = netlist::make_chain(24);  // 24 levels at mean width 1
  EXPECT_TRUE(has_rule(analyze::audit_graph(deep.view()), "GRF006"));

  Circuit shallow = netlist::make_tree_circuit();  // 3 levels, mean width 2.3
  EXPECT_FALSE(has_rule(analyze::audit_graph(shallow.view()), "GRF006"));
}

// ---------------------------------------------------------------------------
// Report::merge deduplication + locus prefixing (multi-input lint)
// ---------------------------------------------------------------------------

TEST(ReportMerge, DropsIdenticalDiagnostics) {
  Report a;
  a.add("CIR001", "gate 'g'", "cycle");
  Report b;
  b.add("CIR001", "gate 'g'", "cycle");      // identical triple: dropped
  b.add("CIR001", "gate 'h'", "cycle");      // different locus: kept
  b.add("CIR001", "gate 'g'", "other text"); // different message: kept
  a.merge(std::move(b));
  EXPECT_EQ(a.count(Severity::kError), 3);
  // Self-merge of an already-merged report adds nothing.
  Report c;
  c.add("CIR001", "gate 'g'", "cycle");
  a.merge(std::move(c));
  EXPECT_EQ(a.count(Severity::kError), 3);
}

TEST(ReportMerge, PrefixLociNamesTheInputFile) {
  Report r;
  r.add("CIR001", "gate 'g'", "cycle");
  r.prefix_loci("a.blif");
  EXPECT_EQ(r.diagnostics()[0].locus, "a.blif: gate 'g'");
}

// ---------------------------------------------------------------------------
// The lint driver's graph and NLP steps end to end
// ---------------------------------------------------------------------------

TEST(AuditDriver, TreeAuditCarriesAnalyticsAndIsErrorFree) {
  Circuit c = netlist::make_tree_circuit();
  const analyze::LintResult result = analyze::lint_circuit(c);
  EXPECT_TRUE(result.has_view);
  EXPECT_TRUE(result.has_nlp);
  EXPECT_FALSE(result.report.has_errors());
  EXPECT_GT(result.nlp_vars, 0);
  EXPECT_GT(result.nlp_constraints, 0);
  EXPECT_EQ(static_cast<int>(result.stats.level_widths.size()), c.depth());

  std::ostringstream json;
  result.write_json(json, "tree");
  EXPECT_NE(json.str().find("\"graph_stats\""), std::string::npos);
  EXPECT_NE(json.str().find("\"nlp_instance\""), std::string::npos);
}

TEST(AuditDriver, ReportsLevelWidthsWithoutGranularityAdvice) {
  // The driver describes the level histogram; it no longer turns it into a
  // serial cutoff, since the runtime's only granularity rule is
  // parallel_for's own one-grain inline path.
  Circuit c = netlist::make_mcnc_like("apex2");
  const analyze::LintResult result = analyze::lint_circuit(c);
  ASSERT_TRUE(result.has_view);
  std::size_t gates = 0;
  for (std::size_t width : result.stats.level_widths) gates += width;
  EXPECT_EQ(static_cast<int>(gates), c.num_gates());

  std::ostringstream json;
  result.write_json(json, "apex2");
  EXPECT_NE(json.str().find("\"level_widths\""), std::string::npos);
  EXPECT_EQ(json.str().find("granularity"), std::string::npos);
  EXPECT_EQ(json.str().find("cutoff"), std::string::npos);

  std::ostringstream text;
  result.print(text);
  EXPECT_EQ(text.str().find("cutoff"), std::string::npos);
  EXPECT_EQ(count_rule(result.report, "GRF003"), 0);
}

TEST(AuditDriver, StructurallyBrokenCircuitStopsAtTheStructuralGate) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId x = c.add_gate_deferred(lib.cell_for_inputs(2), "x");
  const NodeId y = c.add_gate_deferred(lib.cell_for_inputs(2), "y");
  c.set_fanin(x, 0, y);
  c.set_fanin(x, 1, a);
  c.set_fanin(y, 0, x);
  c.set_fanin(y, 1, a);
  c.mark_output(x, 1.0);
  const analyze::LintResult result = analyze::lint_circuit(c);
  EXPECT_TRUE(result.report.has_errors());
  EXPECT_FALSE(result.has_view);  // never finalized, no graph analytics
  EXPECT_FALSE(result.has_nlp);
}

TEST(AuditDriver, MissingFileBecomesParseDiagnostic) {
  const analyze::LintResult result =
      analyze::lint_file("/nonexistent/x.blif", CellLibrary::standard());
  EXPECT_TRUE(has_rule(result.report, "PAR001"));
}

TEST(AuditDriver, OneLintRunReportsModelGraphAndNlpFindings) {
  // One driver, one report: a zero sigma model makes every live Clark merge
  // degenerate (MOD002), apex2's reconvergence trips GRF005, and a tight
  // scale threshold makes the instance rules speak (NLP006).
  Circuit c = netlist::make_mcnc_like("apex2");
  analyze::LintOptions options;
  options.model.sigma_model = {0.0, 0.0};
  options.nlp.scale_ratio_threshold = 1.0;
  const analyze::LintResult result = analyze::lint_circuit(c, options);
  EXPECT_TRUE(has_rule(result.report, "MOD002"));
  EXPECT_TRUE(has_rule(result.report, "GRF005"));
  EXPECT_TRUE(has_rule(result.report, "NLP006"));

  std::ostringstream json;
  result.write_json(json, "apex2");
  EXPECT_NE(json.str().find("\"graph_stats\""), std::string::npos);
  EXPECT_NE(json.str().find("\"level_widths\""), std::string::npos);
  EXPECT_NE(json.str().find("\"nlp_instance\""), std::string::npos);
}

TEST(AuditRegistry, NewRuleFamiliesAreCataloged) {
  for (const char* id : {"NLP001", "NLP008", "GRF001", "GRF006", "DET001", "DET004"}) {
    EXPECT_NE(analyze::find_rule(id), nullptr) << id;
  }
}

TEST(AuditRegistry, ParallelismRulesNameTheRemainingPattern) {
  // GRF003 judged the deleted serial-cutoff advice and is gone; the hints
  // that remain point at the pattern the code still uses (index-keyed slots
  // folded in a fixed order on the caller), not at a scatter plan.
  EXPECT_EQ(analyze::find_rule("GRF003"), nullptr);

  const analyze::RuleInfo* det003 = analyze::find_rule("DET003");
  ASSERT_NE(det003, nullptr);
  EXPECT_NE(det003->detail.find("index-keyed slots"), std::string_view::npos);
  EXPECT_NE(det003->detail.find("fixed order"), std::string_view::npos);
  EXPECT_EQ(det003->detail.find("Plan"), std::string_view::npos);

  const analyze::RuleInfo* grf004 = analyze::find_rule("GRF004");
  ASSERT_NE(grf004, nullptr);
  EXPECT_EQ(grf004->detail.find("scatter"), std::string_view::npos);
}

}  // namespace
