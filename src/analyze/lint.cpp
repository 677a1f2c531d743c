#include "analyze/lint.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "analyze/circuit_lint.h"
#include "analyze/library_lint.h"
#include "core/full_space.h"
#include "netlist/blif.h"
#include "netlist/verilog.h"
#include "nlp/auglag.h"
#include "ssta/delay_model.h"
#include "ssta/ssta.h"
#include "util/json.h"

namespace statsize::analyze {

namespace {

/// Step 4 of the driver (lint.h) on a finalized circuit with gates.
void audit_formulations(const netlist::Circuit& circuit, const LintOptions& options,
                        LintResult& result) {
  const ModelAuditOptions& model = options.model;
  core::SizingSpec spec;
  spec.sigma_model = model.sigma_model;
  spec.max_speed = model.max_speed;
  Report spec_report = audit_spec(spec, circuit);
  const bool broken_spec = spec_report.has_errors();
  result.report.merge(std::move(spec_report));
  if (broken_spec) return;  // a broken spec makes the builds meaningless

  const std::vector<double> unit(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  result.report.merge(
      audit_clark_degeneracy(circuit, model.sigma_model, unit, model.theta_threshold));

  // A mu + 3 sigma objective plus a just-tight delay constraint (bound from
  // the SSTA at S = 1, the slowest sizing), so the formulation materializes
  // every element family (Product, Square, Clark, n-ary Clark, Sqrt) and the
  // inequality slack, whatever objective the user will optimize.
  const stat::NormalRV total =
      ssta::run_ssta(ssta::DelayCalculator(circuit, model.sigma_model), unit).circuit_delay;
  spec.objective = core::Objective::min_delay(3.0);
  spec.delay_constraint = core::DelayConstraint::at_most(0.98 * total.quantile_offset(3.0), 3.0);

  // The derivative sweep is quadratic-ish; cap it.
  const bool derivatives =
      model.derivative_audit && model.derivative_points >= 0 &&
      (circuit.num_gates() <= options.derivative_gate_cap || options.force_derivative_audit);
  const int num_formulations = model.audit_nary ? 2 : 1;
  for (int variant = 0; variant < num_formulations; ++variant) {
    spec.nary_fanin_max = variant == 1;
    const char* what = variant == 1 ? "full-space, n-ary max" : "full-space, pairwise max";
    const core::FullSpaceFormulation form = core::build_full_space(circuit, spec, 1.0);
    const nlp::Problem& problem = *form.problem;
    result.report.merge(audit_problem_bounds(problem, what));
    if (derivatives) {
      const unsigned seed = model.rng_seed + static_cast<unsigned>(variant);
      result.report.merge(audit_problem_derivatives(problem, what, model.derivative_points, seed,
                                                    model.derivative_tol));
    }
    result.report.merge(audit_nlp_problem(problem, what, options.nlp));
    if (variant == 0) {
      result.has_nlp = true;
      result.nlp_vars = problem.num_vars();
      result.nlp_constraints = problem.num_constraints();
      result.nlp_elements = problem.num_owned_elements();
      // The solver's first Psi state: zero multipliers, default rho.
      const nlp::AugLagModel auglag(
          problem, std::vector<double>(static_cast<std::size_t>(problem.num_constraints()), 0.0),
          nlp::AugLagOptions{}.initial_rho);
      result.report.merge(audit_auglag_state(auglag, what));
    }
  }
}

LintResult parse_failure(const char* rule, const std::string& locus, const std::string& message) {
  LintResult result;
  result.report.add(rule, locus, message);
  return result;
}

}  // namespace

LintResult lint_circuit(netlist::Circuit& circuit, const LintOptions& options) {
  LintResult result;
  Report& report = result.report;
  report = lint_circuit_structure(circuit);
  report.merge(lint_library(circuit.library()));
  if (circuit.library().size() > 0) {
    double min_t_int = std::numeric_limits<double>::infinity();
    for (int i = 0; i < circuit.library().size(); ++i) {
      min_t_int = std::min(min_t_int, circuit.library().cell(i).t_int);
    }
    report.merge(lint_sigma_model(options.model.sigma_model, min_t_int));
  }
  // MOD005 must run before finalize(): a non-finite cell parameter or load
  // makes finalize() throw while compiling the TimingView, and lint should
  // report the defect, not die on it.
  report.merge(audit_view_compilability(circuit));
  if (report.has_errors()) {
    report.sort();
    return result;
  }
  // Clean gate: safe to finalize (finalize re-runs the structural analysis
  // internally, so this cannot throw here) and run the graph and model steps.
  if (!circuit.finalized()) circuit.finalize();
  report.merge(audit_graph(circuit.view(), options.graph, &result.stats));
  result.has_view = true;
  if (options.model_audit && circuit.num_gates() > 0) {
    audit_formulations(circuit, options, result);
  }
  report.sort();
  return result;
}

LintResult lint_blif(std::istream& in, const netlist::CellLibrary& library,
                     const LintOptions& options) {
  try {
    netlist::Circuit circuit = netlist::read_blif_raw(in, library);
    return lint_circuit(circuit, options);
  } catch (const std::exception& e) {
    return parse_failure("PAR001", "blif input", e.what());
  }
}

LintResult lint_verilog(std::istream& in, const netlist::CellLibrary& library,
                        const LintOptions& options) {
  try {
    netlist::Circuit circuit = netlist::read_verilog(in, library);
    return lint_circuit(circuit, options);
  } catch (const std::exception& e) {
    return parse_failure("PAR002", "verilog input", e.what());
  }
}

LintResult lint_file(const std::string& path, const netlist::CellLibrary& library,
                     const LintOptions& options) {
  const bool verilog = path.size() >= 2 && path.compare(path.size() - 2, 2, ".v") == 0;
  std::ifstream in(path);
  if (!in) return parse_failure(verilog ? "PAR002" : "PAR001", path, "cannot open file");
  return verilog ? lint_verilog(in, library, options) : lint_blif(in, library, options);
}

void LintResult::print(std::ostream& out) const {
  report.print(out);
  if (has_view) {
    const netlist::TimingViewStats& s = stats;
    out << "graph: " << s.num_gates << " gates, " << s.num_edges << " edges, "
        << s.level_widths.size() << " levels (width min/mean/max " << s.min_level_width << "/"
        << s.mean_level_width << "/" << s.max_level_width << ")\n";
    out << "graph: reconvergence " << s.reconvergence_count << " (ratio " << s.reconvergence_ratio
        << "), max fanout " << s.max_fanout << ", max cone " << s.max_cone_size << " over "
        << s.sampled_outputs << " sampled outputs\n";
  }
  if (has_nlp) {
    out << "nlp: " << nlp_vars << " variables, " << nlp_constraints << " constraints, "
        << nlp_elements << " elements (pairwise-max formulation)\n";
  }
}

void LintResult::write_json(std::ostream& out, std::string_view target) const {
  util::JsonWriter w(out);
  w.begin_object();
  w.key("target").value(target);
  report.write_json_members(w);

  if (has_view) {
    const netlist::TimingViewStats& s = stats;
    w.key("graph_stats").begin_object();
    w.key("num_nodes").value(s.num_nodes);
    w.key("num_gates").value(s.num_gates);
    w.key("num_inputs").value(s.num_inputs);
    w.key("num_outputs").value(s.num_outputs);
    w.key("num_edges").value(static_cast<long>(s.num_edges));
    w.key("num_levels").value(static_cast<long>(s.level_widths.size()));
    w.key("min_level_width").value(static_cast<long>(s.min_level_width));
    w.key("mean_level_width").value(s.mean_level_width);
    w.key("max_level_width").value(static_cast<long>(s.max_level_width));
    w.key("max_fanout").value(static_cast<long>(s.max_fanout));
    w.key("mean_gate_fanout").value(s.mean_gate_fanout);
    w.key("reconvergence_count").value(static_cast<long>(s.reconvergence_count));
    w.key("reconvergence_ratio").value(s.reconvergence_ratio);
    w.key("num_components").value(s.num_components);
    w.key("max_cone_size").value(static_cast<long>(s.max_cone_size));
    w.key("mean_cone_size").value(s.mean_cone_size);
    w.key("sampled_outputs").value(s.sampled_outputs);
    w.key("level_widths").begin_array();
    for (std::size_t width : s.level_widths) w.value(static_cast<long>(width));
    w.end_array();
    w.end_object();
  }

  if (has_nlp) {
    w.key("nlp_instance").begin_object();
    w.key("variables").value(nlp_vars);
    w.key("constraints").value(nlp_constraints);
    w.key("elements").value(nlp_elements);
    w.end_object();
  }

  w.end_object();
  out << "\n";
}

}  // namespace statsize::analyze
