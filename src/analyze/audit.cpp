#include "analyze/audit.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "analyze/circuit_lint.h"
#include "analyze/model_audit.h"
#include "core/full_space.h"
#include "netlist/blif.h"
#include "netlist/timing_view.h"
#include "netlist/verilog.h"
#include "nlp/auglag.h"
#include "util/json.h"

namespace statsize::analyze {

namespace {

void audit_nlp_instance(AuditResult& result, const netlist::Circuit& circuit,
                        const AuditOptions& options) {
  core::SizingSpec spec;
  spec.sigma_model = options.sigma_model;
  spec.max_speed = options.max_speed;
  // The audit spec mirrors audit_model's: a mu + 3 sigma objective and a
  // delay constraint, so the instance materializes every element family and
  // the slack variable the solver will actually see. The bound's value is
  // irrelevant to the structural rules — 1.0 keeps the build evaluation-free.
  spec.objective = core::Objective::min_delay(3.0);
  spec.delay_constraint = core::DelayConstraint::at_most(1.0, 3.0);

  const int num_formulations = options.audit_nary ? 2 : 1;
  for (int variant = 0; variant < num_formulations; ++variant) {
    spec.nary_fanin_max = variant == 1;
    const char* what = variant == 1 ? "full-space, n-ary max" : "full-space, pairwise max";
    const core::FullSpaceFormulation form = core::build_full_space(circuit, spec, 1.0);
    result.report.merge(audit_nlp_problem(*form.problem, what, options.nlp));
    if (variant == 0) {
      result.has_nlp = true;
      result.nlp_vars = form.problem->num_vars();
      result.nlp_constraints = form.problem->num_constraints();
      result.nlp_elements = form.problem->num_owned_elements();
      // The solver's first Psi state: zero multipliers, default rho.
      const nlp::AugLagModel model(
          *form.problem,
          std::vector<double>(static_cast<std::size_t>(form.problem->num_constraints()), 0.0),
          nlp::AugLagOptions{}.initial_rho);
      result.report.merge(audit_auglag_state(model, what));
    }
  }
}

}  // namespace

AuditResult audit_circuit(netlist::Circuit& circuit, const AuditOptions& options) {
  AuditResult result;
  // Structural + compilability gate: an un-finalizable circuit has no
  // TimingView and no NLP instance to audit, so those findings are the audit.
  result.report = lint_circuit_structure(circuit);
  result.report.merge(audit_view_compilability(circuit));
  if (result.report.has_errors()) {
    result.report.sort();
    return result;
  }
  if (!circuit.finalized()) circuit.finalize();

  result.report.merge(audit_graph(circuit.view(), options.graph, &result.stats));
  result.has_view = true;

  if (options.nlp_audit && circuit.num_gates() > 0) {
    audit_nlp_instance(result, circuit, options);
  }
  result.report.sort();
  return result;
}

AuditResult audit_file(const std::string& path, const netlist::CellLibrary& library,
                       const AuditOptions& options) {
  const bool verilog = path.size() >= 2 && path.compare(path.size() - 2, 2, ".v") == 0;
  AuditResult result;
  std::ifstream in(path);
  if (!in) {
    result.report.add(verilog ? "PAR002" : "PAR001", path, "cannot open file");
    return result;
  }
  try {
    netlist::Circuit circuit =
        verilog ? netlist::read_verilog(in, library) : netlist::read_blif_raw(in, library);
    return audit_circuit(circuit, options);
  } catch (const std::exception& e) {
    result.report.add(verilog ? "PAR002" : "PAR001", path, e.what());
    return result;
  }
}

void print_audit(std::ostream& out, const AuditResult& result) {
  result.report.print(out);
  if (result.has_view) {
    const netlist::TimingViewStats& s = result.stats;
    out << "graph: " << s.num_gates << " gates, " << s.num_edges << " edges, "
        << s.level_widths.size() << " levels (width min/mean/max " << s.min_level_width << "/"
        << s.mean_level_width << "/" << s.max_level_width << ")\n";
    out << "graph: reconvergence " << s.reconvergence_count << " (ratio " << s.reconvergence_ratio
        << "), max fanout " << s.max_fanout << ", max cone " << s.max_cone_size << " over "
        << s.sampled_outputs << " sampled outputs\n";
  }
  if (result.has_nlp) {
    out << "nlp: " << result.nlp_vars << " variables, " << result.nlp_constraints
        << " constraints, " << result.nlp_elements << " elements (pairwise-max formulation)\n";
  }
}

void write_audit_json(std::ostream& out, const AuditResult& result, std::string_view target) {
  util::JsonWriter w(out);
  w.begin_object();
  w.key("target").value(target);
  result.report.write_json_members(w);

  if (result.has_view) {
    const netlist::TimingViewStats& s = result.stats;
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

  if (result.has_nlp) {
    w.key("nlp_instance").begin_object();
    w.key("variables").value(result.nlp_vars);
    w.key("constraints").value(result.nlp_constraints);
    w.key("elements").value(result.nlp_elements);
    w.end_object();
  }

  w.end_object();
  out << "\n";
}

}  // namespace statsize::analyze
