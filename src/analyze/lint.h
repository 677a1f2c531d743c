// The analysis driver — the engine behind `statsize lint`.
//
// One run over a circuit, a netlist file, or a raw BLIF/Verilog stream:
//   1. the gate: circuit structure, cell library, sigma model and TimingView
//      compilability (MOD005). Any error here ends the run, because the
//      circuit cannot be finalized;
//   2. finalize();
//   3. TimingView graph analytics (GRF0xx, graph_audit.h);
//   4. unless `model_audit` is off: spec checks (MOD004) and Clark degeneracy
//      at S = 1 (MOD002), then one full-space build per formulation variant
//      (pairwise max, plus n-ary max when `model.audit_nary`). Each build
//      feeds the bound check (MOD001), the capped derivative sweep (MOD003)
//      and the evaluation-free instance rules (NLP001..NLP007, nlp_audit.h);
//      NLP008 judges the solver's first AugLagModel state on the pairwise
//      build.
// Parser failures fold into PAR001/PAR002 diagnostics, so a malformed input
// produces a report (and a CI-gating exit code) instead of a crash.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "analyze/diagnostic.h"
#include "analyze/graph_audit.h"
#include "analyze/model_audit.h"
#include "analyze/nlp_audit.h"
#include "netlist/circuit.h"
#include "netlist/timing_view.h"

namespace statsize::analyze {

struct LintOptions {
  ModelAuditOptions model;
  GraphAuditOptions graph;
  NlpAuditOptions nlp;
  /// Step 4: the spec and Clark checks and the formulation builds.
  bool model_audit = true;
  /// The randomized derivative sweep finite-differences every constraint
  /// group; above this gate count it is skipped unless forced.
  int derivative_gate_cap = 200;
  bool force_derivative_audit = false;
};

/// One lint run: the report plus the analytics a single-input run reports
/// alongside it.
struct LintResult {
  Report report;
  bool has_view = false;  ///< graph analytics ran (the circuit was finalized)
  netlist::TimingViewStats stats;
  bool has_nlp = false;  ///< the pairwise formulation was built and audited
  int nlp_vars = 0;
  int nlp_constraints = 0;
  int nlp_elements = 0;

  /// Human-readable rendering: the report, then the graph/NLP analytics.
  void print(std::ostream& out) const;

  /// Machine-readable document: {target, summary, diagnostics[], and when
  /// present graph_stats and nlp_instance}.
  void write_json(std::ostream& out, std::string_view target) const;
};

/// Lints `circuit` in place (steps 1-4 above); finalizes it when the gate
/// passes and it is not yet finalized. The report is sorted errors-first.
LintResult lint_circuit(netlist::Circuit& circuit, const LintOptions& options = {});

/// Parses BLIF/Verilog from a stream and lints the result; parse failures
/// become PAR001/PAR002 diagnostics.
LintResult lint_blif(std::istream& in, const netlist::CellLibrary& library,
                     const LintOptions& options = {});
LintResult lint_verilog(std::istream& in, const netlist::CellLibrary& library,
                        const LintOptions& options = {});

/// Dispatches on the file extension (.v -> Verilog, anything else -> BLIF).
LintResult lint_file(const std::string& path, const netlist::CellLibrary& library,
                     const LintOptions& options = {});

}  // namespace statsize::analyze
