// Pre-solve static audit driver — the engine behind `statsize audit`.
//
// Where `statsize lint` asks "is this netlist/model well formed" by evaluating
// it (finite differences, SSTA sweeps), the audit asks "what will the solver
// actually face" without evaluating anything: it compiles the circuit, runs
// the GRF0xx graph analytics over the TimingView, builds the full-space NLP
// instance the sizer would hand to the augmented-Lagrangian solver, and runs
// the NLP0xx structural rules over it. The combined report gates CI through
// the same 0/2/3 exit codes as lint; the JSON document additionally carries
// the graph statistics and the NLP instance shape.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "analyze/diagnostic.h"
#include "analyze/graph_audit.h"
#include "analyze/nlp_audit.h"
#include "netlist/circuit.h"
#include "ssta/delay_model.h"

namespace statsize::analyze {

struct AuditOptions {
  GraphAuditOptions graph;
  NlpAuditOptions nlp;
  ssta::SigmaModel sigma_model{0.25, 0.0};
  double max_speed = 3.0;
  /// Build and audit the full-space NLP instance (pairwise-max formulation,
  /// plus an AugLagModel at its initial multiplier/penalty state).
  bool nlp_audit = true;
  /// Also audit the n-ary-max formulation variant.
  bool audit_nary = true;
};

/// One audit run: the report plus the analytics the JSON document and the
/// bench report alongside the diagnostics.
struct AuditResult {
  Report report;
  bool has_view = false;  ///< graph analytics ran (circuit was compilable)
  netlist::TimingViewStats stats;
  bool has_nlp = false;  ///< NLP instance was built and audited
  int nlp_vars = 0;
  int nlp_constraints = 0;
  int nlp_elements = 0;
};

/// Audits `circuit`: structural gate first (an un-finalizable circuit gets the
/// structural findings and stops), then GRF graph analytics, then
/// the NLP instance rules. Finalizes the circuit if it is structurally clean
/// and not yet finalized.
AuditResult audit_circuit(netlist::Circuit& circuit, const AuditOptions& options = {});

/// Parses `path` (.v -> Verilog, else BLIF) and audits the result; parse
/// failures become PAR001/PAR002 diagnostics, mirroring lint_file.
AuditResult audit_file(const std::string& path, const netlist::CellLibrary& library,
                       const AuditOptions& options = {});

/// Human-readable rendering: the report, then the graph/NLP analytics.
void print_audit(std::ostream& out, const AuditResult& result);

/// Machine-readable document: {target, summary, diagnostics[], graph_stats,
/// nlp_instance}.
void write_audit_json(std::ostream& out, const AuditResult& result, std::string_view target);

}  // namespace statsize::analyze
