#include "analyze/registry.h"

namespace statsize::analyze {

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      // -- circuit structure ------------------------------------------------
      {"CIR001", "circuit", Severity::kError, "combinational-cycle",
       "the netlist contains a combinational feedback loop (the DAG premise of eq. 4/18 fails)"},
      {"CIR002", "circuit", Severity::kError, "unconnected-fanin-pin",
       "a gate input pin is unwired or references a node id outside the circuit"},
      {"CIR003", "circuit", Severity::kError, "pin-count-mismatch",
       "a gate's fanin count disagrees with its library cell, or its cell id is invalid"},
      {"CIR004", "circuit", Severity::kError, "no-primary-outputs",
       "no node is marked as a primary output, so the circuit delay max (eq. 18a) is empty"},
      {"CIR005", "circuit", Severity::kError, "unreachable-gate",
       "a gate drives other gates but none of its transitive fanout reaches a primary output"},
      {"CIR006", "circuit", Severity::kError, "fanout-free-gate",
       "a non-output gate drives nothing (its speed factor would be an unconstrained variable)"},
      {"CIR007", "circuit", Severity::kNote, "floating-input",
       "a primary input drives no gate and is not an output"},
      {"CIR008", "circuit", Severity::kError, "negative-load",
       "a wire or pad capacitance is negative (eq. 14 requires non-negative loads)"},
      {"CIR009", "circuit", Severity::kNote, "unloaded-output",
       "a primary-output gate has zero pad load (upsizing it is free, which is rarely intended)"},
      {"CIR010", "circuit", Severity::kWarning, "duplicate-name",
       "two nodes share a name, making reports and size tables ambiguous"},
      // -- determinism lint (tools/detlint over the sources) -----------------
      {"DET001", "determinism", Severity::kError, "unordered-container",
       "unordered_{map,set} iteration order is hash-seed dependent; an accumulation fed from "
       "it breaks the bit-identical parallelism contract"},
      {"DET002", "determinism", Severity::kError, "wall-clock-or-rand",
       "rand()/srand()/time()/clock()/random_device (or hashing a pointer) injects run-to-run "
       "nondeterminism into a hot path"},
      {"DET003", "determinism", Severity::kError, "shared-slot-scatter",
       "an indirect-indexed accumulation inside a parallel_for body scatters to shared slots; "
       "write index-keyed slots in the body and fold them in a fixed order on the caller, "
       "as run_monte_carlo does"},
      {"DET004", "determinism", Severity::kError, "missing-poll-cancel",
       "a solver iteration loop has no runtime::poll_cancel() checkpoint, so deadlines and "
       "cancellation cannot stop it (DESIGN.md §9)"},
      // -- TimingView graph analytics ---------------------------------------
      {"GRF001", "graph", Severity::kError, "csr-invariant-violation",
       "the compiled TimingView violates a CSR invariant (edge symmetry, topo order, level "
       "partition) the sweeps, the cone walk and the adjoint's level walk rely on"},
      {"GRF002", "graph", Severity::kError, "zero-width-level",
       "the level partition contains an empty level, which a sound finalize() can never emit "
       "(every level holds at least one gate by construction)"},
      {"GRF004", "graph", Severity::kWarning, "fanout-skew",
       "one net's fanout dwarfs the average, so the gate driving it carries a disproportionate "
       "share of its level's sweep work"},
      {"GRF005", "graph", Severity::kNote, "high-reconvergence",
       "the reconvergence ratio is high; independence SSTA underestimates correlation here "
       "(consider the canonical correlation-aware engine)"},
      {"GRF006", "graph", Severity::kNote, "deep-narrow-graph",
       "logic depth dwarfs the mean level width: every serial sweep and the adjoint's "
       "level walk follow one long dependent chain, so only jobs side by side add throughput"},
      // -- cell library / sigma model / size tables -------------------------
      {"LIB001", "library", Severity::kError, "non-positive-intrinsic-delay",
       "a cell's intrinsic delay t_int is zero or negative"},
      {"LIB002", "library", Severity::kError, "non-positive-drive-coefficient",
       "a cell's delay-per-capacitance constant c is zero or negative"},
      {"LIB003", "library", Severity::kError, "non-positive-input-capacitance",
       "a cell presents zero or negative input capacitance (its drivers would see no load)"},
      {"LIB004", "library", Severity::kWarning, "non-positive-area",
       "a cell's area is zero or negative, corrupting area-weighted objectives"},
      {"LIB005", "library", Severity::kError, "duplicate-cell-name",
       "two cells share a name, so name-based lookups are ambiguous"},
      {"LIB006", "library", Severity::kError, "invalid-pin-count",
       "a cell declares fewer than one input pin"},
      {"LIB007", "library", Severity::kNote, "missing-arity",
       "the library has no cell for some pin count below its maximum (BLIF import would fail)"},
      {"LIB008", "library", Severity::kError, "non-physical-sigma-model",
       "sigma(mu) = kappa*mu + offset is negative at an attainable mean delay"},
      {"LIB009", "library", Severity::kWarning, "non-monotone-sigma-model",
       "kappa < 0 makes sigma shrink as mu grows, inverting the variability-vs-delay trade-off"},
      {"LIB010", "library", Severity::kError, "invalid-size-table",
       "a discrete size table is empty, non-ascending, or contains sizes below 1"},
      // -- NLP model audits -------------------------------------------------
      {"MOD001", "model", Severity::kError, "bound-inconsistency",
       "an NLP variable's start S_0 lies outside its box [S_min, S_max] or is not finite"},
      {"MOD002", "model", Severity::kWarning, "clark-degeneracy",
       "a statistical-max merge point has theta = sqrt(varA+varB) below threshold, where the "
       "Clark derivatives (eqs. 10-13) become ill-conditioned"},
      {"MOD003", "model", Severity::kError, "derivative-mismatch",
       "an analytic gradient or Hessian disagrees with its finite-difference estimate"},
      {"MOD004", "model", Severity::kError, "invalid-spec",
       "the sizing spec is inconsistent (e.g. max_speed < 1, or malformed objective weights)"},
      {"MOD005", "model", Severity::kError, "non-compilable-timing-view",
       "a cell parameter (t_int, c, c_in, area) or node load is non-finite, so the flat "
       "TimingView's precomputed delay-model constants would propagate NaN/Inf into every sweep"},
      // -- NLP instance audits (no evaluation involved) ---------------------
      {"NLP001", "nlp", Severity::kError, "inverted-bound",
       "an NLP variable's bound box is empty (lower > upper, or a NaN bound), so no feasible "
       "point exists"},
      {"NLP002", "nlp", Severity::kNote, "collapsed-bound",
       "a variable's bounds coincide (lower == upper): it is a constant wearing a variable's "
       "cost (inflates the NLP and every multiplier/Hessian structure for nothing)"},
      {"NLP003", "nlp", Severity::kWarning, "orphan-variable",
       "a variable appears in no objective or constraint term, so the solver returns an "
       "arbitrary value inside its bounds"},
      {"NLP004", "nlp", Severity::kWarning, "element-arity-cliff",
       "an element function sits at (or beyond) the kMaxElementArity stack-buffer cliff; one "
       "more pin and evaluation is rejected outright"},
      {"NLP005", "nlp", Severity::kError, "constant-constraint",
       "an equality constraint references no variables: infeasible by construction when its "
       "constant is nonzero, dead weight otherwise"},
      {"NLP006", "nlp", Severity::kWarning, "scale-mismatch",
       "the objective and constraint magnitude scales (estimated from bounds and the library-"
       "derived coefficients) differ by orders of magnitude, degrading multiplier updates and "
       "trust-region conditioning"},
      {"NLP007", "nlp", Severity::kWarning, "duplicate-variable-locus",
       "two NLP variables share a name, making solver diagnostics and size tables ambiguous"},
      {"NLP008", "nlp", Severity::kError, "invalid-auglag-state",
       "an AugLagModel carries a non-finite multiplier or a non-positive penalty rho"},
      // -- netlist parsers --------------------------------------------------
      {"PAR001", "parse", Severity::kError, "blif-parse-error",
       "the BLIF input is malformed (undeclared net, duplicate definition, unsupported construct)"},
      {"PAR002", "parse", Severity::kError, "verilog-parse-error",
       "the structural Verilog input is malformed (unknown cell, arity mismatch, undriven net)"},
  };
  return catalog;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : rule_catalog()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

}  // namespace statsize::analyze
