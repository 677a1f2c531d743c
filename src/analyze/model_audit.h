// NLP model audits (rules MOD001..MOD005): the evaluating checks the lint
// driver (lint.h) runs before optimization.
//
//  * bound consistency — every NLP variable must start inside its box with a
//    finite value (the paper's S_min <= S_0 <= S_max, extended to every
//    timing variable the full-space formulation materializes). An empty box
//    is NLP001's finding (nlp_audit.h), not this rule's;
//
//  * Clark degeneracy — at every statistical-max merge point, theta =
//    sqrt(varA + varB) is the denominator of alpha in eqs. 10-13; when it
//    approaches zero (near-deterministic operands, e.g. a degenerate sigma
//    model or high-correlation reconvergence) the Clark derivatives become
//    ill-conditioned and the NLP's curvature explodes. Merge points whose
//    theta falls below a threshold are flagged per gate;
//
//  * derivative audit — sweeps every element of a built formulation through
//    nlp::check_problem_derivatives at the feasible start and at
//    deterministic pseudo-random interior points, reporting any
//    gradient/Hessian vs finite-difference mismatch as a diagnostic instead
//    of a test-only assertion;
//
//  * spec and TimingView compilability checks (MOD004, MOD005).

#pragma once

#include <string_view>
#include <vector>

#include "analyze/diagnostic.h"
#include "core/spec.h"
#include "netlist/circuit.h"
#include "nlp/problem.h"

namespace statsize::analyze {

struct ModelAuditOptions {
  ssta::SigmaModel sigma_model{0.25, 0.0};
  double max_speed = 3.0;
  /// Merge points with theta = sqrt(varA + varB) below this are flagged.
  double theta_threshold = 1e-3;
  /// Randomized interior points per formulation (the feasible start is always
  /// checked in addition); a negative value disables the sweep.
  int derivative_points = 3;
  double derivative_tol = 1e-4;
  unsigned rng_seed = 2000u;  ///< deterministic point generation
  bool derivative_audit = true;
  bool audit_nary = true;  ///< also build and audit the n-ary max formulation
};

/// MOD001: finite start inside the box for every variable whose box is
/// non-empty (an empty box, NaN bounds included, is left to NLP001).
Report audit_problem_bounds(const nlp::Problem& problem, std::string_view what);

/// MOD002: forward SSTA at `speed`, flagging every Clark merge point whose
/// theta falls below `theta_threshold`. Mirrors the formulation's constant
/// folding: merges where both operands are build-time constants (primary
/// input arrivals) never materialize a Clark element and are not flagged.
Report audit_clark_degeneracy(const netlist::Circuit& circuit, const ssta::SigmaModel& model,
                              const std::vector<double>& speed, double theta_threshold);

/// MOD003: check_problem_derivatives at the start point and `points`
/// deterministic pseudo-random interior points.
Report audit_problem_derivatives(const nlp::Problem& problem, std::string_view what, int points,
                                 unsigned seed, double tol);

/// MOD004: spec-level consistency (max_speed >= 1, weight vector shape,
/// satisfiable delay bound sign).
Report audit_spec(const core::SizingSpec& spec, const netlist::Circuit& circuit);

/// MOD005: every constant the TimingView compilation precomputes — per-gate
/// cell t_int / c / c_in / area and per-node wire/pad load — must be finite.
/// The library and circuit builders reject negative values but NaN slips
/// through every `<= 0` comparison, and a single non-finite c_in poisons the
/// precomputed fanout edge capacitances (and hence every sweep). Safe on
/// non-finalized circuits; gates whose cell id is invalid are skipped (that is
/// CIR003's finding).
Report audit_view_compilability(const netlist::Circuit& circuit);

}  // namespace statsize::analyze
