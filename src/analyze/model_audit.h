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
//    theta falls below the lint's `theta_threshold` are flagged per gate;
//
//  * derivative audit — sweeps every element of a built formulation through
//    nlp::check_problem_derivatives at the feasible start and at
//    deterministic pseudo-random interior points, reporting any
//    gradient/Hessian vs finite-difference mismatch beyond a fixed 1e-4
//    tolerance as a diagnostic instead of a test-only assertion;
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
/// deterministic pseudo-random interior points drawn from `seed`, against a
/// fixed 1e-4 tolerance.
Report audit_problem_derivatives(const nlp::Problem& problem, std::string_view what, int points,
                                 unsigned seed);

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
