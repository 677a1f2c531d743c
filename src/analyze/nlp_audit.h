// NLP instance audits (rules NLP001..NLP008) — the no-evaluation checks the
// lint driver (lint.h, `statsize lint`) runs on every formulation it builds.
//
// Where the MOD0xx model audits *evaluate* the formulation (finite-difference
// derivative sweeps, SSTA propagation), these rules inspect an nlp::Problem /
// nlp::AugLagModel instance purely structurally: bound boxes, element arities,
// variable reference graphs, and magnitude-scale estimates derived from the
// coefficients the builder baked in (for the sizing formulation those are the
// library constants t_int / c / c_in and the sigma-model terms). A mis-posed
// instance caught here costs microseconds; the same defect inside the solver
// costs a plausible-but-wrong size vector.

#pragma once

#include <string_view>

#include "analyze/diagnostic.h"
#include "nlp/auglag.h"
#include "nlp/problem.h"

namespace statsize::analyze {

struct NlpAuditOptions {
  /// NLP006 fires when the estimated objective scale and the median
  /// constraint scale differ by more than this factor (either direction).
  double scale_ratio_threshold = 1e6;
  /// NLP006 also fires when the constraint scales themselves spread wider
  /// than this factor (best- vs worst-scaled constraint).
  double constraint_spread_threshold = 1e8;
};

/// Characteristic magnitude of a FunctionGroup, estimated without evaluating
/// it: max over |constant|, |linear coef| * typical variable magnitude, and
/// element |weight|. Typical variable magnitude comes from the bound box
/// (falling back to the start value, then 1). Exposed for tests.
double estimate_group_scale(const nlp::Problem& problem, const nlp::FunctionGroup& group);

/// Runs NLP001..NLP007 over `problem`. NLP001 owns the empty box (lower > upper
/// or a NaN bound); MOD001 stays silent on it. `what` names the instance in loci
/// (e.g. "full-space, pairwise max"). Never evaluates any element function.
Report audit_nlp_problem(const nlp::Problem& problem, std::string_view what,
                         const NlpAuditOptions& options = {});

/// NLP008 over a constructed AugLagModel: multipliers must be finite and the
/// penalty rho positive and finite. Never evaluates the model.
Report audit_auglag_state(const nlp::AugLagModel& model, std::string_view what);

}  // namespace statsize::analyze
