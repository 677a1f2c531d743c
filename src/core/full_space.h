// Full-space NLP formulation of gate sizing under the statistical delay model
// — a faithful construction of the paper's eq. 17 (and, on the example
// circuit, eq. 18):
//
//   variables   S_g in [1, limit]          speed factor, per gate
//               mu_t_g, var_t_g            gate-delay mean / variance
//               mu_T_g, var_T_g            arrival mean / variance
//               mu_U, var_U                one pair per pairwise max (18b)
//               slack                      for <= delay constraints
//
//   constraints mu_t S = t_int S + c (C_load + sum C_in,i S_i)      (eq. 15)
//               var_t = (kappa mu_t + offset)^2                     (eq. 16/18e)
//               mu_U  = max_mu (...)   var_U = max_var (...)        (eqs. 10-13)
//               mu_T  = mu_U + mu_t    var_T = var_U + var_t        (eq. 4)
//               [mu_Tmax + k sqrt(var_Tmax) (<=|=) bound]
//
// sigma_Tmax is deliberately NOT a variable: mu + k sigma expressions embed
// sqrt(var_Tmax) as an element (see nlp::SqrtElement for the rationale).
//
// Primary-input arrivals are (0,0) constants and are folded away: maxima over
// constants are evaluated at build time, and constant operands are pinned
// inside the Clark elements, exactly the "as many linear terms as possible"
// discipline the paper credits for LANCELOT efficiency.
//
// The builder also seeds every variable from a forward propagation at
// `start_speed`, so the initial point satisfies all equality constraints to
// rounding error — the optimizer starts on the feasible manifold.

#pragma once

#include <memory>
#include <vector>

#include "core/spec.h"
#include "netlist/timing_view.h"
#include "nlp/problem.h"

namespace statsize::core {

struct FullSpaceFormulation {
  std::unique_ptr<nlp::Problem> problem;
  /// NLP variable index of S_g, indexed by NodeId (-1 for non-gates).
  std::vector<int> speed_var;
  int mu_tmax_var = -1;
  int var_tmax_var = -1;
  int num_max_pairs = 0;  ///< statistical max operations in the formulation

  /// Extracts the per-node speed assignment from an NLP iterate.
  std::vector<double> speeds_from(const std::vector<double>& x) const;
};

FullSpaceFormulation build_full_space(const netlist::TimingView& view, const SizingSpec& spec,
                                      const std::vector<double>& start_speed);

/// Convenience: start from S = value everywhere.
FullSpaceFormulation build_full_space(const netlist::TimingView& view, const SizingSpec& spec,
                                      double start_speed = 1.0);

}  // namespace statsize::core
