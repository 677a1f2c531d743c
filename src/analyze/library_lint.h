// Cell-library and sigma-model lint (rules LIB001..LIB009).
//
// The delay model (eq. 14) and the sigma model (eq. 16) are only physical for
// positive electrical constants and non-negative sigma; a single negative
// t_int silently flips the sizing trade-off instead of crashing. These rules
// audit raw CellType records (so defective candidate libraries can be linted
// before CellLibrary::add would reject them), an assembled CellLibrary and the
// sigma(mu) model.
//
// Layering note: like circuit_lint, this file must stay link-independent of
// statsize_netlist / statsize_ssta — it only uses inline accessors and the
// header-only SigmaModel struct.

#pragma once

#include <vector>

#include "analyze/diagnostic.h"
#include "netlist/cell_library.h"
#include "ssta/delay_model.h"

namespace statsize::analyze {

/// Audits raw cell records (duplicates, pin counts, electrical constants).
Report lint_cells(const std::vector<netlist::CellType>& cells);

/// lint_cells over the library's contents, plus arity-coverage notes
/// (a missing k-input cell makes BLIF import of k-input nodes fail).
Report lint_library(const netlist::CellLibrary& library);

/// Audits sigma(mu) = kappa * mu + offset over the attainable mean-delay
/// range [min_intrinsic_delay, inf): negative sigma is non-physical (the NLP
/// would take sqrt of a negative variance target), kappa < 0 inverts the
/// variability-vs-delay trade-off.
Report lint_sigma_model(const ssta::SigmaModel& model, double min_intrinsic_delay);

}  // namespace statsize::analyze
