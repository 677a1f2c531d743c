#include "analyze/library_lint.h"

#include <algorithm>
#include <map>
#include <string>

namespace statsize::analyze {

namespace {

std::string cell_locus(const netlist::CellType& cell) { return "cell '" + cell.name + "'"; }

}  // namespace

Report lint_cells(const std::vector<netlist::CellType>& cells) {
  Report report;
  std::map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const netlist::CellType& cell = cells[i];
    if (const auto [it, fresh] = seen.emplace(cell.name, i); !fresh) {
      report.add("LIB005", cell_locus(cell),
                 "name also used by cell " + std::to_string(it->second),
                 "name-based lookups (find, Verilog import) resolve to the first match only");
    }
    if (cell.num_inputs < 1) {
      report.add("LIB006", cell_locus(cell),
                 "declares " + std::to_string(cell.num_inputs) + " input pins");
    }
    if (cell.t_int <= 0.0) {
      report.add("LIB001", cell_locus(cell),
                 "intrinsic delay t_int = " + std::to_string(cell.t_int) + " is not positive",
                 "eq. 14's t_int is a physical propagation delay and must be > 0");
    }
    if (cell.c <= 0.0) {
      report.add("LIB002", cell_locus(cell),
                 "drive coefficient c = " + std::to_string(cell.c) + " is not positive",
                 "a non-positive c makes upsizing slow the gate down");
    }
    if (cell.c_in <= 0.0) {
      report.add("LIB003", cell_locus(cell),
                 "input capacitance c_in = " + std::to_string(cell.c_in) + " is not positive",
                 "drivers would see no load from this cell; fanout sizing terms vanish");
    }
    if (cell.area <= 0.0) {
      report.add("LIB004", cell_locus(cell),
                 "area = " + std::to_string(cell.area) + " is not positive",
                 "area-weighted objectives would reward adding such cells");
    }
  }
  return report;
}

Report lint_library(const netlist::CellLibrary& library) {
  std::vector<netlist::CellType> cells;
  cells.reserve(static_cast<std::size_t>(library.size()));
  int max_pins = 0;
  for (int i = 0; i < library.size(); ++i) {
    cells.push_back(library.cell(i));
    max_pins = std::max(max_pins, library.cell(i).num_inputs);
  }
  Report report = lint_cells(cells);
  for (int k = 1; k <= max_pins; ++k) {
    bool covered = false;
    for (const netlist::CellType& cell : cells) covered = covered || cell.num_inputs == k;
    if (!covered) {
      report.add("LIB007", "library",
                 "no cell with " + std::to_string(k) + " input pins (max is " +
                     std::to_string(max_pins) + ")",
                 "BLIF import maps k-input nodes to a generic k-input cell and fails on gaps");
    }
  }
  return report;
}

Report lint_sigma_model(const ssta::SigmaModel& model, double min_intrinsic_delay) {
  Report report;
  if (model.kappa < 0.0) {
    report.add("LIB009", "sigma model",
               "kappa = " + std::to_string(model.kappa) +
                   " makes sigma shrink as the mean delay grows",
               "the paper's eq. 18e uses sigma = mu / 4; kappa is expected to be >= 0");
  }
  // The smallest attainable mean gate delay is t_int (eq. 14's load term is
  // non-negative), so sigma must be non-negative from there on. With
  // kappa >= 0 checking the left endpoint suffices; with kappa < 0 sigma
  // eventually goes negative for large mu regardless.
  const double sigma_at_min = model.sigma(min_intrinsic_delay);
  if (sigma_at_min < 0.0) {
    report.add("LIB008", "sigma model",
               "sigma(" + std::to_string(min_intrinsic_delay) +
                   ") = " + std::to_string(sigma_at_min) + " is negative",
               "variance targets var = sigma^2 with sigma < 0 put the NLP outside the "
               "physical branch; raise offset or kappa");
  } else if (model.kappa < 0.0) {
    const double root = -model.offset / model.kappa;
    report.add("LIB008", "sigma model",
               "sigma(mu) turns negative for mean delays above " + std::to_string(root));
  }
  return report;
}

}  // namespace statsize::analyze
