#include "runtime/level_schedule.h"

#include <stdexcept>

namespace statsize::runtime {

LevelSchedule::LevelSchedule(const netlist::Circuit& circuit) {
  if (!circuit.finalized()) {
    throw std::logic_error(
        "LevelSchedule requires a finalized circuit: the topological level "
        "partition is compiled into the TimingView by Circuit::finalize()");
  }
  view_ = &circuit.view();
}

}  // namespace statsize::runtime
