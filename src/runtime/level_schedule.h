// Levelized gate scheduler for the parallel runtime.
//
// Statistical timing propagation is embarrassingly parallel *within* a
// topological level: a gate's arrival depends only on fanins, which live at
// strictly smaller levels, so executing level 1, barrier, level 2, barrier,
// ... lets every gate in a level run concurrently with no synchronization
// beyond the barrier. The level partition itself is structural — it is
// compiled into the flat TimingView by Circuit::finalize() (one CSR array,
// netlist::TimingView::level_gates); this class binds that view to the
// global pool and adds the barriered executors. A Circuit passes as its
// view, which does not exist before finalize() (Circuit::view() throws), so a
// half-wired graph can never be scheduled.

#pragma once

#include <cstddef>

#include "netlist/timing_view.h"
#include "runtime/runtime.h"

namespace statsize::runtime {

class LevelSchedule {
 public:
  /// Binds to `view`, which must outlive the schedule.
  explicit LevelSchedule(const netlist::TimingView& view) : view_(&view) {}

  int num_levels() const { return view_->num_levels(); }

  /// Gates at level `l` (0-based; level 0 holds gates fed only by primary
  /// inputs), in ascending topological-order position.
  netlist::NodeSpan level(int l) const { return view_->level_gates(l); }

  int num_gates() const { return view_->num_gates(); }

  /// Runs fn(id) for every gate, level by level with a barrier between
  /// levels and the gates of each level fanned out across the global pool
  /// (`grain` gates per chunk; a level of at most `grain` gates runs inline
  /// through runtime::parallel_for's serial path). fn must only write to
  /// slots keyed by id.
  template <class Fn>
  void for_each_gate(std::size_t grain, Fn&& fn) const {
    for (int l = 0; l < num_levels(); ++l) {
      const netlist::NodeSpan lvl = level(l);
      parallel_for(lvl.size(), grain, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) fn(lvl[i]);
      });
    }
  }

 private:
  const netlist::TimingView* view_;
};

}  // namespace statsize::runtime
