#include "ssta/incremental.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "stat/clark.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

namespace {

void require_positive_speed(double s, NodeId id) {
  if (!std::isfinite(s) || s <= 0.0) {
    throw std::invalid_argument("IncrementalEngine: speed " + std::to_string(s) + " for node " +
                                std::to_string(id) +
                                " must be finite and positive (eq. 14 divides by it)");
  }
}

}  // namespace

IncrementalEngine::IncrementalEngine(const netlist::TimingView& view,
                                     std::vector<double> initial_speed, SigmaModel sigma_model,
                                     NormalRV input_arrival)
    : view_(view), sigma_model_(sigma_model), speed_(std::move(initial_speed)), cone_(view_) {
  const std::size_t n = static_cast<std::size_t>(view_.num_nodes());
  if (speed_.size() != n) {
    throw std::invalid_argument("IncrementalEngine: speed must be indexed by NodeId (" +
                                std::to_string(speed_.size()) + " entries for " +
                                std::to_string(n) + " nodes)");
  }
  for (NodeId g : view_.gates_in_topo_order()) {
    require_positive_speed(speed_[static_cast<std::size_t>(g)], g);
  }
  input_arrivals_.assign(static_cast<std::size_t>(view_.num_inputs()), input_arrival);

  full_recompute();
}

void IncrementalEngine::full_recompute() {
  delay_ = DelayCalculator(view_, sigma_model_).all_delays(speed_);
  TimingReport report = run_ssta(view_, delay_, input_arrivals_);
  arrival_ = std::move(report.arrival);
  tmax_ = report.circuit_delay;
  last_.delays = last_.refolds = static_cast<std::size_t>(view_.num_gates());
}

NormalRV IncrementalEngine::apply_edits(const std::vector<TimingEdit>& edits) {
  // Validate the whole batch before touching any state, so a bad edit in the
  // middle cannot leave the caches half-updated.
  for (const TimingEdit& e : edits) {
    if (e.node < 0 || e.node >= static_cast<NodeId>(view_.num_nodes()) ||
        !view_.is_gate(e.node)) {
      throw std::invalid_argument("IncrementalEngine::apply_edits: node " +
                                  std::to_string(e.node) + " is not a gate of this view");
    }
    if (e.kind == TimingEdit::Kind::kSpeed) {
      require_positive_speed(e.speed, e.node);
    } else {
      for (double v : {e.params.t_int, e.params.c, e.params.c_in, e.params.area}) {
        if (!std::isfinite(v)) {
          throw std::invalid_argument("IncrementalEngine::apply_edits: non-finite parameter for "
                                      "node " +
                                      std::to_string(e.node));
        }
      }
    }
  }

  // Phase 1 — apply edits, marking the edited gate (its delay reads its own
  // speed, t_int and c) and, for a speed or c_in edit, its gate fanins.
  for (const TimingEdit& e : edits) {
    const std::size_t i = static_cast<std::size_t>(e.node);
    if (e.kind == TimingEdit::Kind::kSpeed) {
      if (std::memcmp(&speed_[i], &e.speed, sizeof(double)) == 0) continue;
      speed_[i] = e.speed;
      cone_.mark_edit(view_, e.node);
    } else {
      const netlist::NodeParams old = view_.node_params(e.node);
      if (old.t_int == e.params.t_int && old.c == e.params.c && old.c_in == e.params.c_in &&
          old.area == e.params.area) {
        continue;
      }
      view_.update_node_params(e.node, e.params);
      if (old.c_in != e.params.c_in) {
        cone_.mark_edit(view_, e.node);
      } else {
        cone_.mark(e.node);
      }
    }
  }

  // Phase 2 — one walk over the cone. load_capacitance here is pinned
  // bit-identical to the batched pass full_recompute uses (timing_view.h).
  last_ = cone_.walk(view_, DelayCalculator(view_, sigma_model_), speed_, delay_, [&](NodeId g) {
    const std::size_t i = static_cast<std::size_t>(g);
    const NormalRV a = stat::add(fold_max(view_.fanins(g), arrival_, stat::clark_max), delay_[i]);
    if (same_bits(a, arrival_[i])) return false;
    arrival_[i] = a;
    return true;
  });
  // Phase 3 — the output fold.
  tmax_ = fold_max(view_.outputs(), arrival_, stat::clark_max);
  return tmax_;
}

}  // namespace statsize::ssta
