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

/// Bitwise moment comparison — the propagation-termination predicate. Exact
/// bit equality (not ==) keeps the contract conservative: any representation
/// change, however tiny, keeps propagating; only a byte-identical value can
/// cut the cone, and a byte-identical value by construction yields
/// byte-identical downstream folds.
bool same_bits(const NormalRV& a, const NormalRV& b) {
  return std::memcmp(&a.mu, &b.mu, sizeof(double)) == 0 &&
         std::memcmp(&a.var, &b.var, sizeof(double)) == 0;
}

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
    : view_(view), sigma_model_(sigma_model), speed_(std::move(initial_speed)) {
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

  delay_dirty_mask_.assign(n, 0);
  queued_mask_.assign(n, 0);
  bucket_.assign(static_cast<std::size_t>(view_.num_levels()), {});

  full_recompute();
}

void IncrementalEngine::full_recompute() {
  delay_ = DelayCalculator(view_, sigma_model_).all_delays(speed_);
  TimingReport report = run_ssta(view_, delay_, input_arrivals_);
  arrival_ = std::move(report.arrival);
  tmax_ = report.circuit_delay;
  view_.clear_dirty();
  last_delay_recomputes_ = static_cast<std::size_t>(view_.num_gates());
  last_arrival_recomputes_ = static_cast<std::size_t>(view_.num_gates());
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

  // Phase 1 — apply edits, collecting the delay-dirty set: the edited gate
  // (its own delay divides by its speed and reads its t_int / c) plus its
  // gate fanins (their load carries the edited gate's c_in * speed term).
  delay_dirty_.clear();
  auto mark_delay_dirty = [&](NodeId g) {
    if (!view_.is_gate(g)) return;  // primary inputs have no delay
    unsigned char& m = delay_dirty_mask_[static_cast<std::size_t>(g)];
    if (!m) {
      m = 1;
      delay_dirty_.push_back(g);
    }
  };
  for (const TimingEdit& e : edits) {
    const std::size_t i = static_cast<std::size_t>(e.node);
    if (e.kind == TimingEdit::Kind::kSpeed) {
      if (std::memcmp(&speed_[i], &e.speed, sizeof(double)) == 0) continue;
      speed_[i] = e.speed;
      mark_delay_dirty(e.node);
      for (NodeId f : view_.fanins(e.node)) mark_delay_dirty(f);
    } else {
      const netlist::NodeParams old = view_.node_params(e.node);
      if (old.t_int == e.params.t_int && old.c == e.params.c && old.c_in == e.params.c_in &&
          old.area == e.params.area) {
        continue;
      }
      view_.update_node_params(e.node, e.params);
      mark_delay_dirty(e.node);
      if (old.c_in != e.params.c_in) {
        for (NodeId f : view_.fanins(e.node)) mark_delay_dirty(f);
      }
    }
  }

  // Phase 2 — recompute dirty delays; a bitwise-changed delay seeds the
  // worklist at its gate's level. load_capacitance here is pinned
  // bit-identical to the batched pass full_recompute uses (timing_view.h).
  last_delay_recomputes_ = delay_dirty_.size();
  for (NodeId g : delay_dirty_) {
    const std::size_t i = static_cast<std::size_t>(g);
    delay_dirty_mask_[i] = 0;
    const double load = view_.load_capacitance(g, speed_.data());
    const double mu = view_.t_int(g) + view_.drive_c(g) * load / speed_[i];
    const NormalRV d = NormalRV::from_sigma(mu, sigma_model_.sigma(mu));
    if (!same_bits(d, delay_[i])) {
      delay_[i] = d;
      enqueue(g);
    }
  }
  delay_dirty_.clear();

  // Phases 3 + 4 — level-ordered cone repropagation, then the output fold.
  propagate();
  refold_outputs();
  view_.clear_dirty();
  return tmax_;
}

void IncrementalEngine::enqueue(NodeId gate) {
  unsigned char& m = queued_mask_[static_cast<std::size_t>(gate)];
  if (m) return;
  m = 1;
  // Gate levels are 1-based (inputs sit at level 0).
  bucket_[static_cast<std::size_t>(view_.level(gate) - 1)].push_back(gate);
}

void IncrementalEngine::propagate() {
  // One pass per level bucket: refold each queued gate, commit a changed
  // arrival and enqueue its fanouts. A bucket's gates read only strictly
  // lower levels, and fanouts always sit at strictly higher levels, so
  // committing in place never changes what another gate of the same bucket
  // reads, and enqueue never touches the bucket being drained.
  last_arrival_recomputes_ = 0;
  const int num_levels = view_.num_levels();
  for (int l = 0; l < num_levels; ++l) {
    std::vector<NodeId>& bucket = bucket_[static_cast<std::size_t>(l)];
    last_arrival_recomputes_ += bucket.size();
    for (const NodeId g : bucket) {
      const std::size_t i = static_cast<std::size_t>(g);
      queued_mask_[i] = 0;
      const netlist::NodeSpan fanins = view_.fanins(g);
      NormalRV u = arrival_[static_cast<std::size_t>(fanins[0])];
      for (std::size_t k = 1; k < fanins.size(); ++k) {
        u = stat::clark_max(u, arrival_[static_cast<std::size_t>(fanins[k])]);
      }
      const NormalRV a = stat::add(u, delay_[i]);
      if (same_bits(a, arrival_[i])) continue;
      arrival_[i] = a;
      for (NodeId fo : view_.fanouts(g)) enqueue(fo);
    }
    bucket.clear();
  }
}

void IncrementalEngine::refold_outputs() {
  const std::vector<NodeId>& outs = view_.outputs();
  NormalRV total = arrival_[static_cast<std::size_t>(outs[0])];
  for (std::size_t i = 1; i < outs.size(); ++i) {
    total = stat::clark_max(total, arrival_[static_cast<std::size_t>(outs[i])]);
  }
  tmax_ = total;
}

}  // namespace statsize::ssta
