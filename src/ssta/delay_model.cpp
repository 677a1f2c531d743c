#include "ssta/delay_model.h"

#include "netlist/timing_view.h"

namespace statsize::ssta {

using netlist::NodeId;

double DelayCalculator::mean_delay(NodeId id, const std::vector<double>& speed) const {
  const double load = view_->load_capacitance(id, speed.data());
  return view_->t_int(id) + view_->drive_c(id) * load / speed[static_cast<std::size_t>(id)];
}

stat::NormalRV DelayCalculator::delay(NodeId id, const std::vector<double>& speed) const {
  const double mu = mean_delay(id, speed);
  return stat::NormalRV::from_sigma(mu, sigma_model_.sigma(mu));
}

std::vector<stat::NormalRV> DelayCalculator::all_delays(const std::vector<double>& speed) const {
  const netlist::TimingView& view = *view_;
  std::vector<stat::NormalRV> delays(static_cast<std::size_t>(view.num_nodes()));
  // Batched load caps: one SIMD-friendly pass over the fanout edge array
  // replaces a short gather loop per gate. Same arithmetic per node as
  // delay(id, speed), hence bit-identical delays.
  std::vector<double> cap(static_cast<std::size_t>(view.num_nodes()));
  view.batch_load_capacitance(speed.data(), cap.data());
  for (NodeId id : view.gates_in_topo_order()) {
    const std::size_t i = static_cast<std::size_t>(id);
    const double mu = view.t_int(id) + view.drive_c(id) * cap[i] / speed[i];
    delays[i] = stat::NormalRV::from_sigma(mu, sigma_model_.sigma(mu));
  }
  return delays;
}

double DelayCalculator::total_speed(const netlist::TimingView& view,
                                    const std::vector<double>& speed) {
  double sum = 0.0;
  for (NodeId id : view.gates_in_topo_order()) {
    sum += speed[static_cast<std::size_t>(id)];
  }
  return sum;
}

double DelayCalculator::total_area(const netlist::TimingView& view,
                                   const std::vector<double>& speed) {
  double sum = 0.0;
  for (NodeId id : view.gates_in_topo_order()) {
    sum += view.area(id) * speed[static_cast<std::size_t>(id)];
  }
  return sum;
}

}  // namespace statsize::ssta
