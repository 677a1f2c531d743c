// Tests for the optimization baselines and post-processing: TILOS-style
// greedy sizing and discrete-grid legalization.

#include "core/discrete.h"
#include "core/greedy.h"

#include "core/sizer.h"
#include "netlist/generators.h"
#include "ssta/ssta.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace statsize::core {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;

double metric_at(const Circuit& c, const SizingSpec& spec, const std::vector<double>& speed,
                 double k) {
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  return ssta::run_ssta(calc, speed).circuit_delay.quantile_offset(k);
}

// ---------------------------------------------------------------------------
// Greedy baseline.
// ---------------------------------------------------------------------------

TEST(Greedy, MeetsAchievableTargetOnTree) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const double hi = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), spec.max_speed);
  const double lo = ssta::run_ssta(calc, s).circuit_delay.mu;
  const double target = 0.5 * (lo + hi);

  const GreedyResult r = greedy_size(c, spec, target, 0.0);
  EXPECT_TRUE(r.met_target);
  EXPECT_LE(r.delay_metric, target + 1e-9);
  EXPECT_NEAR(metric_at(c, spec, r.speed, 0.0), r.delay_metric, 1e-9);
  EXPECT_GT(r.sum_speed, 7.0);
  EXPECT_GT(r.rounds, 0);
}

TEST(Greedy, ReportsFailureOnImpossibleTarget) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  const GreedyResult r = greedy_size(c, spec, 1.0, 0.0);
  EXPECT_FALSE(r.met_target);
  // All helpful gates maxed out: close to the all-max sizing.
  EXPECT_GT(r.sum_speed, 0.9 * 7.0 * spec.max_speed);
}

TEST(Greedy, NlpBeatsOrMatchesGreedyArea) {
  // The paper's exact method must use no more area than the heuristic at the
  // same delay target (this is the point of exactness).
  const Circuit c = netlist::make_mcnc_like("apex2");
  SizingSpec spec;
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const double hi = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), spec.max_speed);
  const double lo = ssta::run_ssta(calc, s).circuit_delay.mu;
  const double target = lo + 0.4 * (hi - lo);

  const GreedyResult greedy = greedy_size(c, spec, target, 0.0);
  ASSERT_TRUE(greedy.met_target);

  spec.objective = Objective::min_area();
  spec.delay_constraint = DelayConstraint::at_most(target);
  SizerOptions opt;
  opt.method = Method::kReducedSpace;
  const SizingResult nlp = Sizer(c, spec).run(opt);
  ASSERT_TRUE(nlp.converged) << nlp.status;
  EXPECT_LE(nlp.sum_speed, greedy.sum_speed * 1.005);
}

TEST(Greedy, SigmaWeightedTargetWorksToo) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  const double lo3 = ssta::run_ssta(calc, s).circuit_delay.quantile_offset(3.0);
  std::fill(s.begin(), s.end(), 1.0);
  const double hi3 = ssta::run_ssta(calc, s).circuit_delay.quantile_offset(3.0);
  const double target = 0.5 * (lo3 + hi3);
  const GreedyResult r = greedy_size(c, spec, target, 3.0);
  EXPECT_TRUE(r.met_target);
  EXPECT_NEAR(metric_at(c, spec, r.speed, 3.0), r.delay_metric, 1e-9);
}

// ---------------------------------------------------------------------------
// Discrete legalization.
// ---------------------------------------------------------------------------

TEST(SizeGridTest, GeometricGridShape) {
  const SizeGrid g = SizeGrid::geometric(3.0, 5);
  ASSERT_EQ(g.sizes.size(), 5u);
  EXPECT_DOUBLE_EQ(g.sizes.front(), 1.0);
  EXPECT_DOUBLE_EQ(g.sizes.back(), 3.0);
  for (std::size_t i = 1; i < g.sizes.size(); ++i) {
    EXPECT_NEAR(g.sizes[i] / g.sizes[i - 1], std::pow(3.0, 0.25), 1e-12);
  }
  EXPECT_THROW(SizeGrid::geometric(3.0, 1), std::invalid_argument);
  EXPECT_THROW(SizeGrid::geometric(0.5, 4), std::invalid_argument);
}

TEST(SizeGridTest, SnapRounding) {
  const SizeGrid g{{1.0, 1.5, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(g.snap(1.2, false), 1.0);   // nearest
  EXPECT_DOUBLE_EQ(g.snap(1.4, false), 1.5);
  EXPECT_DOUBLE_EQ(g.snap(1.2, true), 1.5);    // conservative up
  EXPECT_DOUBLE_EQ(g.snap(2.0, true), 2.0);    // exact points stay
  EXPECT_DOUBLE_EQ(g.snap(0.5, false), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(g.snap(9.0, true), 3.0);
}

TEST(Legalize, UnconstrainedSnapsAndTrims) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  std::vector<double> cont(static_cast<std::size_t>(c.num_nodes()), 1.37);
  const SizeGrid grid = SizeGrid::geometric(3.0, 9);
  const DiscreteResult r = legalize_sizing(c, spec, cont, grid,
                                           std::numeric_limits<double>::infinity(), 0.0);
  EXPECT_TRUE(r.feasible);
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind != NodeKind::kGate) continue;
    const double s = r.speed[static_cast<std::size_t>(id)];
    bool on_grid = false;
    for (double g : grid.sizes) on_grid = on_grid || std::abs(g - s) < 1e-12;
    EXPECT_TRUE(on_grid) << s;
  }
}

TEST(Legalize, RejectsInvalidSizeTables) {
  const Circuit c = netlist::make_tree_circuit();
  const SizingSpec spec;
  const std::vector<double> cont(static_cast<std::size_t>(c.num_nodes()), 1.37);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(legalize_sizing(c, spec, cont, SizeGrid{{1.0, 1.5, 2.0, 3.0}}, inf, 0.0));
  for (const std::vector<double>& bad :
       {std::vector<double>{}, {0.5, 2.0}, {1.0, 2.0, 2.0}, {2.0, 1.0}}) {
    EXPECT_THROW(legalize_sizing(c, spec, cont, SizeGrid{bad}, inf, 0.0), std::invalid_argument)
        << bad.size() << " entries";
  }
  try {
    legalize_sizing(c, spec, cont, SizeGrid{{0.5, 2.0}}, inf, 0.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("entry 0 = 0.500000 is below 1"), std::string::npos)
        << e.what();
  }
}

TEST(Legalize, PreservesFeasibilityOfContinuousOptimum) {
  const Circuit c = netlist::make_mcnc_like("apex2");
  SizingSpec spec;
  spec.objective = Objective::min_area();
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const double hi = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), spec.max_speed);
  const double lo = ssta::run_ssta(calc, s).circuit_delay.mu;
  const double target = lo + 0.45 * (hi - lo);
  spec.delay_constraint = DelayConstraint::at_most(target);

  SizerOptions opt;
  opt.method = Method::kReducedSpace;
  const SizingResult cont = Sizer(c, spec).run(opt);
  ASSERT_TRUE(cont.converged);

  for (int steps : {5, 9, 17}) {
    const SizeGrid grid = SizeGrid::geometric(spec.max_speed, steps);
    const DiscreteResult d = legalize_sizing(c, spec, cont.speed, grid, target, 0.0);
    EXPECT_TRUE(d.feasible) << steps << " steps";
    EXPECT_LE(d.delay_metric, target + 1e-9) << steps;
    // Finer grids must not cost more area (monotone legalization gap).
    EXPECT_GE(d.sum_speed, cont.sum_speed - 1e-6) << steps;
  }

  // The coarse-grid area exceeds the fine-grid area.
  const DiscreteResult coarse =
      legalize_sizing(c, spec, cont.speed, SizeGrid::geometric(spec.max_speed, 4), target, 0.0);
  const DiscreteResult fine =
      legalize_sizing(c, spec, cont.speed, SizeGrid::geometric(spec.max_speed, 33), target, 0.0);
  EXPECT_TRUE(coarse.feasible);
  EXPECT_GE(coarse.sum_speed, fine.sum_speed - 1e-9);
}

}  // namespace
}  // namespace statsize::core
