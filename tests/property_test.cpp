// Cross-cutting randomized property tests: invariants that must hold for any
// circuit and any parameters, exercised over seeds with parameterized gtest.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "core/reduced_space.h"
#include "core/sizer.h"
#include "graph_reference.h"
#include "netlist/generators.h"
#include "runtime/runtime.h"
#include "ssta/canonical.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace statsize {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

Circuit random_circuit(int seed, int gates = 80) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 12 + seed % 17;
  p.seed = static_cast<std::uint64_t>(seed) * 7919 + 3;
  return make_random_dag(p);
}

class CircuitProperties : public ::testing::TestWithParam<int> {};

TEST_P(CircuitProperties, ArrivalDominatesEveryFanin) {
  // mu of a gate's arrival >= mu of each fanin arrival (max + positive delay).
  const Circuit c = random_circuit(GetParam());
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.5);
  const ssta::TimingReport r = ssta::run_ssta(c, calc.all_delays(speed));
  for (NodeId id : c.topo_order()) {
    const netlist::Node& n = c.node(id);
    if (n.kind != NodeKind::kGate) continue;
    for (NodeId f : n.fanins) {
      ASSERT_GE(r.arrival[static_cast<std::size_t>(id)].mu,
                r.arrival[static_cast<std::size_t>(f)].mu - 1e-12);
    }
  }
}

TEST_P(CircuitProperties, SlowingAnyGateNeverSpeedsTheCircuitMuchBeyondApproximation) {
  // The TRUE statistical circuit delay is monotone in every gate-delay mean.
  // The Clark moment-matching chain is *almost* monotone: raising one
  // operand's mean can shrink a downstream max's matched variance (dominance
  // narrows the mixture), which shrinks the next max's theta*phi mean bump —
  // a second-order approximation artifact, observed at the 1e-3..1e-2 level.
  // We pin exactly that: increases are unbounded, decreases must stay within
  // the approximation noise.
  const Circuit c = random_circuit(GetParam(), 50);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.5);
  auto delays = calc.all_delays(speed);
  const double base = ssta::run_ssta(c, delays).circuit_delay.mu;

  int checked = 0;
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind != NodeKind::kGate) continue;
    if (++checked % 5 != 0) continue;
    const NormalRV saved = delays[static_cast<std::size_t>(id)];
    delays[static_cast<std::size_t>(id)].mu += 0.5;
    const double slowed = ssta::run_ssta(c, delays).circuit_delay.mu;
    delays[static_cast<std::size_t>(id)] = saved;
    ASSERT_GE(slowed, base - 0.02) << "gate " << id;
  }

  // With zero sigmas the chain degenerates to the deterministic max, where
  // monotonicity is exact.
  const ssta::DelayCalculator det(c, {0.0, 0.0});
  auto det_delays = det.all_delays(speed);
  const double det_base = ssta::run_ssta(c, det_delays).circuit_delay.mu;
  checked = 0;
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind != NodeKind::kGate) continue;
    if (++checked % 7 != 0) continue;
    const NormalRV saved = det_delays[static_cast<std::size_t>(id)];
    det_delays[static_cast<std::size_t>(id)].mu += 0.5;
    const double slowed = ssta::run_ssta(c, det_delays).circuit_delay.mu;
    det_delays[static_cast<std::size_t>(id)] = saved;
    ASSERT_GE(slowed, det_base - 1e-12) << "gate " << id;
  }
}

TEST_P(CircuitProperties, MonteCarloYieldIsMonotoneInDeadline) {
  const Circuit c = random_circuit(GetParam(), 40);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  ssta::MonteCarloOptions opt;
  opt.num_samples = 4000;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  const ssta::MonteCarloResult mc = ssta::run_monte_carlo(c, calc.all_delays(speed), opt);
  double prev = -1.0;
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double d = mc.quantile(q);
    const double y = mc.yield(d);
    ASSERT_GE(y, prev);
    ASSERT_NEAR(y, q, 0.03);
    prev = y;
  }
}

TEST_P(CircuitProperties, CorrelationNeverIncreasesTheMeanOfTheMax) {
  // Positive path correlation makes the true E[max] smaller than the
  // independence estimate; the canonical engine must sit at or below it.
  const Circuit c = random_circuit(GetParam());
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);
  const double ind = ssta::run_ssta(c, delays).circuit_delay.mu;
  const double can = ssta::run_canonical_ssta(c, delays).circuit_delay.mean();
  ASSERT_LE(can, ind + 1e-9);
}

TEST_P(CircuitProperties, TighterDeadlineNeverNeedsLessArea) {
  const Circuit c = random_circuit(GetParam(), 40);
  core::SizingSpec spec;
  spec.objective = core::Objective::min_area();
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  const double lo = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), 1.0);
  const double hi = ssta::run_ssta(calc, s).circuit_delay.mu;

  core::SizerOptions opt;
  opt.method = core::Method::kReducedSpace;
  double prev_area = 1e100;
  for (double frac : {0.25, 0.5, 0.75}) {  // tightest first
    spec.delay_constraint = core::DelayConstraint::at_most(lo + frac * (hi - lo));
    const core::SizingResult r = core::Sizer(c, spec).run(opt);
    ASSERT_TRUE(r.converged) << r.status;
    ASSERT_LE(r.sum_speed, prev_area + 0.01 * prev_area);
    prev_area = r.sum_speed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitProperties, ::testing::Range(1, 7));

// --- clark_min statistical validation -------------------------------------

class ClarkMinVsMc : public ::testing::TestWithParam<int> {};

TEST_P(ClarkMinVsMc, MomentsMatchSampling) {
  std::mt19937_64 rng(GetParam() * 101 + 7);
  std::uniform_real_distribution<double> mu_d(-3.0, 3.0);
  std::uniform_real_distribution<double> s_d(0.2, 2.0);
  const NormalRV a = NormalRV::from_sigma(mu_d(rng), s_d(rng));
  const NormalRV b = NormalRV::from_sigma(mu_d(rng), s_d(rng));
  const NormalRV c = stat::clark_min(a, b);

  std::normal_distribution<double> da(a.mu, a.sigma());
  std::normal_distribution<double> db(b.mu, b.sigma());
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double m = std::min(da(rng), db(rng));
    sum += m;
    sum2 += m * m;
  }
  const double mc_mu = sum / n;
  const double mc_var = sum2 / n - mc_mu * mc_mu;
  EXPECT_NEAR(c.mu, mc_mu, 0.02);
  EXPECT_NEAR(c.var, mc_var, 0.05);
  EXPECT_LE(c.mu, std::min(a.mu, b.mu) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClarkMinVsMc, ::testing::Range(0, 8));

// --- TimingView equivalence ------------------------------------------------
//
// Every hot sweep (SSTA, corner STA, Monte Carlo, the reduced-space adjoint)
// was retargeted from per-Node walks onto the flat CSR TimingView. The
// refactoring contract is bit-identity, so these tests keep independent
// Node-walk reference engines — written against Circuit/Node only, with
// fanouts and levels derived in-test (graph_reference.h), never by the
// view — and require EXPECT_EQ-equal doubles from the production paths, both
// serially (--jobs 1) and on the level-parallel runtime (--jobs 4; the
// circuits sit above the 192-gate parallel cutoff so the parallel sweeps
// really run).

/// Restores the global thread setting on scope exit.
class JobsGuard {
 public:
  JobsGuard() : saved_(runtime::threads()) {}
  ~JobsGuard() { runtime::set_threads(saved_); }

 private:
  int saved_;
};

/// Reference SSTA: topological Node walk, left fold of the pairwise Clark
/// max over fanins, zero input arrivals, PO fold in outputs() order.
std::vector<NormalRV> ref_ssta(const Circuit& c, const std::vector<NormalRV>& delays,
                               NormalRV* total) {
  std::vector<NormalRV> arrival(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId id : c.topo_order()) {
    const netlist::Node& n = c.node(id);
    if (n.kind == NodeKind::kPrimaryInput) {
      arrival[static_cast<std::size_t>(id)] = NormalRV{};
      continue;
    }
    NormalRV u = arrival[static_cast<std::size_t>(n.fanins[0])];
    for (std::size_t k = 1; k < n.fanins.size(); ++k) {
      u = stat::clark_max(u, arrival[static_cast<std::size_t>(n.fanins[k])]);
    }
    arrival[static_cast<std::size_t>(id)] = stat::add(u, delays[static_cast<std::size_t>(id)]);
  }
  NormalRV t = arrival[static_cast<std::size_t>(c.outputs()[0])];
  for (std::size_t k = 1; k < c.outputs().size(); ++k) {
    t = stat::clark_max(t, arrival[static_cast<std::size_t>(c.outputs()[k])]);
  }
  *total = t;
  return arrival;
}

/// Reference worst-corner STA: deterministic max walk at mu + 3 sigma.
std::vector<double> ref_sta_worst(const Circuit& c, const std::vector<NormalRV>& delays,
                                  double* total) {
  std::vector<double> arrival(static_cast<std::size_t>(c.num_nodes()), 0.0);
  for (NodeId id : c.topo_order()) {
    const netlist::Node& n = c.node(id);
    if (n.kind == NodeKind::kPrimaryInput) continue;
    double u = arrival[static_cast<std::size_t>(n.fanins[0])];
    for (std::size_t k = 1; k < n.fanins.size(); ++k) {
      u = std::max(u, arrival[static_cast<std::size_t>(n.fanins[k])]);
    }
    arrival[static_cast<std::size_t>(id)] =
        u + delays[static_cast<std::size_t>(id)].quantile_offset(3.0);
  }
  double t = 0.0;
  for (NodeId o : c.outputs()) t = std::max(t, arrival[static_cast<std::size_t>(o)]);
  *total = t;
  return arrival;
}

/// Reference Monte Carlo: replicates the engine's published chunked-stream
/// determinism contract (256-trial chunks, splitmix64 per-chunk streams, one
/// normal draw per non-input node in topological order, chunk-ordered moment
/// combine) with a per-trial Node walk.
std::vector<double> ref_monte_carlo(const Circuit& c, const std::vector<NormalRV>& delays,
                                    const ssta::MonteCarloOptions& opt, double* mean,
                                    double* stddev) {
  constexpr int kChunkSamples = 256;
  auto stream_seed = [](std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  std::vector<double> samples(static_cast<std::size_t>(opt.num_samples));
  std::vector<double> arrival(static_cast<std::size_t>(c.num_nodes()));
  double sum = 0.0;
  double sum2 = 0.0;
  const std::size_t chunks =
      (static_cast<std::size_t>(opt.num_samples) + kChunkSamples - 1) / kChunkSamples;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    std::mt19937_64 rng(stream_seed(opt.seed, chunk));
    std::normal_distribution<double> unit(0.0, 1.0);
    const int first = static_cast<int>(chunk) * kChunkSamples;
    const int last = std::min(first + kChunkSamples, opt.num_samples);
    // Moments fold chunk-locally first, then combine in chunk order — the
    // engine's associativity, which a flat running sum would not reproduce.
    double csum = 0.0;
    double csum2 = 0.0;
    for (int trial = first; trial < last; ++trial) {
      for (NodeId id : c.topo_order()) {
        const netlist::Node& n = c.node(id);
        if (n.kind == NodeKind::kPrimaryInput) {
          arrival[static_cast<std::size_t>(id)] = 0.0;
          continue;
        }
        double u = arrival[static_cast<std::size_t>(n.fanins[0])];
        for (std::size_t k = 1; k < n.fanins.size(); ++k) {
          u = std::max(u, arrival[static_cast<std::size_t>(n.fanins[k])]);
        }
        const NormalRV& d = delays[static_cast<std::size_t>(id)];
        double t = d.mu + d.sigma() * unit(rng);
        if (opt.truncate_negative_delays && t < 0.0) t = 0.0;
        arrival[static_cast<std::size_t>(id)] = u + t;
      }
      double total = -1.0;
      for (NodeId o : c.outputs()) {
        total = std::max(total, arrival[static_cast<std::size_t>(o)]);
      }
      samples[static_cast<std::size_t>(trial)] = total;
      csum += total;
      csum2 += total * total;
    }
    sum += csum;
    sum2 += csum2;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(opt.num_samples);
  const double m = sum / n;
  *mean = m;
  *stddev = std::sqrt(std::max(0.0, sum2 / n - m * m));
  return samples;
}

/// Reference reduced-space gradient: serial Node-walk forward sweep with
/// recorded Clark steps, then the adjoint in reverse level order with the
/// same per-gate write orders the production sweep commits to (fanouts in
/// list order; fanins last-to-first).
NormalRV ref_reduced_grad(const Circuit& c, const ssta::SigmaModel& sm,
                          const std::vector<double>& speed, std::vector<double>& grad) {
  const std::size_t n = static_cast<std::size_t>(c.num_nodes());
  std::vector<NormalRV> arrival(n);
  std::vector<NormalRV> delay(n);
  std::vector<std::vector<stat::ClarkGrad>> steps(n);
  const auto fanouts = graph_reference::fanouts(c);
  auto load_of = [&](NodeId id) {
    const netlist::Node& node = c.node(id);
    double load = node.wire_load + (node.is_output ? node.pad_load : 0.0);
    for (NodeId fo : fanouts[static_cast<std::size_t>(id)]) {
      load += c.library().cell(c.node(fo).cell).c_in * speed[static_cast<std::size_t>(fo)];
    }
    return load;
  };
  for (NodeId id : c.topo_order()) {
    const netlist::Node& node = c.node(id);
    if (node.kind == NodeKind::kPrimaryInput) continue;
    const std::size_t i = static_cast<std::size_t>(id);
    NormalRV u = arrival[static_cast<std::size_t>(node.fanins[0])];
    steps[i].resize(node.fanins.size() - 1);
    for (std::size_t k = 1; k < node.fanins.size(); ++k) {
      u = stat::clark_max_grad(u, arrival[static_cast<std::size_t>(node.fanins[k])],
                               steps[i][k - 1]);
    }
    const netlist::CellType& cell = c.library().cell(node.cell);
    const double mu = cell.t_int + cell.c * load_of(id) / speed[i];
    delay[i] = NormalRV::from_sigma(mu, sm.sigma(mu));
    arrival[i] = stat::add(u, delay[i]);
  }
  const std::vector<NodeId>& outs = c.outputs();
  std::vector<stat::ClarkGrad> out_steps(outs.size() - 1);
  NormalRV tmax = arrival[static_cast<std::size_t>(outs[0])];
  for (std::size_t k = 1; k < outs.size(); ++k) {
    tmax = stat::clark_max_grad(tmax, arrival[static_cast<std::size_t>(outs[k])],
                                out_steps[k - 1]);
  }

  grad.assign(n, 0.0);
  std::vector<double> amu(n, 0.0);
  std::vector<double> avar(n, 0.0);
  double acc_mu = 1.0;  // seed: d(tmax.mu)
  double acc_var = 0.0;
  for (std::size_t k = outs.size(); k-- > 1;) {
    const stat::ClarkGrad& g = out_steps[k - 1];
    const std::size_t o = static_cast<std::size_t>(outs[k]);
    amu[o] += acc_mu * g.dmu[1] + acc_var * g.dvar[1];
    avar[o] += acc_mu * g.dmu[3] + acc_var * g.dvar[3];
    const double nm = acc_mu * g.dmu[0] + acc_var * g.dvar[0];
    const double nv = acc_mu * g.dmu[2] + acc_var * g.dvar[2];
    acc_mu = nm;
    acc_var = nv;
  }
  amu[static_cast<std::size_t>(outs[0])] += acc_mu;
  avar[static_cast<std::size_t>(outs[0])] += acc_var;

  const auto levels = graph_reference::gate_levels(c, c.topo_order());
  for (std::size_t l = levels.size(); l-- > 0;) {
    for (NodeId id : levels[l]) {
      const netlist::Node& node = c.node(id);
      const std::size_t i = static_cast<std::size_t>(id);
      const double a_mu = amu[i];
      const double a_var = avar[i];
      if (a_mu == 0.0 && a_var == 0.0) continue;
      const double sigma_t = sm.kappa * delay[i].mu + sm.offset;
      const double adj_mu_t = a_mu + a_var * 2.0 * sm.kappa * sigma_t;
      const netlist::CellType& cell = c.library().cell(node.cell);
      const double s_own = speed[i];
      grad[i] += adj_mu_t * (-cell.c * load_of(id) / (s_own * s_own));
      for (NodeId fo : fanouts[i]) {
        grad[static_cast<std::size_t>(fo)] +=
            adj_mu_t * cell.c * c.library().cell(c.node(fo).cell).c_in / s_own;
      }
      double am = a_mu;
      double av = a_var;
      for (std::size_t k = node.fanins.size(); k-- > 1;) {
        const stat::ClarkGrad& g = steps[i][k - 1];
        const std::size_t f = static_cast<std::size_t>(node.fanins[k]);
        amu[f] += am * g.dmu[1] + av * g.dvar[1];
        avar[f] += am * g.dmu[3] + av * g.dvar[3];
        const double nm = am * g.dmu[0] + av * g.dvar[0];
        const double nv = am * g.dmu[2] + av * g.dvar[2];
        am = nm;
        av = nv;
      }
      amu[static_cast<std::size_t>(node.fanins[0])] += am;
      avar[static_cast<std::size_t>(node.fanins[0])] += av;
    }
  }
  return tmax;
}

class TimingViewEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TimingViewEquivalence, AllSweepsMatchTheNodeWalkAtEveryJobCount) {
  JobsGuard guard;
  // 220 gates > the 192-gate parallel cutoff, so --jobs 4 runs the
  // level-parallel forward sweeps, not the serial fallback.
  const Circuit c = random_circuit(GetParam(), 220);
  const ssta::SigmaModel sm{0.25, 0.02};
  const ssta::DelayCalculator calc(c, sm);
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()));
  for (std::size_t i = 0; i < speed.size(); ++i) {
    speed[i] = 1.0 + 0.21 * static_cast<double>((i * 7 + GetParam()) % 9);
  }
  const std::vector<NormalRV> delays = calc.all_delays(speed);

  NormalRV ref_total;
  const std::vector<NormalRV> ref_arr = ref_ssta(c, delays, &ref_total);
  double ref_sta_total = 0.0;
  const std::vector<double> ref_sta_arr = ref_sta_worst(c, delays, &ref_sta_total);
  ssta::MonteCarloOptions mc_opt;
  mc_opt.num_samples = 1500;  // spans several 256-trial chunks
  mc_opt.seed = static_cast<std::uint64_t>(GetParam()) * 1000003 + 17;
  double ref_mean = 0.0;
  double ref_stddev = 0.0;
  const std::vector<double> ref_samples =
      ref_monte_carlo(c, delays, mc_opt, &ref_mean, &ref_stddev);
  std::vector<double> ref_grad;
  const NormalRV ref_tmax = ref_reduced_grad(c, sm, speed, ref_grad);

  const core::ReducedEvaluator eval(c, sm);
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    runtime::set_threads(jobs);

    const ssta::TimingReport r = ssta::run_ssta(c, delays);
    EXPECT_EQ(r.circuit_delay.mu, ref_total.mu);
    EXPECT_EQ(r.circuit_delay.var, ref_total.var);
    ASSERT_EQ(r.arrival.size(), ref_arr.size());
    for (std::size_t i = 0; i < ref_arr.size(); ++i) {
      ASSERT_EQ(r.arrival[i].mu, ref_arr[i].mu) << "node " << i;
      ASSERT_EQ(r.arrival[i].var, ref_arr[i].var) << "node " << i;
    }

    const ssta::StaReport sta = ssta::run_sta(c, delays, ssta::Corner::kWorst);
    EXPECT_EQ(sta.circuit_delay, ref_sta_total);
    for (std::size_t i = 0; i < ref_sta_arr.size(); ++i) {
      ASSERT_EQ(sta.arrival[i], ref_sta_arr[i]) << "node " << i;
    }

    const ssta::MonteCarloResult mc = ssta::run_monte_carlo(c, delays, mc_opt);
    EXPECT_EQ(mc.mean, ref_mean);
    EXPECT_EQ(mc.stddev, ref_stddev);
    ASSERT_EQ(mc.samples.size(), ref_samples.size());
    for (std::size_t i = 0; i < ref_samples.size(); ++i) {
      ASSERT_EQ(mc.samples[i], ref_samples[i]) << "sample " << i;
    }

    std::vector<double> grad;
    const NormalRV tmax = eval.eval_with_grad(speed, 1.0, 0.0, grad);
    EXPECT_EQ(tmax.mu, ref_tmax.mu);
    EXPECT_EQ(tmax.var, ref_tmax.var);
    ASSERT_EQ(grad.size(), ref_grad.size());
    for (std::size_t i = 0; i < ref_grad.size(); ++i) {
      ASSERT_EQ(grad[i], ref_grad[i]) << "node " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingViewEquivalence, ::testing::Range(1, 5));

}  // namespace
}  // namespace statsize
