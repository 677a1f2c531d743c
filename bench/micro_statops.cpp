// E8 — microbenchmarks (google-benchmark) of the statistical operators and
// the timing engines. The paper's case against Monte Carlo timing (sec. 1)
// is cost "in an environment directed at optimization, in which repeated
// delay evaluations are required": these numbers quantify that argument on
// this implementation.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "core/reduced_space.h"
#include "core/sizer.h"
#include "netlist/generators.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace {

using namespace statsize;

std::vector<stat::NormalRV> random_operands(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mu(-5.0, 5.0);
  std::uniform_real_distribution<double> var(0.01, 4.0);
  std::vector<stat::NormalRV> out(static_cast<std::size_t>(n));
  for (auto& rv : out) rv = {mu(rng), var(rng)};
  return out;
}

void BM_NormalCdf(benchmark::State& state) {
  double x = -6.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stat::normal_cdf(x));
    x += 0.001;
    if (x > 6.0) x = -6.0;
  }
}
BENCHMARK(BM_NormalCdf);

// The kernel every Clark max calls once: Phi(x), Phi(-x) and phi(x).
void BM_NormalTerms(benchmark::State& state) {
  double x = -6.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stat::normal_terms(x));
    x += 0.001;
    if (x > 6.0) x = -6.0;
  }
}
BENCHMARK(BM_NormalTerms);

void BM_ClarkMaxValue(benchmark::State& state) {
  const auto ops = random_operands(1024, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stat::clark_max(ops[i % 1024], ops[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_ClarkMaxValue);

void BM_ClarkMaxGrad(benchmark::State& state) {
  const auto ops = random_operands(1024, 2);
  stat::ClarkGrad grad;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stat::clark_max_grad(ops[i % 1024], ops[(i + 1) % 1024], grad));
    ++i;
  }
}
BENCHMARK(BM_ClarkMaxGrad);

void BM_ClarkMaxFull(benchmark::State& state) {
  const auto ops = random_operands(1024, 3);
  stat::ClarkGrad grad;
  stat::ClarkHess hess;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stat::clark_max_full(ops[i % 1024], ops[(i + 1) % 1024], grad, hess));
    ++i;
  }
}
BENCHMARK(BM_ClarkMaxFull);

void BM_SstaSweep(benchmark::State& state) {
  netlist::RandomDagParams p;
  p.num_gates = static_cast<int>(state.range(0));
  p.seed = 4;
  const netlist::Circuit c = netlist::make_random_dag(p);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.5);
  const auto delays = calc.all_delays(speed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta::run_ssta(c, delays).circuit_delay.mu);
  }
  state.SetItemsProcessed(state.iterations() * p.num_gates);
}
BENCHMARK(BM_SstaSweep)->Arg(100)->Arg(1000);

void BM_AdjointGradient(benchmark::State& state) {
  netlist::RandomDagParams p;
  p.num_gates = static_cast<int>(state.range(0));
  p.seed = 5;
  const netlist::Circuit c = netlist::make_random_dag(p);
  const core::ReducedEvaluator eval(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.5);
  std::vector<double> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.eval_with_grad(speed, 1.0, 0.1, grad).mu);
  }
  state.SetItemsProcessed(state.iterations() * p.num_gates);
}
BENCHMARK(BM_AdjointGradient)->Arg(100)->Arg(1000);

// Taped forward sweeps on Table 1 circuits. EveryGateMoved alternates two
// speed vectors that differ at every gate, so each call walks the whole
// circuit through the dirty-cone worklist; Cold drops the tape first and
// records it from scratch, at the same two vectors (the Clark branches see
// the same values). The two should cost the same.
std::vector<double> random_speeds(const netlist::Circuit& c, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> s(1.0, 2.0);
  std::vector<double> out(static_cast<std::size_t>(c.num_nodes()), 1.0);
  for (netlist::NodeId g : c.view().gates_in_topo_order()) {
    out[static_cast<std::size_t>(g)] = s(rng);
  }
  return out;
}

void BM_TapedForwardEveryGateMoved(benchmark::State& state, const char* name) {
  const netlist::Circuit c = netlist::make_mcnc_like(name);
  const core::ReducedEvaluator eval(c, {0.25, 0.0});
  const std::vector<double> speeds[2] = {random_speeds(c, 7), random_speeds(c, 8)};
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.taped_forward(speeds[k ^= 1]).mu);
  }
  state.SetItemsProcessed(state.iterations() * c.num_gates());
}
BENCHMARK_CAPTURE(BM_TapedForwardEveryGateMoved, apex2, "apex2");
BENCHMARK_CAPTURE(BM_TapedForwardEveryGateMoved, k2, "k2");

void BM_TapedForwardCold(benchmark::State& state, const char* name) {
  const netlist::Circuit c = netlist::make_mcnc_like(name);
  core::ReducedEvaluator eval(c, {0.25, 0.0});
  const std::vector<double> speeds[2] = {random_speeds(c, 7), random_speeds(c, 8)};
  std::size_t k = 0;
  for (auto _ : state) {
    eval.invalidate();
    benchmark::DoNotOptimize(eval.taped_forward(speeds[k ^= 1]).mu);
  }
  state.SetItemsProcessed(state.iterations() * c.num_gates());
}
BENCHMARK_CAPTURE(BM_TapedForwardCold, apex2, "apex2");
BENCHMARK_CAPTURE(BM_TapedForwardCold, k2, "k2");

// One whole reduced-space solve: the size job `statsize serve` runs on apex2
// (min mu + 3 sigma, projected L-BFGS over taped sweeps and adjoints).
void BM_ProjectedLbfgsApex2Reduced(benchmark::State& state) {
  const netlist::Circuit c = netlist::make_mcnc_like("apex2");
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(3.0);
  core::SizerOptions opt;
  opt.method = core::Method::kReducedSpace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Sizer(c, spec).run(opt).objective_value);
  }
}
BENCHMARK(BM_ProjectedLbfgsApex2Reduced)->Unit(benchmark::kMillisecond);

void BM_MonteCarloTiming(benchmark::State& state) {
  // One full MC characterization (1000 samples) — the cost the paper avoids
  // per optimizer step by using the analytic propagation (BM_SstaSweep).
  netlist::RandomDagParams p;
  p.num_gates = static_cast<int>(state.range(0));
  p.seed = 6;
  const netlist::Circuit c = netlist::make_random_dag(p);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.5);
  const auto delays = calc.all_delays(speed);
  ssta::MonteCarloOptions opt;
  opt.num_samples = 1000;
  for (auto _ : state) {
    opt.seed++;
    benchmark::DoNotOptimize(ssta::run_monte_carlo(c, delays, opt).mean);
  }
}
BENCHMARK(BM_MonteCarloTiming)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
