#include "ssta/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netlist/timing_view.h"
#include "runtime/runtime.h"
#include "ssta/propagate.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;

double MonteCarloResult::quantile(double p) const {
  if (samples.empty()) throw std::runtime_error("no samples");
  if (!(p >= 0.0 && p <= 1.0)) {
    // A negative index would wrap through the size_t cast into an
    // out-of-bounds read; reject NaN too (it fails both comparisons).
    throw std::invalid_argument("MonteCarloResult::quantile: p = " + std::to_string(p) +
                                " is outside [0, 1]");
  }
  const double idx = p * (static_cast<double>(samples.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double MonteCarloResult::yield(double deadline) const {
  if (samples.empty()) throw std::runtime_error("no samples");
  const auto it = std::upper_bound(samples.begin(), samples.end(), deadline);
  return static_cast<double>(it - samples.begin()) / static_cast<double>(samples.size());
}

namespace {

/// Samples are drawn in fixed chunks of kChunkSamples trials; chunk i uses
/// its own RNG stream seeded from (seed, i). The chunk partition depends only
/// on the sample count, chunks write to disjoint sample slots, and per-chunk
/// moment partials are combined in chunk order on one thread — so every
/// number out of this engine is bit-identical at any thread count (and
/// independent of which worker ran which chunk).
constexpr int kChunkSamples = 256;

/// splitmix64 over (seed, stream): decorrelated, cheap per-chunk streams.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A sample count must be a usable trial count before any sizing math runs
/// on it: zero reaches samples.front()/.back() on an empty vector and a
/// divide-by-zero in criticality, and a negative count wraps through the
/// size_t cast in the chunk partition into an absurd allocation.
void validate_num_samples(const MonteCarloOptions& options, const char* fn) {
  if (options.num_samples < 1) {
    throw std::invalid_argument(std::string(fn) + ": num_samples = " +
                                std::to_string(options.num_samples) +
                                " but at least 1 trial is required");
  }
}

/// Per-trial delay parameters, hoisted out of the trial loop: NormalRV
/// stores variance, so the naive `d.sigma() * unit(rng)` pays a sqrt per
/// gate per trial — ~32M sqrts on the 1600-gate/20k-trial bench row.
/// Sampling `mu[id] + sigma[id] * u` below is the same arithmetic on the
/// same values in the same order, hence bit-identical.
struct DelayParams {
  std::vector<double> mu;
  std::vector<double> sigma;

  explicit DelayParams(const std::vector<stat::NormalRV>& gate_delays) {
    mu.resize(gate_delays.size());
    sigma.resize(gate_delays.size());
    for (std::size_t i = 0; i < gate_delays.size(); ++i) {
      mu[i] = gate_delays[i].mu;
      sigma[i] = gate_delays[i].sigma();
    }
  }
};

/// Per-worker trial scratch, reused across chunks (the old code heap-
/// allocated a fresh arrival vector per chunk). bind() zero-fills without
/// releasing capacity: primary-input arrivals are the constant 0.0 in every
/// trial, so one fill per chunk replaces the per-trial per-node kind branch,
/// and every gate slot is overwritten on every trial. The values written
/// depend only on (seed, chunk, trial) — never on which worker ran before —
/// so the reuse cannot leak state between chunks.
struct TrialScratch {
  std::vector<double> arrival;

  void bind(const netlist::TimingView& view) {
    arrival.assign(static_cast<std::size_t>(view.num_nodes()), 0.0);
  }
};

thread_local TrialScratch t_scratch;

/// The maximum arrival over `nodes` and the first node holding it.
template <class Nodes>
std::pair<double, NodeId> max_and_argmax(const Nodes& nodes, const std::vector<double>& arrival) {
  NodeId arg = nodes[0];
  const double max = fold_max(nodes, arrival, [&](double acc, double b, std::size_t k) {
    if (!(b > acc)) return acc;
    arg = nodes[k];
    return b;
  });
  return {max, arg};
}

/// One trial: sample delays, propagate over the flat CSR view, return
/// (delay, critical PO). Walks gates only — PI arrivals are the constant
/// 0.0 the scratch buffer already holds — in gates_in_topo_order(), which is
/// exactly the non-input subsequence of topo_order(): the RNG consumption
/// order is unchanged from the all-nodes walk.
template <class SampleFn>
double propagate_once(const netlist::TimingView& view, SampleFn&& sample_delay,
                      std::vector<double>& arrival, NodeId* critical_output) {
  for (NodeId id : view.gates_in_topo_order()) {
    arrival[static_cast<std::size_t>(id)] =
        fold_max(view.fanins(id), arrival, [](double a, double b) { return std::max(a, b); }) +
        sample_delay(id);
  }
  const auto [total, crit] = max_and_argmax(view.outputs(), arrival);
  if (critical_output != nullptr) *critical_output = crit;
  return total;
}

/// Runs trials [first, last) of the experiment defined by (options, chunk)
/// with the chunk's private RNG stream; on_trial(trial, total, arrival).
template <class OnTrial>
void run_chunk(const netlist::TimingView& view, const DelayParams& params,
               const MonteCarloOptions& options, std::size_t chunk, OnTrial&& on_trial) {
  std::mt19937_64 rng(stream_seed(options.seed, chunk));
  std::normal_distribution<double> unit(0.0, 1.0);
  t_scratch.bind(view);
  std::vector<double>& arrival = t_scratch.arrival;
  const int first = static_cast<int>(chunk) * kChunkSamples;
  const int last = first + std::min(kChunkSamples, options.num_samples - first);
  for (int trial = first; trial < last; ++trial) {
    auto sample_delay = [&](NodeId id) {
      double t = params.mu[static_cast<std::size_t>(id)] +
                 params.sigma[static_cast<std::size_t>(id)] * unit(rng);
      if (options.truncate_negative_delays && t < 0.0) t = 0.0;
      return t;
    };
    NodeId crit = netlist::kInvalidNode;
    const double total = propagate_once(view, sample_delay, arrival, &crit);
    on_trial(trial, total, crit, arrival);
  }
}

std::size_t num_chunks(const MonteCarloOptions& options) {
  return (static_cast<std::size_t>(options.num_samples) + kChunkSamples - 1) / kChunkSamples;
}

/// Per-chunk moment partials on their own cache line: adjacent chunks are
/// claimed by different workers, and packing the partials into plain double
/// arrays made every store a false-sharing miss on the 64-byte line shared
/// with ~7 neighbors.
struct alignas(64) ChunkMoments {
  double sum = 0.0;
  double sum2 = 0.0;
};

}  // namespace

MonteCarloResult run_monte_carlo(const netlist::TimingView& view,
                                 const std::vector<stat::NormalRV>& gate_delays,
                                 const MonteCarloOptions& options) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  validate_num_samples(options, "run_monte_carlo");
  const DelayParams params(gate_delays);
  const std::size_t chunks = num_chunks(options);
  MonteCarloResult result;
  result.samples.resize(static_cast<std::size_t>(options.num_samples));
  std::vector<ChunkMoments> moments(chunks);

  runtime::parallel_for(chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      double sum = 0.0;
      double sum2 = 0.0;
      run_chunk(view, params, options, c,
                [&](int trial, double total, NodeId, const std::vector<double>&) {
                  result.samples[static_cast<std::size_t>(trial)] = total;
                  sum += total;
                  sum2 += total * total;
                });
      moments[c].sum = sum;
      moments[c].sum2 = sum2;
    }
  });

  // Ordered combine: moments fold over chunks in index order.
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    sum += moments[c].sum;
    sum2 += moments[c].sum2;
  }
  std::sort(result.samples.begin(), result.samples.end());
  const double n = static_cast<double>(options.num_samples);
  result.mean = sum / n;
  result.stddev = std::sqrt(std::max(0.0, sum2 / n - result.mean * result.mean));
  result.min = result.samples.front();
  result.max = result.samples.back();
  return result;
}

std::vector<double> monte_carlo_criticality(const netlist::TimingView& view,
                                            const std::vector<stat::NormalRV>& gate_delays,
                                            const MonteCarloOptions& options) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  validate_num_samples(options, "monte_carlo_criticality");
  const DelayParams params(gate_delays);
  const std::size_t chunks = num_chunks(options);
  std::vector<long> hits(static_cast<std::size_t>(view.num_nodes()), 0);
  std::mutex hits_mutex;  // integer merge: exact, order-independent

  runtime::parallel_for(chunks, 1, [&](std::size_t cb, std::size_t ce) {
    std::vector<long> local(hits.size(), 0);
    for (std::size_t c = cb; c < ce; ++c) {
      run_chunk(view, params, options, c,
                [&](int, double, NodeId crit, const std::vector<double>& arrival) {
                  // Walk back along argmax fanins from the critical output.
                  for (NodeId cur = crit; view.is_gate(cur);) {
                    ++local[static_cast<std::size_t>(cur)];
                    cur = max_and_argmax(view.fanins(cur), arrival).second;
                  }
                });
    }
    const std::lock_guard<std::mutex> lock(hits_mutex);
    for (std::size_t i = 0; i < hits.size(); ++i) hits[i] += local[i];
  });

  std::vector<double> criticality(static_cast<std::size_t>(view.num_nodes()), 0.0);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    criticality[i] = static_cast<double>(hits[i]) / options.num_samples;
  }
  return criticality;
}

}  // namespace statsize::ssta
