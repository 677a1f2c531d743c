// E7 — the scalability trend behind Table 1's CPU column ("the method is
// able to deal with circuits of up to a few thousand gates"). Three sections:
//
//   1. Circuit-size sweep: solves min-mu sizing at increasing gate counts and
//      reports wall time for both methods (the full-space NLP is capped at
//      300 gates by default; STATSIZE_METHOD=full lifts that to reproduce the
//      paper's hours-scale behaviour).
//   2. Thread-scaling sweep: SSTA propagation and Monte Carlo on the largest
//      DAG across --jobs 1/2/4/hw, with a determinism cross-check (parallel
//      results must be bit-identical to 1-thread results; see DESIGN.md §7).
//   3. TimingView sweep: the historical per-Node pointer walk vs the flat CSR
//      view path (DESIGN.md §8) for delay evaluation, SSTA, and corner STA at
//      one thread — a pure memory-layout comparison whose results must be
//      bit-identical (the view copies the same doubles and keeps every fold
//      order), so any mismatch hard-fails the benchmark.
//
// Machine-readable results go to BENCH_scaling.json via bench::JsonArtifact.
// STATSIZE_SCALING_SECTIONS=sizing,threads,timing_view
// (comma-separated) restricts the run to the named sections; unset runs all.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sizer.h"
#include "netlist/generators.h"
#include "runtime/runtime.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace {

using namespace statsize;

netlist::Circuit scaling_dag(int gates) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 16 + gates / 20;
  p.depth = 8 + gates / 80;
  p.seed = 1000 + static_cast<std::uint64_t>(gates);
  return netlist::make_random_dag(p);
}

double wall_ms(const std::function<void()>& fn, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool reports_equal(const ssta::TimingReport& a, const ssta::TimingReport& b) {
  if (a.arrival.size() != b.arrival.size()) return false;
  for (std::size_t i = 0; i < a.arrival.size(); ++i) {
    if (a.arrival[i].mu != b.arrival[i].mu || a.arrival[i].var != b.arrival[i].var) return false;
  }
  return a.circuit_delay.mu == b.circuit_delay.mu && a.circuit_delay.var == b.circuit_delay.var;
}

/// Section filter: STATSIZE_SCALING_SECTIONS=threads,timing_view runs only
/// those sections (comma-separated; unset/empty = all). Lets the check.sh
/// scaling smoke gate exercise the bit-identity cross-checks without paying
/// for the sizing solves.
bool section_enabled(const char* name) {
  const char* env = std::getenv("STATSIZE_SCALING_SECTIONS");
  if (env == nullptr || env[0] == '\0') return true;
  const std::string list(env);
  const std::string needle(name);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (list.compare(pos, comma - pos, needle) == 0) return true;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

int main() {
  std::printf("=== E7: CPU-time scaling of statistical sizing (min mu) ===\n\n");
  std::printf("%8s %8s | %12s %10s | %12s %10s\n", "gates", "depth", "reduced", "mu",
              "full-space", "mu");

  const char* env = std::getenv("STATSIZE_METHOD");
  const bool force_full = env != nullptr && std::string(env) == "full";

  bench::JsonArtifact artifact("scaling");
  int failures = 0;
  if (section_enabled("sizing")) {
  for (int gates : {50, 100, 200, 400, 800, 1600}) {
    const netlist::Circuit c = scaling_dag(gates);

    core::SizingSpec spec;
    spec.objective = core::Objective::min_delay(0.0);

    core::SizerOptions ro;
    ro.method = core::Method::kReducedSpace;
    const core::SizingResult rr = core::Sizer(c, spec).run(ro);
    artifact.add_row()
        .field("section", "sizing")
        .field("gates", gates)
        .field("depth", c.depth())
        .field("method", "reduced")
        .field("wall_ms", rr.wall_seconds * 1e3)
        .field("mu", rr.circuit_delay.mu);

    std::string fs_time = "(skipped)";
    std::string fs_mu = "";
    if (core::auto_method(c) == core::Method::kFullSpace || force_full) {
      core::SizerOptions fo;
      fo.method = core::Method::kFullSpace;
      const core::SizingResult rf = core::Sizer(c, spec).run(fo);
      fs_time = bench::format_cpu(rf.wall_seconds);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", rf.circuit_delay.mu);
      fs_mu = buf;
      artifact.add_row()
          .field("section", "sizing")
          .field("gates", gates)
          .field("depth", c.depth())
          .field("method", "full-space")
          .field("wall_ms", rf.wall_seconds * 1e3)
          .field("mu", rf.circuit_delay.mu);
      if (rf.circuit_delay.mu > rr.circuit_delay.mu * 1.01) {
        std::printf("  [FAIL] full-space clearly worse than reduced at %d gates\n", gates);
        ++failures;
      }
    }
    std::printf("%8d %8d | %12s %10.2f | %12s %10s\n", gates, c.depth(),
                bench::format_cpu(rr.wall_seconds).c_str(), rr.circuit_delay.mu,
                fs_time.c_str(), fs_mu.c_str());
  }
  }  // section "sizing"

  // ---- Thread scaling: analysis kernels on the largest DAG.
  const int hw = runtime::hardware_threads();
  std::vector<int> thread_counts = {1, 2, 4, hw};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  if (section_enabled("threads")) {
  std::printf("\n--- thread scaling (1600-gate DAG, %d hardware threads) ---\n", hw);
  std::printf("%8s | %12s %8s | %12s %8s | %s\n", "threads", "ssta ms", "speedup", "mc ms",
              "speedup", "deterministic");

  const netlist::Circuit big = scaling_dag(1600);
  const ssta::DelayCalculator calc(big, {});
  const std::vector<double> speed(static_cast<std::size_t>(big.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);
  ssta::MonteCarloOptions mco;
  mco.num_samples = 20000;
  mco.seed = 7;

  runtime::set_threads(1);
  const ssta::TimingReport ssta_ref = ssta::run_ssta(big, delays);
  const ssta::MonteCarloResult mc_ref = ssta::run_monte_carlo(big, delays, mco);
  double ssta_ms1 = 0.0;
  double mc_ms1 = 0.0;
  double mc_ms4 = 0.0;
  bool any_slower = false;
  for (const int t : thread_counts) {
    runtime::set_threads(t);
    const bool det = reports_equal(ssta::run_ssta(big, delays), ssta_ref) &&
                     ssta::run_monte_carlo(big, delays, mco).samples == mc_ref.samples;
    if (!det) {
      std::printf("  [FAIL] results at %d threads differ from the 1-thread reference\n", t);
      ++failures;
    }
    const double ssta_ms = wall_ms([&] { ssta::run_ssta(big, delays); }, 5);
    const double mc_ms = wall_ms([&] { ssta::run_monte_carlo(big, delays, mco); }, 3);
    if (t == 1) {
      ssta_ms1 = ssta_ms;
      mc_ms1 = mc_ms;
    }
    if (t == 4) mc_ms4 = mc_ms;
    if (t > 1 && (ssta_ms > ssta_ms1 * 1.05 || mc_ms > mc_ms1 * 1.05)) any_slower = true;
    std::printf("%8d | %12.3f %7.2fx | %12.3f %7.2fx | %s\n", t, ssta_ms, ssta_ms1 / ssta_ms,
                mc_ms, mc_ms1 / mc_ms, det ? "yes" : "NO");
    artifact.add_row()
        .field("section", "threads")
        .field("gates", big.num_gates())
        .field("threads", t)
        .field("ssta_wall_ms", ssta_ms)
        .field("ssta_speedup", ssta_ms > 0.0 ? ssta_ms1 / ssta_ms : 0.0)
        .field("mc_wall_ms", mc_ms)
        .field("mc_speedup", mc_ms > 0.0 ? mc_ms1 / mc_ms : 0.0)
        .field("mc_samples", mco.num_samples)
        .field("deterministic", det ? "yes" : "no");
  }
  runtime::set_threads(1);

  // Speedup is advisory: a warning on capable hardware, never a failure on
  // boxes (CI containers) that expose too few cores to show scaling.
  if (hw >= 4) {
    if (mc_ms4 > 0.0 && mc_ms4 > 0.5 * mc_ms1) {
      std::printf("  [WARN] Monte Carlo speedup below 2x at 4 threads on this machine\n");
    }
    if (any_slower) {
      std::printf("  [WARN] a parallel run was slower than its 1-thread fallback\n");
    }
  } else {
    std::printf("  [note] only %d hardware thread(s): speedup cannot be demonstrated here\n", hw);
  }
  }  // section "threads"

  if (section_enabled("timing_view")) {
  // A k2-scale circuit: the larger Table 1 benchmarks run ~1700 gates.
  const netlist::Circuit k2 = scaling_dag(1692);
  const ssta::SigmaModel sm{};
  const ssta::DelayCalculator k2_calc(k2, sm);
  std::vector<double> sp(static_cast<std::size_t>(k2.num_nodes()));
  for (std::size_t i = 0; i < sp.size(); ++i) {
    sp[i] = 1.0 + 0.21 * static_cast<double>(i % 9);  // uneven, deterministic
  }

  // ---- TimingView retarget: Node walk vs flat CSR view, single-threaded so
  // the comparison is purely about memory layout. The references below are
  // the pre-view traversals kept alive here as a yardstick; results must be
  // bit-identical because the view stores copies of the same doubles and the
  // production sweeps kept every fold order.
  std::printf("\n--- timing_view: Node walk vs CSR view (%d-gate DAG, 1 thread) ---\n",
              k2.num_gates());
  std::printf("%10s | %12s %12s %8s | %s\n", "sweep", "node ms", "view ms", "speedup",
              "identical");
  runtime::set_threads(1);

  // Fanout lists derived here from the Node fanins (sinks in ascending id,
  // one entry per pin), independently of the view's CSR.
  std::vector<std::vector<netlist::NodeId>> node_fanouts(
      static_cast<std::size_t>(k2.num_nodes()));
  for (netlist::NodeId id = 0; id < k2.num_nodes(); ++id) {
    for (const netlist::NodeId f : k2.node(id).fanins) {
      node_fanouts[static_cast<std::size_t>(f)].push_back(id);
    }
  }
  auto node_all_delays = [&](std::vector<stat::NormalRV>& out) {
    out.assign(static_cast<std::size_t>(k2.num_nodes()), stat::NormalRV{});
    for (const netlist::NodeId id : k2.topo_order()) {
      const netlist::Node& n = k2.node(id);
      if (n.kind != netlist::NodeKind::kGate) continue;
      const netlist::CellType& cell = k2.library().cell(n.cell);
      double load = n.wire_load + (n.is_output ? n.pad_load : 0.0);
      for (const netlist::NodeId fo : node_fanouts[static_cast<std::size_t>(id)]) {
        load += k2.library().cell(k2.node(fo).cell).c_in * sp[static_cast<std::size_t>(fo)];
      }
      const double mu = cell.t_int + cell.c * load / sp[static_cast<std::size_t>(id)];
      out[static_cast<std::size_t>(id)] = stat::NormalRV::from_sigma(mu, sm.sigma(mu));
    }
  };
  auto node_ssta = [&](const std::vector<stat::NormalRV>& d, std::vector<stat::NormalRV>& arr) {
    arr.assign(static_cast<std::size_t>(k2.num_nodes()), stat::NormalRV{});
    for (const netlist::NodeId id : k2.topo_order()) {
      const netlist::Node& n = k2.node(id);
      if (n.kind == netlist::NodeKind::kPrimaryInput) continue;
      stat::NormalRV u = arr[static_cast<std::size_t>(n.fanins[0])];
      for (std::size_t i = 1; i < n.fanins.size(); ++i) {
        u = stat::clark_max(u, arr[static_cast<std::size_t>(n.fanins[i])]);
      }
      arr[static_cast<std::size_t>(id)] = stat::add(u, d[static_cast<std::size_t>(id)]);
    }
  };
  auto node_sta = [&](const std::vector<stat::NormalRV>& d, std::vector<double>& arr) {
    arr.assign(static_cast<std::size_t>(k2.num_nodes()), 0.0);
    for (const netlist::NodeId id : k2.topo_order()) {
      const netlist::Node& n = k2.node(id);
      if (n.kind == netlist::NodeKind::kPrimaryInput) continue;
      double u = arr[static_cast<std::size_t>(n.fanins[0])];
      for (std::size_t i = 1; i < n.fanins.size(); ++i) {
        u = std::max(u, arr[static_cast<std::size_t>(n.fanins[i])]);
      }
      arr[static_cast<std::size_t>(id)] = u + d[static_cast<std::size_t>(id)].quantile_offset(3.0);
    }
  };

  std::vector<stat::NormalRV> node_delays;
  node_all_delays(node_delays);
  const std::vector<stat::NormalRV> view_delays = k2_calc.all_delays(sp);
  bool delays_same = node_delays.size() == view_delays.size();
  for (std::size_t i = 0; delays_same && i < node_delays.size(); ++i) {
    delays_same = node_delays[i].mu == view_delays[i].mu &&
                  node_delays[i].var == view_delays[i].var;
  }

  std::vector<stat::NormalRV> node_arr;
  node_ssta(view_delays, node_arr);
  const ssta::TimingReport view_ssta = ssta::run_ssta(k2, view_delays);
  bool ssta_same = node_arr.size() == view_ssta.arrival.size();
  for (std::size_t i = 0; ssta_same && i < node_arr.size(); ++i) {
    ssta_same = node_arr[i].mu == view_ssta.arrival[i].mu &&
                node_arr[i].var == view_ssta.arrival[i].var;
  }

  std::vector<double> node_arr_sta;
  node_sta(view_delays, node_arr_sta);
  const ssta::StaReport view_sta = ssta::run_sta(k2, view_delays, ssta::Corner::kWorst);
  const bool sta_same = node_arr_sta == view_sta.arrival;

  struct ViewSweep {
    const char* name;
    bool identical;
    std::function<void()> node_fn;
    std::function<void()> view_fn;
  };
  std::vector<stat::NormalRV> rv_scratch;
  std::vector<double> d_scratch;
  const ViewSweep sweeps[] = {
      {"delays", delays_same, [&] { node_all_delays(rv_scratch); },
       [&] { k2_calc.all_delays(sp); }},
      {"ssta", ssta_same, [&] { node_ssta(view_delays, rv_scratch); },
       [&] { ssta::run_ssta(k2, view_delays); }},
      {"sta", sta_same, [&] { node_sta(view_delays, d_scratch); },
       [&] { ssta::run_sta(k2, view_delays, ssta::Corner::kWorst); }},
  };
  for (const ViewSweep& s : sweeps) {
    if (!s.identical) {
      std::printf("  [FAIL] %s: view path differs from the Node-walk reference\n", s.name);
      ++failures;
    }
    const double node_ms = wall_ms(s.node_fn, 5);
    const double view_ms = wall_ms(s.view_fn, 5);
    std::printf("%10s | %12.3f %12.3f %7.2fx | %s\n", s.name, node_ms, view_ms,
                node_ms / view_ms, s.identical ? "yes" : "NO");
    artifact.add_row()
        .field("section", "timing_view")
        .field("gates", k2.num_gates())
        .field("sweep", s.name)
        .field("node_ms", node_ms)
        .field("view_ms", view_ms)
        .field("identical", s.identical ? "yes" : "no");
  }
  }  // section "timing_view"

  artifact.write();
  std::printf("\nE7 SCALING: %s\n", failures == 0 ? "completed (trend recorded above)"
                                                  : "FAILURES detected");
  return failures == 0 ? 0 : 1;
}
