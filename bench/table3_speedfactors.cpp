// Reproduces the paper's Table 3: per-gate speed factors of the tree circuit
// for {min area, min sigma, max sigma} at the middle pinned mean delay
// (the paper's mu = 6.5 row; here the same relative position in our range).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sizer.h"
#include "netlist/generators.h"

namespace {

using namespace statsize;

std::map<std::string, double> speed_by_name(const netlist::Circuit& c,
                                            const core::SizingResult& r) {
  std::map<std::string, double> m;
  for (netlist::NodeId id : c.topo_order()) {
    const netlist::Node& n = c.node(id);
    if (n.kind == netlist::NodeKind::kGate) m[n.name] = r.speed[static_cast<std::size_t>(id)];
  }
  return m;
}

void check(bool ok, const char* what, int& failures) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  std::printf("=== Table 3: tree-circuit speed factors at the middle mu target ===\n");
  const netlist::Circuit c = netlist::make_tree_circuit();
  bench::print_workload("tree", c);

  core::SizingSpec spec;
  const bench::MetricRange range = bench::metric_range(c, spec, 0.0);
  const double target = range.at(0.55);  // paper: mu = 6.5 in [5.4, 7.4]
  std::printf("# pinned mu_Tmax = %.3f (55%% of range [%.2f, %.2f]; paper used 6.5)\n", target,
              range.lo, range.hi);
  spec.delay_constraint = core::DelayConstraint::exactly(target);

  const char* gates[] = {"A", "B", "C", "D", "E", "F", "G"};
  std::printf("\n| %-12s |", "objective");
  for (const char* g : gates) std::printf(" S_%s  |", g);
  std::printf("\n|--------------|------|------|------|------|------|------|------|\n");

  std::map<std::string, std::map<std::string, double>> table;
  for (const core::Objective& obj :
       {core::Objective::min_area(), core::Objective::min_sigma(), core::Objective::max_sigma()}) {
    spec.objective = obj;
    core::SizerOptions opt;
    opt.method = core::Method::kFullSpace;
    const core::SizingResult r = core::Sizer(c, spec).run(opt);
    const auto speeds = speed_by_name(c, r);
    table[obj.description()] = speeds;
    std::printf("| %-12s |", obj.description().c_str());
    for (const char* g : gates) std::printf(" %.2f |", speeds.at(g));
    std::printf("%s\n", r.converged ? "" : "  <- not converged");
  }

  // Paper's Table 3 structure.
  int failures = 0;
  std::printf("# criteria:\n");
  for (const char* obj : {"min sum(S)", "min sigma"}) {
    const auto& s = table.at(obj);
    const bool groups =
        std::abs(s.at("A") - s.at("B")) < 0.03 && std::abs(s.at("A") - s.at("D")) < 0.03 &&
        std::abs(s.at("A") - s.at("E")) < 0.03 && std::abs(s.at("C") - s.at("F")) < 0.03;
    check(groups, "symmetric gates get equal factors ({A,B,D,E} and {C,F})", failures);
    check(s.at("C") >= s.at("A") - 0.02 && s.at("G") >= s.at("C") - 0.02,
          "factors grow toward the output", failures);
    check(s.at("G") > s.at("A") + 0.05, "output gate clearly largest", failures);
  }
  {
    // Min-sigma is the more extreme allocation (leaves smaller, output larger).
    const auto& a = table.at("min sum(S)");
    const auto& m = table.at("min sigma");
    check(m.at("A") <= a.at("A") + 0.02 && m.at("G") >= a.at("G") - 0.02,
          "min-sigma is more extreme than min-area", failures);
  }
  {
    // Max-sigma abandons the balanced allocation: the factor spread across
    // the circuit becomes large. (The paper's solver differentiated the two
    // parallel subtrees, A=3 vs B=1; ours differentiates pipeline stages,
    // leaves=3 vs middle~1 — the objective has several symmetric maxima and
    // both mechanisms widen the delay distribution. EXPERIMENTS.md discusses
    // the multi-modality.)
    const auto& x = table.at("max sigma");
    double lo = 3.0;
    double hi = 1.0;
    for (const char* g : gates) {
      lo = std::min(lo, x.at(g));
      hi = std::max(hi, x.at(g));
    }
    check(hi - lo > 1.0, "max-sigma strongly differentiates gate delays", failures);
    const auto& m = table.at("min sigma");
    check(x.at("G") < m.at("G"),
          "max-sigma shrinks the output gate that min-sigma maximizes", failures);
  }

  std::printf("\n%s\n", failures == 0 ? "TABLE 3 REPRODUCTION: all criteria hold"
                                      : "TABLE 3 REPRODUCTION: some criteria FAILED");
  return failures == 0 ? 0 : 1;
}
