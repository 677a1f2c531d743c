// statsize — command-line gate sizer under the statistical delay model.
//
// Examples:
//   statsize --circuit tree --objective delay --sigma-weight 3 --report
//   statsize --circuit my.blif --objective area --max-delay 120
//            --constraint-sigma-weight 3 --mc 20000 --sizes-out sized.tsv
//   statsize --circuit k2 --objective power --max-delay 140 --method reduced
//
// The tool loads a circuit (BLIF file or a built-in generator), runs the
// requested sizing, prints the resulting delay distribution, and optionally:
//   * prints a statistical timing report with slacks and the critical path,
//   * verifies the result against Monte Carlo,
//   * uses the correlation-aware canonical engine for the analysis section,
//   * writes the per-gate speed factors to a TSV file.
//
// `statsize lint` is a separate subcommand: it runs the static-analysis
// subsystem (circuit structure, cell library, sigma model, TimingView graph
// analytics, NLP model and instance audits) over one or more circuits and
// reports diagnostics instead of sizing, with exit codes 0 = clean/notes,
// 2 = warnings, 3 = errors, 1 = tool failure.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/graph_audit.h"
#include "analyze/library_lint.h"
#include "analyze/lint.h"
#include "analyze/nlp_audit.h"
#include "analyze/registry.h"
#include "core/sizer.h"
#include "netlist/blif.h"
#include "netlist/verilog.h"
#include "netlist/generators.h"
#include "ssta/activity.h"
#include "ssta/canonical.h"
#include "ssta/monte_carlo.h"
#include "ssta/report.h"
#include "ssta/slack.h"
#include "runtime/fault.h"
#include "runtime/runtime.h"
#include "runtime/signal.h"
#include "serve_cli.h"
#include "ssta/ssta.h"
#include "util/args.h"

namespace {

using namespace statsize;

netlist::Circuit load_circuit(const std::string& name) {
  if (name == "tree") return netlist::make_tree_circuit();
  if (name == "apex1" || name == "apex2" || name == "k2") return netlist::make_mcnc_like(name);
  if (name.size() > 2 && name.rfind(".v") == name.size() - 2) {
    return netlist::read_verilog_file(name);
  }
  if (name.rfind(".blif") != std::string::npos || name.find('/') != std::string::npos) {
    return netlist::read_blif_file(name);
  }
  throw std::invalid_argument("unknown circuit '" + name +
                              "' (use tree|apex1|apex2|k2 or a .blif/.v path)");
}

void print_report(const netlist::Circuit& c, const core::SizingSpec& spec,
                  const core::SizingResult& r, bool canonical) {
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  const auto delays = calc.all_delays(r.speed);
  const ssta::TimingReport timing = ssta::run_ssta(c, delays);

  std::printf("\n--- timing report (%s engine) ---\n",
              canonical ? "canonical, correlation-aware" : "independence");
  stat::NormalRV total = timing.circuit_delay;
  if (canonical) total = ssta::run_canonical_ssta(c, delays).circuit_delay_normal();
  std::printf("circuit delay: mu=%.4f sigma=%.4f  (mu+3sigma=%.4f)\n", total.mu, total.sigma(),
              total.quantile_offset(3.0));

  const double deadline =
      spec.delay_constraint ? spec.delay_constraint->bound : total.quantile_offset(3.0);
  const ssta::SlackReport slacks = ssta::compute_slacks(c, delays, timing, deadline);

  std::printf("\ncritical path (deadline %.3f):\n", deadline);
  std::printf("%-12s %-8s %8s %10s %10s %10s %8s\n", "node", "cell", "S", "arr.mu",
              "arr.sigma", "slack.mu", "P(meet)");
  for (netlist::NodeId id : ssta::extract_critical_path(c, timing)) {
    const netlist::Node& n = c.node(id);
    const stat::NormalRV& arr = timing.arrival[static_cast<std::size_t>(id)];
    const stat::NormalRV& sl = slacks.slack[static_cast<std::size_t>(id)];
    std::printf("%-12s %-8s %8.3f %10.4f %10.4f %10.4f %7.1f%%\n", n.name.c_str(),
                n.kind == netlist::NodeKind::kGate ? c.cell_of(id).name.c_str() : "(input)",
                n.kind == netlist::NodeKind::kGate ? r.speed[static_cast<std::size_t>(id)] : 1.0,
                arr.mu, arr.sigma(), sl.mu, 100.0 * slacks.meet_probability(id));
  }
}

/// Deliberately defective inputs, exercising one rule from every analysis
/// family: a combinational cycle (CIR001) and a dangling gate (CIR006) in a
/// circuit, non-physical candidate cells (LIB001, LIB003), an NLP instance
/// with an empty bound box (NLP001), an orphan variable (NLP003) and a
/// constant constraint (NLP005), and a level histogram spammed with
/// zero-width levels (GRF002). Used by CI to prove every family's error rules
/// actually flip the exit code. The empty box enters as a NaN bound:
/// Problem::add_variable rejects lower > upper eagerly, but NaN slips through
/// every `>` comparison — exactly the silent corruption NLP001 exists for.
analyze::Report demo_defects_report(const analyze::LintOptions& options) {
  const netlist::CellLibrary& lib = netlist::CellLibrary::standard();
  const int nand2 = lib.cell_for_inputs(2);
  const int inv = lib.cell_for_inputs(1);

  netlist::Circuit c(lib);
  const netlist::NodeId a = c.add_input("a");
  const netlist::NodeId b = c.add_input("b");
  const netlist::NodeId d = c.add_input("d");
  const netlist::NodeId e = c.add_input("e");
  const netlist::NodeId gc = c.add_gate(nand2, {a, b}, "C");
  const netlist::NodeId gf = c.add_gate(nand2, {d, e}, "F");
  const netlist::NodeId gg = c.add_gate(nand2, {gc, gf}, "G");
  c.mark_output(gg, 1.0);
  c.add_gate(inv, {gc}, "dangle");  // CIR006: drives nothing, not an output
  const netlist::NodeId lx = c.add_gate_deferred(nand2, "loopx");  // CIR001 below
  const netlist::NodeId ly = c.add_gate_deferred(nand2, "loopy");
  c.set_fanin(lx, 0, ly);
  c.set_fanin(lx, 1, a);
  c.set_fanin(ly, 0, lx);
  c.set_fanin(ly, 1, b);

  analyze::Report report = analyze::lint_circuit(c, options).report;

  std::vector<netlist::CellType> candidates;
  candidates.push_back({"NEGDELAY", 2, -0.5, 1.0, 1.0, 1.0, netlist::CellFunction::kNand});
  candidates.push_back({"ZEROCIN", 1, 1.0, 1.0, 0.0, 1.0, netlist::CellFunction::kInv});
  report.merge(analyze::lint_cells(candidates));

  nlp::Problem p;
  p.add_variable(std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0,
                 "S_inverted");  // NLP001: empty box
  p.add_variable(1.0, 3.0, 1.0, "S_orphan");  // NLP003: referenced nowhere
  const int used = p.add_variable(1.0, 3.0, 1.0, "S_used");
  nlp::FunctionGroup objective;
  objective.linear.push_back({used, 1.0});
  p.set_objective(std::move(objective));
  nlp::FunctionGroup dead;
  dead.constant = 4.2;  // NLP005: "4.2 = 0", infeasible by construction
  p.add_equality(std::move(dead));
  report.merge(analyze::audit_nlp_problem(p, "demo instance", options.nlp));

  const std::vector<std::size_t> widths = {4, 0, 9, 0, 0, 2};  // GRF002 x3
  report.merge(analyze::audit_level_widths(widths));

  report.sort();
  return report;
}

int run_lint(int argc, char** argv) {
  util::ArgParser args(
      "statsize lint — static analysis of circuits, cell libraries, the timing graph and the "
      "sizing model's NLP instance");
  args.allow_positionals(
      "circuit inputs (BLIF/Verilog paths or builtin names); several are linted "
      "into one merged report with per-file loci");
  args.add_string("circuit", "tree|apex1|apex2|k2 or a BLIF/Verilog file path", "tree");
  args.add_string("json", "write the JSON report to this file ('-' for stdout)");
  args.add_double("kappa", "gate sigma model: sigma = kappa * mu + offset", 0.25);
  args.add_double("sigma-offset", "additive term of the gate sigma model", 0.0);
  args.add_double("max-speed", "upper sizing limit of the audited NLP instance", 3.0);
  args.add_double("theta-threshold", "flag Clark merges with theta below this", 1e-3);
  args.add_int("derivative-points", "random interior points per derivative sweep", 3);
  args.add_int("derivative-cap", "skip the derivative sweep above this many gates", 200);
  args.add_flag("no-model-audit",
                "structure, library and graph checks only; build no NLP instance");
  args.add_flag("force-derivative-audit", "run the derivative sweep regardless of size");
  args.add_flag("list-rules", "print the rule catalog and exit");
  args.add_flag("demo-defects",
                "lint deliberately broken inputs (circuit, cells, NLP instance, level "
                "histogram) to prove the gate fires");

  try {
    if (!args.parse(argc, argv)) return 0;

    if (args.get_flag("list-rules")) {
      std::printf("%-8s %-12s %-8s %-28s %s\n", "id", "family", "severity", "title", "detail");
      for (const analyze::RuleInfo& rule : analyze::rule_catalog()) {
        std::printf("%-8.*s %-12.*s %-8.*s %-28.*s %.*s\n",
                    static_cast<int>(rule.id.size()), rule.id.data(),
                    static_cast<int>(rule.category.size()), rule.category.data(),
                    static_cast<int>(severity_name(rule.severity).size()),
                    severity_name(rule.severity).data(),
                    static_cast<int>(rule.title.size()), rule.title.data(),
                    static_cast<int>(rule.detail.size()), rule.detail.data());
      }
      return 0;
    }

    analyze::LintOptions options;
    options.model.sigma_model = {args.get_double("kappa"), args.get_double("sigma-offset")};
    options.model.max_speed = args.get_double("max-speed");
    options.model.theta_threshold = args.get_double("theta-threshold");
    options.model.derivative_points = args.get_int("derivative-points");
    options.derivative_gate_cap = args.get_int("derivative-cap");
    options.model_audit = !args.get_flag("no-model-audit");
    options.force_derivative_audit = args.get_flag("force-derivative-audit");

    std::vector<std::string> inputs = args.positionals();
    if (inputs.empty()) inputs.push_back(args.get_string("circuit"));
    std::string target = inputs.size() == 1 ? inputs[0]
                                            : std::to_string(inputs.size()) + " inputs";
    // One input reports its graph and NLP analytics alongside the findings;
    // several merge into one report with per-file loci and nothing else.
    analyze::LintResult result;
    if (args.get_flag("demo-defects")) {
      target = "demo-defects";
      result.report = demo_defects_report(options);
    } else {
      for (const std::string& name : inputs) {
        analyze::LintResult one;
        if (name == "tree" || name == "apex1" || name == "apex2" || name == "k2") {
          netlist::Circuit circuit = load_circuit(name);
          one = analyze::lint_circuit(circuit, options);
        } else {
          one = analyze::lint_file(name, netlist::CellLibrary::standard(), options);
        }
        if (inputs.size() == 1) {
          result = std::move(one);
          break;
        }
        one.report.prefix_loci(name);
        result.report.merge(std::move(one.report));
      }
      result.report.sort();
    }

    // With --json - the machine-readable report owns stdout; the human
    // report moves to stderr so `statsize lint --json - | jq` works.
    const bool json_on_stdout = args.has("json") && args.get_string("json") == "-";
    std::ostream& human = json_on_stdout ? std::cerr : std::cout;
    human << "lint: " << target << "\n";
    result.print(human);

    if (args.has("json")) {
      const std::string path = args.get_string("json");
      if (path == "-") {
        result.write_json(std::cout, target);
      } else {
        std::ofstream out(path);
        if (!out) throw std::runtime_error("cannot write " + path);
        result.write_json(out, target);
        std::printf("wrote %s\n", path.c_str());
      }
    }
    return result.report.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n(use statsize lint --help for usage)\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "lint") {
    // Shift argv so the subcommand's parser sees its own flags at index 1.
    return run_lint(argc - 1, argv + 1);
  }
  if (argc >= 2) {
    // serve | ssta | submit | patch | poll | cancel (tools/statsize_serve_cli.cpp).
    const int code = tools::run_serve_family(argv[1], argc - 1, argv + 1);
    if (code >= 0) return code;
  }
  util::ArgParser args(
      "statsize — gate sizing under a statistical delay model (Jacobs & Berkelaar, DATE 2000)");
  args.add_string("circuit", "tree|apex1|apex2|k2 or a BLIF/Verilog file path", "tree");
  args.add_string("objective", "delay|area|power|sigma-min|sigma-max", "delay");
  args.add_double("sigma-weight", "k in the mu + k sigma delay objective", 0.0);
  args.add_double("max-delay", "constraint: mu + c-sigma-weight * sigma <= this");
  args.add_double("pin-delay", "constraint: mu pinned exactly to this value");
  args.add_double("constraint-sigma-weight", "sigma weight inside --max-delay", 0.0);
  args.add_string("method", "full|reduced|auto", "auto");
  args.add_double("max-speed", "upper sizing limit (the paper's `limit`)", 3.0);
  args.add_double("kappa", "gate sigma model: sigma = kappa * mu + offset", 0.25);
  args.add_double("sigma-offset", "additive term of the gate sigma model", 0.0);
  args.add_flag("nary-max", "full-space only: n-ary max elements (future-work mode)");
  args.add_flag("report", "print timing report, slacks and critical path");
  args.add_flag("canonical", "correlation-aware analysis in the report");
  args.add_int("mc", "verify with this many Monte Carlo samples", 0);
  args.add_string("sizes-out", "write per-gate speed factors to this TSV file");
  args.add_string("json-out", "write the full analysis as JSON to this file");
  args.add_flag("verbose", "solver progress output");
  args.add_int("jobs", "worker threads (0 = STATSIZE_JOBS or hardware)", 0);
  args.add_double("time-limit", "wall-clock solve budget in seconds (0 = unlimited)", 0.0);
  args.add_int("retries", "deterministic multistart retries after a breakdown/stall", 0);

  try {
    if (!args.parse(argc, argv)) return 0;
    if (const int jobs = args.get_int("jobs"); jobs > 0) runtime::set_threads(jobs);
    // STATSIZE_FAULT=<site>:<hit> arms the deterministic fault injector
    // (testing/chaos use; a no-op when unset).
    runtime::fault::arm_from_env();

    const netlist::Circuit circuit = load_circuit(args.get_string("circuit"));
    std::printf("circuit: %d gates, %d inputs, %zu outputs, depth %d\n", circuit.num_gates(),
                circuit.num_inputs(), circuit.outputs().size(), circuit.depth());

    core::SizingSpec spec;
    spec.max_speed = args.get_double("max-speed");
    spec.sigma_model = {args.get_double("kappa"), args.get_double("sigma-offset")};
    spec.nary_fanin_max = args.get_flag("nary-max");

    const std::string obj = args.get_string("objective");
    if (obj == "delay") {
      spec.objective = core::Objective::min_delay(args.get_double("sigma-weight"));
    } else if (obj == "area") {
      spec.objective = core::Objective::min_area();
    } else if (obj == "power") {
      spec.objective = core::Objective::min_weighted(ssta::power_weights(circuit));
    } else if (obj == "sigma-min") {
      spec.objective = core::Objective::min_sigma();
    } else if (obj == "sigma-max") {
      spec.objective = core::Objective::max_sigma();
    } else {
      throw std::invalid_argument("unknown objective '" + obj + "'");
    }
    if (args.has("max-delay")) {
      spec.delay_constraint = core::DelayConstraint::at_most(
          args.get_double("max-delay"), args.get_double("constraint-sigma-weight"));
    } else if (args.has("pin-delay")) {
      spec.delay_constraint = core::DelayConstraint::exactly(args.get_double("pin-delay"));
    }

    core::SizerOptions opt;
    const std::string method = args.get_string("method");
    if (method == "full") {
      opt.method = core::Method::kFullSpace;
    } else if (method == "reduced") {
      opt.method = core::Method::kReducedSpace;
    } else if (method == "auto") {
      opt.method = core::auto_method(circuit);
    } else {
      throw std::invalid_argument("unknown method '" + method + "'");
    }
    opt.verbose = args.get_flag("verbose");
    opt.time_limit_seconds = args.get_double("time-limit");
    opt.max_retries = args.get_int("retries");
    // Ctrl-C degrades gracefully: the solver polls this token and returns its
    // best checkpoint instead of dying mid-iterate (second Ctrl-C force-kills).
    runtime::install_interrupt_handlers();
    opt.cancel = &runtime::interrupt_token();
    if (opt.time_limit_seconds < 0.0) {
      throw std::invalid_argument("--time-limit: expected a value >= 0");
    }
    if (opt.max_retries < 0) {
      throw std::invalid_argument("--retries: expected a value >= 0");
    }

    std::printf("objective: %s%s%s, method: %s\n", spec.objective.description().c_str(),
                spec.delay_constraint ? ", s.t. " : "",
                spec.delay_constraint ? spec.delay_constraint->description().c_str() : "",
                method.c_str());

    const core::SizingResult r = core::Sizer(circuit, spec).run(opt);
    std::printf("\nstatus: %s (%.2f s, %d iterations)\n", r.status.c_str(), r.wall_seconds,
                r.iterations);
    std::printf("evaluations: %d values, %d gradients\n", r.value_evals, r.gradient_evals);
    if (r.retries_used > 0 || r.from_checkpoint || !r.breakdown_site.empty()) {
      std::printf("resilience: retries=%d%s%s%s\n", r.retries_used,
                  r.from_checkpoint ? ", returned best-iterate checkpoint" : "",
                  r.checkpoint_outer >= 0
                      ? (" (outer " + std::to_string(r.checkpoint_outer) + ")").c_str()
                      : "",
                  r.breakdown_site.empty() ? "" : (", tripwire: " + r.breakdown_site).c_str());
    }
    std::printf("result: mu=%.4f sigma=%.4f mu+3sigma=%.4f | sum S=%.2f area=%.2f\n",
                r.circuit_delay.mu, r.circuit_delay.sigma(), r.delay_metric(3.0), r.sum_speed,
                r.area);
    if (spec.delay_constraint) {
      std::printf("constraint violation: %.3e\n", r.constraint_violation);
    }

    if (args.get_flag("report")) print_report(circuit, spec, r, args.get_flag("canonical"));

    if (const int samples = args.get_int("mc"); samples > 0) {
      const ssta::DelayCalculator calc(circuit, spec.sigma_model);
      ssta::MonteCarloOptions mco;
      mco.num_samples = samples;
      const ssta::MonteCarloResult mc =
          ssta::run_monte_carlo(circuit, calc.all_delays(r.speed), mco);
      std::printf("\nMonte Carlo (%d samples): mean=%.4f stddev=%.4f p99=%.4f\n", samples,
                  mc.mean, mc.stddev, mc.quantile(0.99));
      if (spec.delay_constraint && !spec.delay_constraint->equality) {
        std::printf("realized yield at %.3f: %.2f%%\n", spec.delay_constraint->bound,
                    100.0 * mc.yield(spec.delay_constraint->bound));
      }
    }

    if (args.has("json-out")) {
      const std::string path = args.get_string("json-out");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      ssta::JsonReportOptions jopt;
      jopt.include_canonical = args.get_flag("canonical");
      if (spec.delay_constraint) jopt.deadline = spec.delay_constraint->bound;
      ssta::SolveReport sr;
      sr.status = r.status;
      sr.converged = r.converged;
      sr.iterations = r.iterations;
      sr.wall_seconds = r.wall_seconds;
      sr.retries_used = r.retries_used;
      sr.from_checkpoint = r.from_checkpoint;
      sr.checkpoint_outer = r.checkpoint_outer;
      sr.breakdown_site = r.breakdown_site;
      jopt.solve = std::move(sr);
      const ssta::DelayCalculator calc(circuit, spec.sigma_model);
      ssta::write_json_report(out, circuit, calc, r.speed, jopt);
      std::printf("wrote %s\n", path.c_str());
    }

    if (args.has("sizes-out")) {
      const std::string path = args.get_string("sizes-out");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      out << "# gate\tcell\tspeed_factor\n";
      for (netlist::NodeId id : circuit.topo_order()) {
        if (circuit.node(id).kind != netlist::NodeKind::kGate) continue;
        out << circuit.node(id).name << "\t" << circuit.cell_of(id).name << "\t"
            << r.speed[static_cast<std::size_t>(id)] << "\n";
      }
      std::printf("wrote %s\n", path.c_str());
    }
    return r.converged ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n(use --help for usage)\n", e.what());
    return 1;
  }
}
