#include "serve_cli.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "netlist/blif.h"
#include "netlist/generators.h"
#include "runtime/runtime.h"
#include "runtime/signal.h"
#include "serve/client.h"
#include "serve/server.h"
#include "ssta/delay_model.h"
#include "ssta/ssta.h"
#include "util/args.h"
#include "util/json.h"

namespace statsize::tools {

namespace {

bool is_builtin(const std::string& name) {
  return name == "tree" || name == "apex1" || name == "apex2" || name == "k2";
}

/// Circuit text + format for an upload: builtin generators are serialized to
/// BLIF so the daemon parses exactly what the CLI would; files are shipped
/// verbatim (format from the extension).
struct CircuitText {
  std::string text;
  std::string format;
};

CircuitText circuit_text_for(const std::string& name) {
  CircuitText out;
  if (is_builtin(name)) {
    netlist::Circuit circuit = name == "tree" ? netlist::make_tree_circuit()
                                              : netlist::make_mcnc_like(name);
    std::ostringstream os;
    netlist::write_blif(os, circuit, name);
    out.text = os.str();
    out.format = "blif";
    return out;
  }
  std::ifstream in(name);
  if (!in) throw std::runtime_error("cannot read circuit file: " + name);
  std::ostringstream os;
  os << in.rdbuf();
  out.text = os.str();
  out.format =
      name.size() > 2 && name.rfind(".v") == name.size() - 2 ? "verilog" : "blif";
  return out;
}

netlist::Circuit load_local_circuit(const std::string& name) {
  if (name == "tree") return netlist::make_tree_circuit();
  if (is_builtin(name)) return netlist::make_mcnc_like(name);
  return netlist::read_blif_file(name);
}

/// The machine-comparable result line both `statsize ssta` and
/// `statsize submit --wait` print; %.17g round-trips doubles exactly, so the
/// serve smoke gate can assert bit-identity by comparing these lines.
void print_delay_line(double mu, double sigma, double mu3) {
  std::printf("circuit delay: mu=%.17g sigma=%.17g mu+3sigma=%.17g\n", mu, sigma, mu3);
}

int run_serve(int argc, char** argv) {
  util::ArgParser args("statsize serve — HTTP daemon over the timing/sizing engines");
  args.add_int("port", "listen port on 127.0.0.1 (0 = ephemeral, printed at start)", 0);
  args.add_int("io-threads", "concurrent keep-alive connections served", 8);
  args.add_int("cache-capacity", "circuits kept in the LRU cache", 16);
  args.add_int("queue-depth", "queued monte_carlo/size jobs before they get 429", 64);
  args.add_string("stats-out", "write final /v1/stats JSON here on shutdown ('-' = stdout)");
  args.add_string("journal", "durable job journal directory (crash recovery; see DESIGN.md §13)");
  args.add_string("journal-fsync", "journal durability: none | always", "none");
  args.add_int("jobs", "worker threads, and jobs run at once (0 = STATSIZE_JOBS or hardware)",
               0);
  if (!args.parse(argc, argv)) return 0;
  if (const int jobs = args.get_int("jobs"); jobs > 0) runtime::set_threads(jobs);

  serve::ServerOptions options;
  options.port = args.get_int("port");
  options.io_threads = args.get_int("io-threads");
  options.cache_capacity = static_cast<std::size_t>(args.get_int("cache-capacity"));
  options.scheduler.queue_depth = static_cast<std::size_t>(args.get_int("queue-depth"));
  if (args.has("journal")) options.journal_dir = args.get_string("journal");
  options.journal_fsync = serve::parse_fsync_policy(args.get_string("journal-fsync"));

  runtime::install_interrupt_handlers();
  serve::Server server(options);
  server.start();
  std::printf("statsize serve: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!runtime::interrupt_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Flip readiness before tearing anything down: load balancers polling
  // /v1/readyz see 503 + Retry-After while in-flight jobs finish draining.
  server.begin_drain();
  std::fprintf(stderr, "statsize serve: signal %d, draining...\n",
               runtime::interrupt_signal());
  server.stop();

  if (args.has("stats-out")) {
    const std::string path = args.get_string("stats-out");
    if (path == "-") {
      server.metrics().write_json(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      server.metrics().write_json(out);
      out << "\n";
      std::printf("wrote %s\n", path.c_str());
    }
  }
  std::printf("statsize serve: stopped\n");
  return 0;
}

int run_ssta(int argc, char** argv) {
  util::ArgParser args(
      "statsize ssta — one-shot statistical timing analysis (no sizing). The "
      "result line uses %.17g so served answers can be compared bit-for-bit.");
  args.add_string("circuit", "tree|apex1|apex2|k2 or a BLIF file path", "tree");
  args.add_double("kappa", "gate sigma model: sigma = kappa * mu + offset", 0.25);
  args.add_double("sigma-offset", "additive term of the gate sigma model", 0.0);
  args.add_double("speed", "uniform speed factor applied to every gate", 1.0);
  args.add_int("jobs", "worker threads (0 = STATSIZE_JOBS or hardware)", 0);
  if (!args.parse(argc, argv)) return 0;
  if (const int jobs = args.get_int("jobs"); jobs > 0) runtime::set_threads(jobs);

  const netlist::Circuit circuit = load_local_circuit(args.get_string("circuit"));
  const ssta::DelayCalculator calc(
      circuit, {args.get_double("kappa"), args.get_double("sigma-offset")});
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()),
                                  args.get_double("speed"));
  const ssta::TimingReport report = ssta::run_ssta(calc, speed);
  print_delay_line(report.circuit_delay.mu, report.circuit_delay.sigma(),
                   report.circuit_delay.quantile_offset(3.0));
  return 0;
}

/// Exit codes for submit --wait / poll: 0 done, 3 cancelled, 4 failed,
/// 5 interrupted (daemon crashed mid-run; the job is safe to re-submit).
int report_job_document(const util::JsonValue& doc) {
  const std::string state = doc.string_or("state", "?");
  std::printf("job %s: %s\n", doc.string_or("id", "?").c_str(), state.c_str());
  if (const util::JsonValue* result = doc.find("result"); result && result->is_object()) {
    if (const util::JsonValue* mu = result->find("mu"); mu && mu->is_number()) {
      print_delay_line(mu->as_number(), result->number_or("sigma", 0.0),
                       result->number_or("mu_plus_3sigma", 0.0));
    }
    const std::string status = result->string_or("status", "");
    if (!status.empty()) {
      std::printf("status: %s%s\n", status.c_str(),
                  result->bool_or("from_checkpoint", false) ? " (checkpoint)" : "");
    }
  }
  const util::JsonValue* error = doc.find("error");
  if (error && error->is_string()) {
    std::printf("error: %s\n", error->as_string().c_str());
  }
  if (state == "done") return 0;
  if (state == "cancelled") return 3;
  if (state == "failed") return 4;
  if (state == "interrupted") {
    std::printf("hint: the daemon crashed while this job was running; re-submit it\n");
    return 5;
  }
  return 0;
}

/// Shared resilience flags for the client-side subcommands. `prefix` lets
/// submit avoid colliding with its size-job `--retries` (multistart) flag.
void add_client_flags(util::ArgParser& args, const char* retries_flag) {
  args.add_int(retries_flag, "transport/backpressure retries (0 = fail fast)", 0);
  args.add_double("backoff-ms", "base retry delay; doubles per attempt, jittered", 100.0);
}

serve::ClientOptions client_options_from(const util::ArgParser& args,
                                         const char* retries_flag) {
  serve::ClientOptions options;
  options.retries = args.get_int(retries_flag);
  options.backoff_ms = args.get_double("backoff-ms");
  return options;
}

int run_submit(int argc, char** argv) {
  util::ArgParser args(
      "statsize submit — upload a circuit to a statsize serve daemon and submit a job");
  args.add_string("host", "daemon host", "127.0.0.1");
  args.add_int("port", "daemon port");
  args.add_string("circuit", "tree|apex1|apex2|k2 or a BLIF/Verilog file path", "tree");
  args.add_string("type", "ssta | sta | monte_carlo | size", "ssta");
  args.add_double("deadline-ms", "per-job wall-clock budget (0 = unlimited)", 0.0);
  args.add_double("kappa", "gate sigma model: sigma = kappa * mu + offset", 0.25);
  args.add_double("sigma-offset", "additive term of the gate sigma model", 0.0);
  args.add_double("speed", "uniform speed factor (analysis jobs)", 1.0);
  args.add_string("corner", "sta: best | typical | worst", "worst");
  args.add_int("samples", "monte_carlo: sample count", 10000);
  args.add_int("seed", "monte_carlo: base seed", 1);
  args.add_string("objective", "size: delay | area", "delay");
  args.add_double("sigma-weight", "size: k in mu + k sigma", 3.0);
  args.add_double("max-delay", "size: delay constraint bound (0 = none)", 0.0);
  args.add_double("constraint-sigma-weight", "size: sigma weight inside --max-delay", 0.0);
  args.add_string("method", "size: full | reduced", "reduced");
  args.add_double("max-speed", "size: upper sizing limit", 3.0);
  args.add_int("retries", "size: deterministic multistart retries", 0);
  args.add_int("job-threads", "worker threads on the daemon for this job (0 = leave)", 0);
  args.add_flag("wait", "poll until the job finishes and print the result");
  args.add_double("timeout", "--wait: give up after this many seconds (0 = forever)", 0.0);
  args.add_string("idempotency-key",
                  "dedup token: retrying with the same key never double-submits");
  add_client_flags(args, "http-retries");  // --retries already means size multistart
  if (!args.parse(argc, argv)) return 0;
  if (!args.has("port")) throw std::invalid_argument("--port is required");

  const CircuitText circuit = circuit_text_for(args.get_string("circuit"));
  serve::Client client(args.get_string("host"), args.get_int("port"),
                       client_options_from(args, "http-retries"));
  const std::string key =
      client.upload(circuit.text, circuit.format, args.get_string("circuit"));
  std::fprintf(stderr, "uploaded %s -> %s\n", args.get_string("circuit").c_str(),
               key.c_str());

  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("circuit").value(key);
  w.key("type").value(args.get_string("type"));
  w.key("deadline_ms").value(args.get_double("deadline-ms"));
  w.key("jobs").value(args.get_int("job-threads"));
  w.key("sigma_kappa").value(args.get_double("kappa"));
  w.key("sigma_offset").value(args.get_double("sigma-offset"));
  w.key("speed").value(args.get_double("speed"));
  w.key("corner").value(args.get_string("corner"));
  w.key("samples").value(args.get_int("samples"));
  w.key("seed").value(args.get_int("seed"));
  w.key("objective").value(args.get_string("objective"));
  w.key("sigma_weight").value(args.get_double("sigma-weight"));
  w.key("max_delay").value(args.get_double("max-delay"));
  w.key("constraint_sigma_weight").value(args.get_double("constraint-sigma-weight"));
  w.key("method").value(args.get_string("method"));
  w.key("max_speed").value(args.get_double("max-speed"));
  w.key("max_retries").value(args.get_int("retries"));
  w.end_object();

  const std::string id = client.submit(
      os.str(), args.has("idempotency-key") ? args.get_string("idempotency-key")
                                            : std::string());
  std::printf("submitted %s\n", id.c_str());
  if (!args.get_flag("wait")) return 0;
  return report_job_document(client.wait(id, 0.05, args.get_double("timeout")));
}

int run_patch(int argc, char** argv) {
  util::ArgParser args(
      "statsize patch — derive an edited circuit entry on a serve daemon (ECO). "
      "The daemon answers with a derived cache key (<base>+e-<hash>) that later "
      "jobs target; size jobs on it warm-start from the base entry's last "
      "solution. One edit is given with --node plus field flags; multi-gate "
      "batches pass a raw JSON edit array via --edits.");
  args.allow_positionals("base circuit key (c-NNN... or an already-derived key)");
  args.add_string("host", "daemon host", "127.0.0.1");
  args.add_int("port", "daemon port");
  args.add_int("node", "gate NodeId to edit (single-edit form)");
  args.add_double("speed", "new speed factor for --node (per-query, not cached in the view)");
  args.add_double("t-int", "new intrinsic delay for --node");
  args.add_double("drive-c", "new drive constant c for --node");
  args.add_double("c-in", "new input pin capacitance for --node");
  args.add_double("area", "new area for --node");
  args.add_string("edits", "raw JSON edit array, e.g. '[{\"node\":5,\"t_int\":2.5}]'");
  args.add_string("name", "display name for the derived entry (default: base name)");
  args.add_flag("raw", "print the raw JSON response instead of the summary");
  if (!args.parse(argc, argv)) return 0;
  if (!args.has("port")) throw std::invalid_argument("--port is required");
  if (args.positionals().size() != 1) {
    throw std::invalid_argument("expected exactly one circuit key");
  }

  std::ostringstream body;
  if (args.has("edits")) {
    if (args.has("node")) {
      throw std::invalid_argument("--edits and --node are mutually exclusive");
    }
    // Round-trip through the parser so a malformed array fails here with a
    // local message instead of a 400 from the daemon.
    const util::JsonValue edits = util::parse_json(args.get_string("edits"));
    if (!edits.is_array()) throw std::invalid_argument("--edits must be a JSON array");
    body << "{\"edits\": " << args.get_string("edits");
    if (args.has("name")) {
      body << ", \"name\": \"" << util::JsonWriter::escape(args.get_string("name"))
           << "\"";
    }
    body << "}";
  } else {
    if (!args.has("node")) throw std::invalid_argument("need --node or --edits");
    util::JsonWriter w(body);
    w.begin_object();
    if (args.has("name")) w.key("name").value(args.get_string("name"));
    w.key("edits").begin_array();
    w.begin_object();
    w.key("node").value(args.get_int("node"));
    struct Field { const char* flag; const char* field; };
    const Field fields[] = {{"speed", "speed"}, {"t-int", "t_int"}, {"drive-c", "c"},
                            {"c-in", "c_in"}, {"area", "area"}};
    for (const Field& f : fields) {
      if (args.has(f.flag)) w.key(f.field).value(args.get_double(f.flag));
    }
    w.end_object();
    w.end_array();
    w.end_object();
  }

  serve::Client client(args.get_string("host"), args.get_int("port"));
  const serve::ApiResult result = client.request(
      "PATCH", "/v1/circuits/" + args.positionals()[0], body.str());
  if (!result.ok()) {
    std::fprintf(stderr, "error (%d): %s\n", result.status, result.body.c_str());
    return 1;
  }
  if (args.get_flag("raw")) {
    std::printf("%s\n", result.body.c_str());
    return 0;
  }
  const util::JsonValue doc = result.json();
  std::printf("%s %s -> %s (%ld edit(s), %ld total on this lineage)\n",
              result.status == 200 ? "cached" : "derived",
              doc.string_or("base", "?").c_str(), doc.string_or("key", "?").c_str(),
              static_cast<long>(doc.number_or("edits_applied", 0.0)),
              static_cast<long>(doc.number_or("num_edits", 0.0)));
  return 0;
}

int run_poll(int argc, char** argv) {
  util::ArgParser args("statsize poll — print one job document from a serve daemon");
  args.allow_positionals("job id (job-NNNNNN)");
  args.add_string("host", "daemon host", "127.0.0.1");
  args.add_int("port", "daemon port");
  args.add_flag("raw", "print the raw JSON document instead of the summary");
  add_client_flags(args, "retries");
  if (!args.parse(argc, argv)) return 0;
  if (!args.has("port")) throw std::invalid_argument("--port is required");
  if (args.positionals().size() != 1) {
    throw std::invalid_argument("expected exactly one job id");
  }
  serve::Client client(args.get_string("host"), args.get_int("port"),
                       client_options_from(args, "retries"));
  serve::ApiResult result = client.job(args.positionals()[0]);
  if (!result.ok()) {
    std::fprintf(stderr, "error (%d): %s\n", result.status, result.body.c_str());
    return 1;
  }
  if (args.get_flag("raw")) {
    std::printf("%s\n", result.body.c_str());
    return 0;
  }
  return report_job_document(result.json());
}

int run_cancel(int argc, char** argv) {
  util::ArgParser args("statsize cancel — cooperatively cancel a job on a serve daemon");
  args.allow_positionals("job id (job-NNNNNN)");
  args.add_string("host", "daemon host", "127.0.0.1");
  args.add_int("port", "daemon port");
  add_client_flags(args, "retries");
  if (!args.parse(argc, argv)) return 0;
  if (!args.has("port")) throw std::invalid_argument("--port is required");
  if (args.positionals().size() != 1) {
    throw std::invalid_argument("expected exactly one job id");
  }
  serve::Client client(args.get_string("host"), args.get_int("port"),
                       client_options_from(args, "retries"));
  serve::ApiResult result = client.cancel(args.positionals()[0]);
  std::printf("%s\n", result.body.c_str());
  return result.ok() ? 0 : 1;
}

}  // namespace

int run_serve_family(const std::string& cmd, int argc, char** argv) {
  try {
    if (cmd == "serve") return run_serve(argc, argv);
    if (cmd == "ssta") return run_ssta(argc, argv);
    if (cmd == "submit") return run_submit(argc, argv);
    if (cmd == "patch") return run_patch(argc, argv);
    if (cmd == "poll") return run_poll(argc, argv);
    if (cmd == "cancel") return run_cancel(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n(use statsize %s --help for usage)\n", e.what(),
                 cmd.c_str());
    return 1;
  }
  return -1;
}

}  // namespace statsize::tools
