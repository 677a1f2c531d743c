// The statsize benchmark program: runs one named workload against the public
// entry points of netlist, ssta, core, nlp, runtime and serve, checks every
// output, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md defines every workload and metric;
// perfbench/run.py builds this binary from source and runs it.
//
//   statsize_perfbench --workload size_k2_reduced --seed 7 --seconds 20 --trace 0
//
// The program runs at its default thread setting. The only
// runtime::set_threads call is the traced run's single-thread reference
// solve (runtime.jobs1_solve_s), which restores the setting afterwards.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/full_space.h"
#include "core/reduced_space.h"
#include "core/sizer.h"
#include "netlist/blif.h"
#include "netlist/generators.h"
#include "nlp/auglag.h"
#include "runtime/runtime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "ssta/delay_model.h"
#include "ssta/incremental.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"
#include "trace.h"

namespace {

using namespace statsize;
using perfbench::now_ns;
using perfbench::Scope;
using perfbench::SpanLog;

// ---------------------------------------------------------------------------
// Command line, statistics, results
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of a traced run; empty = not written
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

double seconds_since(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

/// Linearly interpolated p-quantile; NaN for an empty sample.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

bool bits_equal(const stat::NormalRV& a, const stat::NormalRV& b) {
  return a.mu == b.mu && a.var == b.var;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Deterministic draws from the workload seed (mt19937_64 is specified by the
/// standard, and the mappings below are written out, so a seed names the
/// same inputs on every platform).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  double unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(engine_() % n); }
  std::uint64_t next() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Operations attempted and failed in one run.
struct Tally {
  long attempted = 0;
  long failed = 0;

  /// Counts one operation; a failed check is reported on stderr (first few).
  void op(bool ok, const std::string& detail = {}) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "check failed: %s\n", detail.c_str());
  }

  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// All span logs of a traced run: one per thread that calls into statsize.
/// Logs are created on the main thread before any worker starts.
class Trace {
 public:
  SpanLog* new_log() {
    logs_.push_back(std::make_unique<SpanLog>(static_cast<int>(logs_.size())));
    return logs_.back().get();
  }
  std::vector<const SpanLog*> logs() const {
    std::vector<const SpanLog*> out;
    for (const auto& l : logs_) out.push_back(l.get());
    return out;
  }
  std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& l : logs_) n += l->spans().size();
    return n;
  }

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Set-up is timed several times per run and its median reported. Its time
// drifts with the host's state over seconds, so the in-process workloads
// repeat it throughout the measured loop (each sizing operation sets up its
// own instance, then times kSetupRepsPerSolve more set-ups; timing_eco_k2
// sets up again four times a second) rather than in one burst; serve repeats
// server start and upload before and after its loop.
constexpr double kSetupEverySeconds = 0.25;
constexpr int kSetupRepsPerSolve = 4;
constexpr int kServeSetupReps = 21;

/// Clock of a measured loop that also repeats the workload's set-up: each
/// repeat is timed on its own and left out of the loop's time.
class LoopClock {
 public:
  double seconds() const { return static_cast<double>(now_ns() - start_ - excluded_) * 1e-9; }

  /// Runs `set_up` once, appends its time to `setup_s`, and drops its result
  /// outside the timed part.
  template <class SetUp>
  void repeat_setup(const SetUp& set_up, std::vector<double>& setup_s) {
    const std::int64_t t0 = now_ns();
    {
      const auto result = set_up();
      setup_s.push_back(seconds_since(t0));
    }
    excluded_ += now_ns() - t0;
  }

 private:
  std::int64_t start_ = now_ns();
  std::int64_t excluded_ = 0;
};

// ---------------------------------------------------------------------------
// Sizing workloads: cold Sizer::run solves of one Table 1 row
// ---------------------------------------------------------------------------

struct SizingCase {
  const char* circuit;
  core::Method method;
  bool area_under_deadline;  ///< row 7 (min sum S s.t. mu+3sigma <= D); else row 4 (min mu+3sigma)
  double pinned_objective;   ///< sum S (row 7) or mu+3sigma (row 4) of the seed's solve
};

// Pinned from this commit's solves (RelWithDebInfo, x86-64); a solve must land
// within 1e-6 relative of these.
constexpr SizingCase kK2Reduced{"k2", core::Method::kReducedSpace, true, 1715.7051809721615};
constexpr SizingCase kApex2Full{"apex2", core::Method::kFullSpace, false, 56.415020175301237};
constexpr double kObjectiveRelTol = 1e-6;

struct SizingInstance {
  netlist::Circuit circuit;
  core::SizingSpec spec;
};

SizingInstance make_sizing_instance(const SizingCase& c) {
  SizingInstance inst{netlist::make_mcnc_like(c.circuit), {}};
  if (c.area_under_deadline) {
    // D at 45% of the mean-delay range between the all-fastest and the
    // all-slowest uniform sizing, rounded to 0.1 as Table 1 prints it (140.3
    // on k2).
    const ssta::DelayCalculator calc(inst.circuit, inst.spec.sigma_model);
    std::vector<double> s(static_cast<std::size_t>(inst.circuit.num_nodes()),
                          inst.spec.max_speed);
    const double lo = ssta::run_ssta(calc, s).circuit_delay.mu;
    std::fill(s.begin(), s.end(), 1.0);
    const double hi = ssta::run_ssta(calc, s).circuit_delay.mu;
    inst.spec.objective = core::Objective::min_area();
    const double deadline = std::round(10.0 * (lo + 0.45 * (hi - lo))) / 10.0;
    inst.spec.delay_constraint = core::DelayConstraint::at_most(deadline, 3.0);
  } else {
    inst.spec.objective = core::Objective::min_delay(3.0);
  }
  return inst;
}

double objective_of(const SizingCase& c, const core::SizingResult& r) {
  return c.area_under_deadline ? r.sum_speed : r.delay_metric(3.0);
}

/// The output checks of one solve; empty when it passes.
std::string check_solve(const SizingCase& c, const SizingInstance& inst,
                        const core::SizingResult& r, const core::SizerOptions& opts) {
  if (!r.converged) return std::string(c.circuit) + " solve ended " + r.status;
  // The sizer's own feasibility test: tolerance scaled by the bound.
  const double bound = inst.spec.delay_constraint ? inst.spec.delay_constraint->bound : 0.0;
  if (!(r.constraint_violation <= opts.feasibility_tol * (1.0 + std::abs(bound)))) {
    return std::string(c.circuit) + " constraint violated by " +
           std::to_string(r.constraint_violation);
  }
  const double obj = objective_of(c, r);
  if (!(std::abs(obj - c.pinned_objective) <= kObjectiveRelTol * std::abs(c.pinned_objective))) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s objective %.17g differs from pinned %.17g", c.circuit,
                  obj, c.pinned_objective);
    return buf;
  }
  return {};
}

struct SizingRun {
  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> cold_op_s;  ///< set-up + solve of each operation
  double loop_s = 0.0;
  double objective = 0.0;
  int iterations = 0;
  int outer_iterations = 0;
};

/// One caller repeating cold solves: each operation sets up its instance
/// (generation, which finalizes, and the deadline sweeps) and solves it, so
/// the loop's time, and with it solves_per_s, includes the set-up. After each
/// solve the set-up is timed kSetupRepsPerSolve more times, outside the
/// loop's time, so setup_s is a median of many samples.
SizingRun run_sizing(const Options& opt, const SizingCase& c, SpanLog* log, Tally& tally) {
  SizingRun run;
  runtime::global_pool();
  core::SizerOptions opts;
  opts.method = c.method;
  LoopClock clock;
  do {
    for (int rep = 0; rep < kSetupRepsPerSolve && !run.solve_s.empty(); ++rep) {
      clock.repeat_setup([&] { return make_sizing_instance(c); }, run.setup_s);
    }
    if (log != nullptr) log->next_op();
    const std::int64_t t0 = now_ns();
    const SizingInstance inst = make_sizing_instance(c);
    run.setup_s.push_back(seconds_since(t0));
    const std::int64_t t1 = now_ns();
    core::SizingResult r;
    {
      Scope span(log, "core.Sizer::run");
      r = core::Sizer(inst.circuit, inst.spec).run(opts);
    }
    run.solve_s.push_back(seconds_since(t1));
    run.cold_op_s.push_back(seconds_since(t0));
    const std::string why = check_solve(c, inst, r, opts);
    tally.op(why.empty(), why);
    run.objective = objective_of(c, r);
    run.iterations = r.iterations;
    run.outer_iterations = r.outer_iterations;
  } while (clock.seconds() < opt.seconds);
  run.loop_s = clock.seconds();
  return run;
}

// ---------------------------------------------------------------------------
// timing_eco_k2: an analysis session on the k2 DAG with no optimizer
// ---------------------------------------------------------------------------

// Edits and re-sweeps are drawn in equal shares, the convention of
// bench/serve_throughput's mixed mix; every 500th operation is instead an
// occasional Monte Carlo yield check. The run prints the measured share of
// loop time each operation type takes (share.edit, share.sweep, share.mc).
constexpr int kMcTrials = 1024;  // 4 chunks of 256 trials: parallel work for the pool
constexpr int kMcEvery = 500;
constexpr double kEditShare = 0.5;

struct EcoSession {
  std::unique_ptr<ssta::IncrementalEngine> engine;
  std::unique_ptr<ssta::DelayCalculator> calc;  ///< bound to engine->view()
};

/// k2 at seeded gate speeds in [1, 2], with a primed incremental engine.
EcoSession make_eco_session(std::uint64_t seed) {
  const netlist::Circuit k2 = netlist::make_mcnc_like("k2");
  const netlist::TimingView& view = k2.view();
  Rng rng(seed);
  std::vector<double> speed(static_cast<std::size_t>(view.num_nodes()), 1.0);
  for (const netlist::NodeId g : view.gates_in_topo_order()) {
    speed[static_cast<std::size_t>(g)] = 1.0 + rng.unit();
  }
  EcoSession s;
  s.engine = std::make_unique<ssta::IncrementalEngine>(view, std::move(speed));
  s.calc = std::make_unique<ssta::DelayCalculator>(s.engine->view(), s.engine->sigma_model());
  return s;
}

/// The engine's cached state against a full sweep at its current speeds.
bool sweep_matches(const ssta::IncrementalEngine& engine, const ssta::TimingReport& full) {
  if (full.arrival.size() != engine.arrivals().size()) return false;
  for (std::size_t i = 0; i < full.arrival.size(); ++i) {
    if (!bits_equal(full.arrival[i], engine.arrivals()[i])) return false;
  }
  return bits_equal(full.circuit_delay, engine.tmax());
}

/// A full re-sweep at the engine's current speeds.
ssta::TimingReport full_sweep(const EcoSession& s, SpanLog* log) {
  std::vector<stat::NormalRV> delays;
  {
    Scope span(log, "ssta.DelayCalculator::all_delays");
    delays = s.calc->all_delays(s.engine->speed());
  }
  Scope span(log, "ssta.run_ssta");
  return ssta::run_ssta(s.engine->view(), delays);
}

/// A kMcTrials-trial Monte Carlo run at the engine's current speeds.
ssta::MonteCarloResult monte_carlo(const EcoSession& s, std::uint64_t seed, SpanLog* log) {
  std::vector<stat::NormalRV> delays;
  {
    Scope span(log, "ssta.DelayCalculator::all_delays");
    delays = s.calc->all_delays(s.engine->speed());
  }
  ssta::MonteCarloOptions mc;
  mc.num_samples = kMcTrials;
  mc.seed = seed;
  Scope span(log, "ssta.run_monte_carlo", kMcTrials);
  return ssta::run_monte_carlo(s.engine->view(), delays, mc);
}

struct EditSample {
  double us;
  double cone_gates;
};

/// One seeded single-gate speed edit; returns its wall time and cone.
EditSample eco_edit(EcoSession& s, Rng& rng, SpanLog* log, Tally& tally) {
  const std::vector<netlist::NodeId>& gates = s.engine->view().gates_in_topo_order();
  const netlist::NodeId g = gates[rng.below(gates.size())];
  const double speed = 1.0 + 2.0 * rng.unit();
  const std::int64_t t0 = now_ns();
  stat::NormalRV tmax;
  {
    Scope span(log, "ssta.IncrementalEngine::apply_edits");
    tmax = s.engine->apply_edits({ssta::TimingEdit::set_speed(g, speed)});
  }
  const double us = static_cast<double>(now_ns() - t0) * 1e-3;
  tally.op(bits_equal(tmax, s.engine->tmax()) &&
               s.engine->speed()[static_cast<std::size_t>(g)] == speed,
           "edit did not take effect");
  return {us, static_cast<double>(s.engine->last_arrival_recomputes())};
}

struct EcoRun {
  std::vector<double> setup_s;
  std::vector<double> edit_us;
  std::vector<double> cone_gates;
  std::vector<double> sweep_us;
  std::vector<double> mc_ms;
  double loop_s = 0.0;
};

EcoRun run_eco(const Options& opt, SpanLog* log, Tally& tally) {
  EcoRun run;
  const std::int64_t t0 = now_ns();
  EcoSession s = make_eco_session(opt.seed);
  runtime::global_pool();
  run.setup_s.push_back(seconds_since(t0));

  Rng rng(opt.seed ^ 0x9E3779B97F4A7C15ull);
  LoopClock clock;
  double next_setup_s = kSetupEverySeconds;
  for (long i = 0; i == 0 || clock.seconds() < opt.seconds; ++i) {
    if (clock.seconds() >= next_setup_s) {
      clock.repeat_setup([&] { return make_eco_session(opt.seed); }, run.setup_s);
      next_setup_s += kSetupEverySeconds;
    }
    if (log != nullptr) log->next_op();
    if (i % kMcEvery == 0) {
      // Yield check at the current speeds.
      const std::int64_t op0 = now_ns();
      const ssta::MonteCarloResult r = monte_carlo(s, rng.next(), log);
      run.mc_ms.push_back(static_cast<double>(now_ns() - op0) * 1e-6);
      const double mu = s.engine->tmax().mu;
      tally.op(r.samples.size() == static_cast<std::size_t>(kMcTrials) &&
                   std::isfinite(r.mean) && std::abs(r.mean - mu) <= 0.25 * mu,
               "Monte Carlo mean " + std::to_string(r.mean) + " vs SSTA " + std::to_string(mu));
    } else if (rng.unit() < kEditShare) {
      const EditSample e = eco_edit(s, rng, log, tally);
      run.edit_us.push_back(e.us);
      run.cone_gates.push_back(e.cone_gates);
    } else {
      // Full re-sweep at the current speeds; must equal the engine's caches.
      const std::int64_t op0 = now_ns();
      const ssta::TimingReport full = full_sweep(s, log);
      run.sweep_us.push_back(static_cast<double>(now_ns() - op0) * 1e-3);
      tally.op(sweep_matches(*s.engine, full), "sweep differs from the engine's cached arrivals");
    }
  }
  run.loop_s = clock.seconds();
  return run;
}

// ---------------------------------------------------------------------------
// serve_mixed: an in-process daemon on loopback, 4 closed-loop clients
// ---------------------------------------------------------------------------

// The job mix is bench/serve_throughput's "mixed" mix: ssta, sta,
// monte_carlo (2000 samples) and reduced size in equal shares. About one
// operation in 20 is instead a PATCH followed by an ssta job on the derived
// key.
constexpr int kServeClients = 4;
constexpr double kPatchShare = 0.05;
constexpr int kServeMcSamples = 2000;
constexpr int kPollMicros = 200;  // well under the ~10 ms size and ~2 ms MC jobs
const char* const kServeJobTypes[] = {"ssta", "sta", "monte_carlo", "size"};

struct ServeSession {
  netlist::Circuit reference;  ///< the uploaded text parsed in process
  std::unique_ptr<serve::Server> server;
  std::string key;
};

ServeSession make_serve_session() {
  std::ostringstream text;
  netlist::write_blif(text, netlist::make_mcnc_like("apex2"), "apex2");
  std::istringstream in(text.str());
  ServeSession s{netlist::read_blif(in), nullptr, {}};
  s.server = std::make_unique<serve::Server>();
  s.server->start();
  serve::Client admin("127.0.0.1", s.server->port());
  s.key = admin.upload(text.str(), "blif", "apex2");
  return s;
}

/// In-process SSTA of the uploaded circuit at speed 1 with optional overrides
/// — what a served ssta job on that key must return to the bit.
stat::NormalRV reference_ssta(const netlist::Circuit& c,
                              const std::vector<std::pair<netlist::NodeId, double>>& edits) {
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  for (const auto& [node, s] : edits) speed[static_cast<std::size_t>(node)] = s;
  return ssta::run_ssta(ssta::DelayCalculator(c), speed).circuit_delay;
}

struct JobSample {
  std::string type;
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  int polls = 0;
};

struct ServeClientRun {
  Tally tally;
  std::vector<JobSample> jobs;
  double end_s = 0.0;  ///< when the client's last operation finished
};

/// Submits one job and polls it to the end; returns the final job document.
util::JsonValue run_job(serve::Client& client, const std::string& body, const std::string& type,
                        SpanLog* log, ServeClientRun& out) {
  JobSample sample;
  sample.type = type;
  const std::int64_t t0 = now_ns();
  std::string id;
  {
    Scope span(log, "serve.Client::submit");
    id = client.submit(body);
  }
  util::JsonValue doc;
  for (;;) {
    serve::ApiResult r;
    {
      Scope span(log, "serve.Client::job");
      r = client.job(id);
    }
    ++sample.polls;
    if (!r.ok()) throw std::runtime_error("poll " + id + " answered " + std::to_string(r.status));
    doc = r.json();
    const std::string state = doc.string_or("state", "");
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::microseconds(kPollMicros));
  }
  sample.latency_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  sample.queue_wait_ms = doc.number_or("queue_wait_ms", 0.0);
  sample.run_ms = doc.number_or("run_ms", 0.0);
  out.jobs.push_back(sample);
  return doc;
}

bool job_done(const util::JsonValue& doc, std::string* why) {
  if (doc.string_or("state", "") == "done" && doc.find("result") != nullptr) return true;
  *why = "job " + doc.string_or("id", "?") + " ended " + doc.string_or("state", "?") + ": " +
         doc.string_or("error", "");
  return false;
}

bool ssta_matches(const util::JsonValue& doc, const stat::NormalRV& ref) {
  const util::JsonValue* r = doc.find("result");
  return r != nullptr && r->number_or("mu", -1.0) == ref.mu &&
         r->number_or("sigma", -1.0) == ref.sigma();
}

/// One client's closed loop: each operation is a job (ssta / sta /
/// monte_carlo / reduced size), or a PATCH speed edit followed by an ssta
/// job on the derived key.
void serve_client(const ServeSession& s, std::uint64_t seed, std::int64_t start_ns,
                  double seconds, SpanLog* log, const stat::NormalRV& base_ref,
                  std::atomic<std::uint64_t>* size_bits, ServeClientRun& out) {
  Rng rng(seed);
  serve::Client client("127.0.0.1", s.server->port());
  const std::vector<netlist::NodeId>& gates = s.reference.view().gates_in_topo_order();
  const std::string circuit = "{\"circuit\": \"" + s.key + "\", ";
  while (seconds_since(start_ns) < seconds) {
    if (log != nullptr) log->next_op();
    const double u = rng.unit();
    std::string why;
    try {
      if (u < kPatchShare) {
        const netlist::NodeId g = gates[rng.below(gates.size())];
        const double speed = 1.0 + 0.125 * static_cast<double>(1 + rng.below(16));
        const std::string body = "{\"edits\": [{\"node\": " + std::to_string(g) +
                                 ", \"speed\": " + std::to_string(speed) + "}]}";
        serve::ApiResult patched;
        {
          Scope span(log, "serve.Client::request(PATCH)");
          patched = client.request("PATCH", "/v1/circuits/" + s.key, body);
        }
        if (!patched.ok()) throw std::runtime_error("PATCH answered " + patched.body);
        const std::string derived = patched.json().string_or("key", "");
        const util::JsonValue doc =
            run_job(client, "{\"circuit\": \"" + derived + "\", \"type\": \"ssta\"}", "ssta",
                    log, out);
        const bool ok = job_done(doc, &why) && ssta_matches(doc, reference_ssta(s.reference,
                                                                               {{g, speed}}));
        out.tally.op(ok, why.empty() ? "served SSTA on a patched key differs" : why);
        continue;
      }
      const std::string type = kServeJobTypes[rng.below(std::size(kServeJobTypes))];
      if (type == "ssta") {
        const util::JsonValue doc =
            run_job(client, circuit + "\"type\": \"ssta\"}", "ssta", log, out);
        out.tally.op(job_done(doc, &why) && ssta_matches(doc, base_ref),
                     why.empty() ? "served SSTA differs from in-process" : why);
      } else if (type == "sta") {
        const util::JsonValue doc =
            run_job(client, circuit + "\"type\": \"sta\", \"corner\": \"worst\"}", "sta",
                    log, out);
        const bool ok = job_done(doc, &why) &&
                        doc.find("result")->number_or("circuit_delay", -1.0) > 0.0;
        out.tally.op(ok, why.empty() ? "bad STA result" : why);
      } else if (type == "monte_carlo") {
        const util::JsonValue doc = run_job(
            client,
            circuit + "\"type\": \"monte_carlo\", \"samples\": " +
                std::to_string(kServeMcSamples) +
                ", \"seed\": " + std::to_string(1 + rng.below(1000000)) + "}",
            "monte_carlo", log, out);
        const bool ok = job_done(doc, &why) &&
                        std::isfinite(doc.find("result")->number_or("mean", std::nan(""))) &&
                        doc.find("result")->number_or("mean", -1.0) > 0.0;
        out.tally.op(ok, why.empty() ? "bad Monte Carlo result" : why);
      } else {
        const util::JsonValue doc =
            run_job(client, circuit + "\"type\": \"size\", \"method\": \"reduced\"}", "size",
                    log, out);
        bool ok = job_done(doc, &why) && doc.find("result")->bool_or("converged", false);
        if (ok) {
          // Every cold size job of one circuit must return the same sizing.
          const double obj = doc.find("result")->number_or("mu_plus_3sigma", -1.0);
          std::uint64_t bits = 0;
          std::memcpy(&bits, &obj, sizeof bits);
          std::uint64_t expected = 0;
          if (!size_bits->compare_exchange_strong(expected, bits)) ok = expected == bits;
          if (!ok) why = "size jobs disagree";
        }
        out.tally.op(ok, why.empty() ? "size job did not converge" : why);
      }
    } catch (const std::exception& e) {
      out.tally.op(false, e.what());
    }
  }
  out.end_s = seconds_since(start_ns);
}

struct ServeRun {
  std::vector<double> setup_s;
  std::vector<JobSample> jobs;
  double wall_s = 0.0;
  double cache_hit_rate = 0.0;
};

/// /v1/stats counters as {group.name: value}.
std::map<std::string, double> stats_counters(serve::Client& admin) {
  const serve::ApiResult r = admin.stats();
  if (!r.ok()) throw std::runtime_error("/v1/stats answered " + std::to_string(r.status));
  std::map<std::string, double> out;
  const util::JsonValue doc = r.json();
  for (const char* group : {"jobs", "cache"}) {
    const util::JsonValue* g = doc.find(group);
    if (g == nullptr) continue;
    for (const auto& [name, value] : g->members()) {
      if (value.is_number()) out[std::string(group) + "." + name] = value.as_number();
    }
  }
  return out;
}

ServeRun run_serve(const Options& opt, double seconds, Trace* trace, Tally& tally,
                   bool measure_setup) {
  ServeRun run;
  std::optional<ServeSession> s;
  auto set_up = [&] {
    if (s) s->server->stop();
    const std::int64_t t0 = now_ns();
    s.emplace(make_serve_session());
    run.setup_s.push_back(seconds_since(t0));
  };
  // Half of the set-up repeats run before the clients start, half after.
  const int setup_reps = measure_setup ? kServeSetupReps : 1;
  for (int rep = 0; rep < setup_reps - setup_reps / 2; ++rep) set_up();

  const stat::NormalRV base_ref = reference_ssta(s->reference, {});
  serve::Client admin("127.0.0.1", s->server->port());
  const std::map<std::string, double> before = stats_counters(admin);

  std::vector<ServeClientRun> clients(kServeClients);
  std::vector<SpanLog*> logs(kServeClients, nullptr);
  if (trace != nullptr) {
    for (SpanLog*& l : logs) l = trace->new_log();
  }
  std::atomic<std::uint64_t> size_bits{0};
  const std::int64_t start = now_ns();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      const std::uint64_t seed = opt.seed * 0x100000001B3ull + static_cast<std::uint64_t>(c);
      threads.emplace_back([&, c, seed] {
        serve_client(*s, seed, start, seconds, logs[static_cast<std::size_t>(c)], base_ref,
                     &size_bits, clients[static_cast<std::size_t>(c)]);
      });
    }
  }
  for (const ServeClientRun& c : clients) {
    tally.merge(c.tally);
    run.jobs.insert(run.jobs.end(), c.jobs.begin(), c.jobs.end());
    run.wall_s = std::max(run.wall_s, c.end_s);
  }

  // The daemon's own counters must agree with what the clients saw.
  const std::map<std::string, double> after = stats_counters(admin);
  auto delta = [&](const std::string& k) {
    const auto a = after.find(k);
    const auto b = before.find(k);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };
  tally.op(delta("jobs.completed") == static_cast<double>(run.jobs.size()) &&
               delta("jobs.failed") == 0.0,
           "/v1/stats job counts disagree with the clients");
  const double hits = delta("cache.hits");
  const double misses = delta("cache.misses");
  run.cache_hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  for (int rep = 0; rep < setup_reps / 2; ++rep) set_up();
  s->server->stop();
  return run;
}

std::vector<double> job_field(const std::vector<JobSample>& jobs, const char* type,
                              double JobSample::*field) {
  std::vector<double> out;
  for (const JobSample& j : jobs) {
    if (type == nullptr || j.type == type) out.push_back(j.*field);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer probes of the traced run: fixed inputs, one span per call (or per
// batch of calls), so every per-layer metric exists on every workload.
// ---------------------------------------------------------------------------

void probe_stat(SpanLog* log) {
  constexpr int kPairs = 4096;
  Rng rng(42);
  std::vector<stat::NormalRV> a(kPairs), b(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    a[static_cast<std::size_t>(i)] = {10.0 * rng.unit(), 0.1 + 4.0 * rng.unit()};
    b[static_cast<std::size_t>(i)] = {10.0 * rng.unit(), 0.1 + 4.0 * rng.unit()};
  }
  volatile double sink = 0.0;
  for (int rep = 0; rep < 40; ++rep) {
    double acc = 0.0;
    {
      Scope span(log, "stat.clark_max", kPairs);
      for (int i = 0; i < kPairs; ++i) {
        acc += stat::clark_max(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]).mu;
      }
    }
    {
      Scope span(log, "stat.clark_max_grad", kPairs);
      stat::ClarkGrad g;
      for (int i = 0; i < kPairs; ++i) {
        acc += stat::clark_max_grad(a[static_cast<std::size_t>(i)],
                                    b[static_cast<std::size_t>(i)], g)
                   .var +
               g.dmu[0];
      }
    }
    sink = sink + acc;
  }
}

void probe_finalize(const netlist::Circuit& k2, SpanLog* log) {
  std::ostringstream text;
  netlist::write_blif(text, k2, "k2");
  for (int rep = 0; rep < 5; ++rep) {
    std::istringstream in(text.str());
    netlist::Circuit c = netlist::read_blif_raw(in);
    Scope span(log, "netlist.Circuit::finalize");
    c.finalize();
  }
}

void probe_ssta(const EcoSession& s, SpanLog* log, Tally& tally) {
  for (int rep = 0; rep < 50; ++rep) {
    const ssta::TimingReport full = full_sweep(s, log);
    if (rep == 0) tally.op(sweep_matches(*s.engine, full), "probe sweep differs from the engine");
  }
  for (std::uint64_t seed = 7; seed < 10; ++seed) monte_carlo(s, seed, log);
}

void probe_core(const netlist::Circuit& k2, const netlist::Circuit& apex2, SpanLog* log,
                Tally& tally) {
  const ssta::SigmaModel sigma{};
  core::ReducedEvaluator eval(k2, sigma);
  std::vector<double> speed(static_cast<std::size_t>(k2.num_nodes()), 1.5);
  std::vector<double> grad;
  for (int rep = 0; rep < 30; ++rep) {
    Scope span(log, "core.ReducedEvaluator::eval");
    eval.eval(speed);
  }
  for (int rep = 0; rep < 30; ++rep) {
    eval.invalidate();  // cold: a full forward tape, then the adjoint
    Scope span(log, "core.ReducedEvaluator::eval_with_grad");
    eval.eval_with_grad(speed, 1.0, 0.0, grad);
  }

  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(3.0);
  std::optional<core::FullSpaceFormulation> f;
  for (int rep = 0; rep < 5; ++rep) {
    Scope span(log, "core.build_full_space");
    f.emplace(core::build_full_space(apex2, spec, 1.0));
  }

  const nlp::Problem& problem = *f->problem;
  nlp::AugLagModel model(
      problem, std::vector<double>(static_cast<std::size_t>(problem.num_constraints()), 0.0),
      10.0);
  const std::vector<double> x = problem.start();
  std::vector<double> g;
  double psi = 0.0;
  for (int rep = 0; rep < 50; ++rep) {
    Scope span(log, "nlp.AugLagModel::eval");
    psi = model.eval(x, &g);
  }
  tally.op(std::isfinite(psi), "AugLag probe value is not finite");
  Rng rng(11);
  std::vector<double> v(static_cast<std::size_t>(problem.num_vars()));
  for (double& e : v) e = rng.unit() - 0.5;
  std::vector<double> hv;
  for (int rep = 0; rep < 200; ++rep) {
    Scope span(log, "nlp.AugLagModel::hess_vec");
    model.hess_vec(v, hv);
  }
}

void probe_region(SpanLog* log) {
  constexpr int kRegions = 500;
  const std::size_t width = static_cast<std::size_t>(4 * runtime::threads());
  for (int rep = 0; rep < 10; ++rep) {
    Scope span(log, "runtime.parallel_for", kRegions);
    for (int i = 0; i < kRegions; ++i) {
      runtime::parallel_for(width, 1, [](std::size_t, std::size_t) {});
    }
  }
}

/// Seconds one span record costs: 2e5 empty scopes into a scratch log.
double span_cost_s() {
  SpanLog scratch;
  constexpr int kSpans = 200000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) Scope span(&scratch, "probe");
  return seconds_since(t0) / kSpans;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metric(const Metric& m) {
  std::printf("metric %-28s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
              m.unit.c_str());
}

/// The final line: the metrics the run reports, with the operation counts.
void print_result(const Tally& tally, const std::vector<Metric>& reported) {
  bool finite = true;
  std::string metrics;
  for (const Metric& m : reported) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", tally.attempted, tally.failed, metrics.c_str());
}

int run(const Options& opt) {
  const std::int64_t origin = now_ns();
  Trace trace;
  SpanLog* log = opt.trace ? trace.new_log() : nullptr;
  Trace* tracing = opt.trace ? &trace : nullptr;
  Tally tally;

  std::vector<Metric> e2e;     // the untraced run's reported metrics
  std::vector<Metric> notes;   // printed, not reported
  std::vector<double> setup_s;
  int iterations = -1;
  int outer_iterations = -1;
  std::vector<double> cone_gates;
  std::optional<ServeRun> served;
  double workload_s = 0.0;
  int workload_threads = 1;

  std::printf("statsize benchmark: workload %s, seed %llu, %.3g s, trace %d, threads %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, runtime::threads());

  if (opt.workload == "size_k2_reduced" || opt.workload == "size_apex2_full") {
    const SizingCase& c = opt.workload == "size_k2_reduced" ? kK2Reduced : kApex2Full;
    const SizingRun r = run_sizing(opt, c, log, tally);
    setup_s = r.setup_s;
    iterations = r.iterations;
    outer_iterations = r.outer_iterations;
    workload_s = r.loop_s;
    e2e.push_back({"op_ms_p50", 1e3 * median(r.solve_s), "ms"});
    e2e.push_back({"heavy_op_ms_p50", 1e3 * median(r.cold_op_s), "ms"});
    notes.push_back({"solves_per_s", static_cast<double>(r.solve_s.size()) / r.loop_s, "1/s"});
    notes.push_back({"solve_s_p50", median(r.solve_s), "s"});
    notes.push_back({"solve_objective", r.objective, c.area_under_deadline ? "sum_S" : "delay"});
    notes.push_back({"solves", static_cast<double>(r.solve_s.size()), "count"});
    notes.push_back({"core.iterations", static_cast<double>(r.iterations), "count"});
    notes.push_back({"core.outer_iterations", static_cast<double>(r.outer_iterations), "count"});
  } else if (opt.workload == "timing_eco_k2") {
    const EcoRun r = run_eco(opt, log, tally);
    setup_s = r.setup_s;
    cone_gates = r.cone_gates;
    workload_s = r.loop_s;
    const double ops =
        static_cast<double>(r.edit_us.size() + r.sweep_us.size() + r.mc_ms.size());
    e2e.push_back({"op_ms_p50", 1e-3 * median(r.edit_us), "ms"});
    e2e.push_back({"heavy_op_ms_p50", 1e-3 * median(r.sweep_us), "ms"});
    notes.push_back({"edit_us_p50", median(r.edit_us), "us"});
    notes.push_back({"edit_us_p99", quantile(r.edit_us, 0.99), "us"});
    notes.push_back({"sweep_us_p50", median(r.sweep_us), "us"});
    notes.push_back({"mc_ms_p50", median(r.mc_ms), "ms"});
    notes.push_back({"timing_ops_per_s", ops / r.loop_s, "1/s"});
    const double edit_s = 1e-6 * sum(r.edit_us);
    const double sweep_s = 1e-6 * sum(r.sweep_us);
    const double mc_s = 1e-3 * sum(r.mc_ms);
    notes.push_back({"share.edit", edit_s / r.loop_s, "fraction"});
    notes.push_back({"share.sweep", sweep_s / r.loop_s, "fraction"});
    notes.push_back({"share.mc", mc_s / r.loop_s, "fraction"});
    notes.push_back({"edits", static_cast<double>(r.edit_us.size()), "count"});
    notes.push_back({"sweeps", static_cast<double>(r.sweep_us.size()), "count"});
    notes.push_back({"mc_checks", static_cast<double>(r.mc_ms.size()), "count"});
  } else if (opt.workload == "serve_mixed") {
    served = run_serve(opt, opt.seconds, tracing, tally, true);
    setup_s = served->setup_s;
    workload_s = served->wall_s;
    workload_threads = kServeClients;
    const std::vector<double> ssta_ms =
        job_field(served->jobs, "ssta", &JobSample::latency_ms);
    const double jobs_per_s = static_cast<double>(served->jobs.size()) / served->wall_s;
    const double size_ms_p50 = median(job_field(served->jobs, "size", &JobSample::latency_ms));
    e2e.push_back({"op_ms_p50", median(ssta_ms), "ms"});
    e2e.push_back({"heavy_op_ms_p50", size_ms_p50, "ms"});
    notes.push_back({"jobs_per_s", jobs_per_s, "1/s"});
    notes.push_back({"ssta_job_ms_p50", median(ssta_ms), "ms"});
    notes.push_back({"ssta_job_ms_p99", quantile(ssta_ms, 0.99), "ms"});
    notes.push_back({"size_job_ms_p50", size_ms_p50, "ms"});
    // Share of the executor's run time each job type takes.
    const double run_ms = sum(job_field(served->jobs, nullptr, &JobSample::run_ms));
    for (const char* type : kServeJobTypes) {
      notes.push_back({std::string("share.") + type,
                       sum(job_field(served->jobs, type, &JobSample::run_ms)) / run_ms,
                       "fraction"});
    }
    notes.push_back({"jobs", static_cast<double>(served->jobs.size()), "count"});
    notes.push_back({"ssta_jobs", static_cast<double>(ssta_ms.size()), "count"});
  } else {
    throw std::invalid_argument("unknown workload " + opt.workload +
                                " (size_k2_reduced | size_apex2_full | timing_eco_k2 | "
                                "serve_mixed)");
  }
  const std::size_t workload_spans = opt.trace ? trace.span_count() : 0;

  std::vector<Metric> reported;
  if (!opt.trace) {
    reported.push_back({"setup_s", median(setup_s), "s"});
    reported.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    reported.insert(reported.end(), e2e.begin(), e2e.end());
    notes.push_back({"failed_frac",
                     static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
                     "fraction"});
    notes.push_back({"runtime.threads", static_cast<double>(runtime::threads()), "count"});
  } else {
    // Layer probes on fixed inputs. The workload's own spans count too: the
    // ECO session's edits and sweeps, the served jobs, the sizing solves.
    const netlist::Circuit k2 = netlist::make_mcnc_like("k2");
    const netlist::Circuit apex2 = netlist::make_mcnc_like("apex2");
    probe_stat(log);
    probe_finalize(k2, log);
    {
      EcoSession probe = make_eco_session(1);
      probe_ssta(probe, log, tally);
      if (cone_gates.empty()) {
        Rng rng(3);
        for (int i = 0; i < 300; ++i) {
          cone_gates.push_back(eco_edit(probe, rng, log, tally).cone_gates);
        }
      }
    }
    probe_core(k2, apex2, log, tally);
    probe_region(log);
    if (!served) served = run_serve(opt, 1.0, tracing, tally, false);

    // The single-thread reference: the k2 solve of size_k2_reduced at
    // set_threads(1), the one place the thread setting is changed.
    const int threads = runtime::threads();
    const SizingInstance inst = make_sizing_instance(kK2Reduced);
    core::SizerOptions jobs1_opts;
    jobs1_opts.method = kK2Reduced.method;
    runtime::set_threads(1);
    const std::int64_t t0 = now_ns();
    core::SizingResult r1;
    {
      Scope span(log, "core.Sizer::run@jobs1");
      r1 = core::Sizer(inst.circuit, inst.spec).run(jobs1_opts);
    }
    const double jobs1_s = seconds_since(t0);
    runtime::set_threads(threads);
    const std::string why = check_solve(kK2Reduced, inst, r1, jobs1_opts);
    tally.op(why.empty(), why);
    if (iterations < 0) {
      iterations = r1.iterations;
      outer_iterations = r1.outer_iterations;
    }

    const std::map<std::string, perfbench::SelfTime> self =
        perfbench::self_time_by_name(trace.logs());
    auto self_median = [&](const char* name, double scale) {
      const auto it = self.find(name);
      return it == self.end() ? std::nan("") : scale * median(it->second.per_call_ns);
    };
    const std::vector<JobSample>& jobs = served->jobs;
    std::vector<double> overhead_ms;
    for (const JobSample& j : jobs) {
      overhead_ms.push_back(j.latency_ms - j.queue_wait_ms - j.run_ms);
    }
    double polls = 0.0;
    for (const JobSample& j : jobs) polls += j.polls;
    const double overhead_frac = static_cast<double>(workload_spans) * span_cost_s() /
                                 (workload_s * workload_threads);

    reported = {
        {"stat.clark_max_ns", self_median("stat.clark_max", 1.0), "ns"},
        {"stat.clark_max_grad_ns", self_median("stat.clark_max_grad", 1.0), "ns"},
        {"netlist.finalize_ms", self_median("netlist.Circuit::finalize", 1e-6), "ms"},
        {"ssta.all_delays_us", self_median("ssta.DelayCalculator::all_delays", 1e-3), "us"},
        {"ssta.run_ssta_us", self_median("ssta.run_ssta", 1e-3), "us"},
        {"ssta.apply_edits_us", self_median("ssta.IncrementalEngine::apply_edits", 1e-3), "us"},
        {"ssta.edit_cone_gates", median(cone_gates), "count"},
        {"ssta.mc_ns_per_trial", self_median("ssta.run_monte_carlo", 1.0), "ns"},
        {"core.reduced_eval_us", self_median("core.ReducedEvaluator::eval", 1e-3), "us"},
        {"core.reduced_grad_us", self_median("core.ReducedEvaluator::eval_with_grad", 1e-3),
         "us"},
        {"core.iterations", static_cast<double>(iterations), "count"},
        {"core.outer_iterations", static_cast<double>(outer_iterations), "count"},
        {"core.build_full_space_ms", self_median("core.build_full_space", 1e-6), "ms"},
        {"nlp.auglag_eval_us", self_median("nlp.AugLagModel::eval", 1e-3), "us"},
        {"nlp.hess_vec_us", self_median("nlp.AugLagModel::hess_vec", 1e-3), "us"},
        {"runtime.threads", static_cast<double>(runtime::threads()), "count"},
        {"runtime.region_us", self_median("runtime.parallel_for", 1e-3), "us"},
        {"runtime.jobs1_solve_s", jobs1_s, "s"},
        {"serve.queue_wait_ms_p50", median(job_field(jobs, nullptr, &JobSample::queue_wait_ms)),
         "ms"},
        {"serve.queue_wait_ms_p99",
         quantile(job_field(jobs, nullptr, &JobSample::queue_wait_ms), 0.99), "ms"},
        {"serve.service_ms_p50", median(job_field(jobs, nullptr, &JobSample::run_ms)), "ms"},
        {"serve.client_overhead_ms", median(overhead_ms), "ms"},
        {"serve.polls_per_job", polls / static_cast<double>(jobs.size()), "count"},
        {"serve.cache_hit_rate", served->cache_hit_rate, "fraction"},
        {"trace.overhead_frac", overhead_frac, "fraction"},
    };

    // Where the time went: self time per span name, largest first.
    std::vector<std::pair<double, std::string>> by_total;
    for (const auto& [name, t] : self) by_total.push_back({t.total_ns, name});
    std::sort(by_total.rbegin(), by_total.rend());
    std::printf("self time by span:\n");
    for (const auto& [total, name] : by_total) {
      std::printf("  %-42s %10.3f ms over %zu spans\n", name.c_str(), total * 1e-6,
                  self.at(name).per_call_ns.size());
    }
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      perfbench::write_spans(out, trace.logs(), origin);
      tally.op(static_cast<bool>(out), "cannot write " + opt.trace_out);
      std::printf("wrote %zu spans to %s\n", trace.span_count(), opt.trace_out.c_str());
    }
  }

  for (const Metric& m : reported) print_metric(m);
  if (!opt.trace) {
    for (const Metric& m : notes) print_metric(m);
  }
  std::fflush(stdout);
  print_result(tally, reported);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statsize_perfbench: %s\n", e.what());
    return 2;
  }
}
