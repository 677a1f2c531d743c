#!/usr/bin/env bash
# Full hygiene gate: configure with sanitizers, build everything, run the test
# suite under them, then run clang-tidy over the sources when it is installed
# (skipped with a note otherwise — the curated checks live in .clang-tidy).
#
# Sanitizer selection: STATSIZE_SANITIZE=address,undefined (default) or
# STATSIZE_SANITIZE=thread. ThreadSanitizer cannot be combined with ASan, so
# the thread configuration is a separate run in its own build directory and
# focuses on the concurrency surface: the parallel runtime's own tests plus
# the Monte Carlo engine that fans out across the pool.
#
# Usage: scripts/check.sh [build-dir]
#   default build dir: build-check (address,undefined) / build-tsan (thread)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZE="${STATSIZE_SANITIZE:-address,undefined}"

if [ "$SANITIZE" = "thread" ]; then
  BUILD_DIR="${1:-$REPO_ROOT/build-tsan}"
else
  BUILD_DIR="${1:-$REPO_ROOT/build-check}"
fi

# One engine input (DESIGN.md §8): every timing and sizing engine takes a
# netlist::TimingView, and a Circuit converts to its view. No engine header
# may take or hold a Circuit; only the JSON report, which reads Node and
# CellLibrary data, does. Comment lines are exempt. Needs no build.
echo "== one engine input (no Circuit in ssta/core/runtime headers) =="
if grep -nwE 'Circuit' "$REPO_ROOT"/src/ssta/*.h "$REPO_ROOT"/src/core/*.h \
    "$REPO_ROOT"/src/runtime/*.h | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -v '/src/ssta/report\.h:'; then
  echo "engine-input gate FAILED: the lines above take or hold a netlist::Circuit"
  exit 1
fi
echo "engine-input gate passed"

# One compiled graph (DESIGN.md §8): fanouts, levels and the topological
# order are derived once, into the TimingView; the Circuit keeps only what
# its builder set, and the view's epoch is its one edit record. The runtime
# knows nothing of the netlist. Comment lines in circuit.h are exempt.
# Needs no build.
echo "== one compiled graph (derived structure only in the TimingView) =="
graph_gate_failed() {
  echo "compiled-graph gate FAILED: $1"
  exit 1
}
if grep -nE '#include[[:space:]]*"netlist/' "$REPO_ROOT"/src/runtime/*; then
  graph_gate_failed "the src/runtime lines above include a netlist header"
fi
if grep -n 'statsize_netlist' "$REPO_ROOT/src/runtime/CMakeLists.txt"; then
  graph_gate_failed "src/runtime/CMakeLists.txt names statsize_netlist"
fi
if grep -rnwE 'dirty_nodes|clear_dirty|note_edits|LevelSchedule' "$REPO_ROOT/src"; then
  graph_gate_failed "the src/ lines above name a deleted edit record or level scheduler"
fi
if grep -nwE 'fanouts|gate_levels|node_level' "$REPO_ROOT/src/netlist/circuit.h" |
    grep -vE '^[0-9]+:[[:space:]]*//'; then
  graph_gate_failed "the circuit.h lines above declare derived graph structure"
fi
echo "compiled-graph gate passed"

# One job lifecycle (DESIGN.md §13): every served job enters through
# admit_locked(), the one writer of admit records, and leaves through
# finish(), the one place that writes end records, retires a job and stores
# its terminal state. Each of these must have exactly one call site in the
# scheduler. Definitions start in column 0 and comment lines are exempt.
# Needs no build.
echo "== one job lifecycle (one admit, one claim, one finish in scheduler.cpp) =="
SCHEDULER="$REPO_ROOT/src/serve/scheduler.cpp"
for site in 'admit_record(' 'end_record(' 'retire_locked(' 'state.store('; do
  calls=$(grep -F "$site" "$SCHEDULER" | grep -E '^[[:space:]]' |
    grep -cvE '^[[:space:]]*//' || true)
  if [ "$calls" -ne 1 ]; then
    echo "lifecycle gate FAILED: $calls call sites of '$site' in src/serve/scheduler.cpp, want 1:"
    grep -nF "$site" "$SCHEDULER"
    exit 1
  fi
done
# One claim (DESIGN.md §11): the queued -> running exchange, a
# compare_exchange_strong whose desired value is JobState::kRunning, has one
# site, claim_locked(), shared by the executors and the admitting thread.
# Comment lines are dropped and the rest joined, so a call split over lines
# still counts.
claims=$(grep -vE '^[[:space:]]*//' "$SCHEDULER" | tr -s ' \t\n' ' ' |
  grep -oE 'compare_exchange_strong\([^,;]*, ?JobState::kRunning' | wc -l)
if [ "$claims" -ne 1 ]; then
  echo "lifecycle gate FAILED: $claims queued -> running exchanges in src/serve/scheduler.cpp, want 1 (claim_locked):"
  grep -n 'compare_exchange_strong' "$SCHEDULER"
  exit 1
fi
echo "lifecycle gate passed"

# One job document (DESIGN.md §11): every answer about a job (submit, batch,
# GET, DELETE) is Job::describe(), written in scheduler.cpp. The server
# writes no job field itself: no "state" or "type" key and no state or type
# name. Comment lines are exempt. Needs no build.
echo "== one job document (server.cpp writes no job field) =="
SERVER="$REPO_ROOT/src/serve/server.cpp"
if grep -nE 'key\("(state|type)"\)|job_(state|type)_name\(' "$SERVER" |
    grep -vE '^[0-9]+:[[:space:]]*//'; then
  echo "job-document gate FAILED: the src/serve/server.cpp lines above write a job field; answer with Job::describe()"
  exit 1
fi
echo "job-document gate passed"

# One Phi/phi kernel (DESIGN.md §5 item 4): stat::normal_terms is the only
# place a normal CDF is computed, from one shared exponential and Cody's
# rational approximations. The C library's complementary error function must
# not appear anywhere under src/, not even in a comment. Needs no build.
echo "== one Phi/phi kernel (no erfc under src/) =="
if grep -rn 'erfc' "$REPO_ROOT/src"; then
  echo "Phi-kernel gate FAILED: the src/ lines above name erfc; take Phi from stat::normal_terms"
  exit 1
fi
echo "Phi-kernel gate passed"

# One Clark kernel (DESIGN.md §5 item 4): every Clark max passes the theta
# floor and the dominance exit of stat/clark.h. The bare moment template
# stat::clark_moments applies neither, so nothing under src/ outside
# src/stat may call it; folds go through clark_max, clark_max_grad,
# clark_max_full or clark_max_dual. Needs no build.
echo "== one Clark kernel (clark_moments only under src/stat) =="
if grep -rn 'clark_moments' "$REPO_ROOT/src" | grep -v '/src/stat/'; then
  echo "Clark-kernel gate FAILED: the src/ lines above name clark_moments; call a stat::clark_max* evaluator"
  exit 1
fi
echo "Clark-kernel gate passed"

# One parallel customer (DESIGN.md §7): Monte Carlo's trial chunks are the
# only parallel_for outside the runtime; every sweep is a serial walk. A
# parallel_for call anywhere else under src/ fails. Needs no build.
echo "== one parallel customer (parallel_for only in runtime/ and monte_carlo.cpp) =="
if grep -rn 'parallel_for(' "$REPO_ROOT/src" | grep -vE '^[^:]*/src/runtime/' |
    grep -v '/src/ssta/monte_carlo\.cpp:'; then
  echo "parallel-customer gate FAILED: the src/ lines above call parallel_for"
  exit 1
fi
echo "parallel-customer gate passed"

# One outer loop (DESIGN.md §5 item 1): nlp::solve_augmented_lagrangian is
# the only place a multiplier or penalty changes; both sizing methods hand it
# their inner minimizer. A compound update of lambda, rho or multipliers
# (`lambda +=`, `multipliers[j] -=`, `rho *=`) or a reassignment from its own
# value (`rho = std::min(rho * 4.0, ...)`) anywhere else under src/ fails.
# Comment lines are exempt. Needs no build.
echo "== one outer loop (multiplier/penalty updates only in src/nlp/auglag.cpp) =="
if grep -rnE '\b(lambda|rho|multipliers)\b(\[[^]]*\])?[[:space:]]*([-+*/]=|=[^=;][^;]*[^.>[:alnum:]_]\1\b)' \
    "$REPO_ROOT/src" | grep -v '/src/nlp/auglag\.cpp:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "outer-loop gate FAILED: the src/ lines above update a multiplier or penalty outside nlp::solve_augmented_lagrangian"
  exit 1
fi
echo "outer-loop gate passed"

echo "== configure ($SANITIZE) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DSTATSIZE_SANITIZE="$SANITIZE" \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ "$SANITIZE" = "thread" ]; then
  # TSan run: exercise the thread pool and the parallel analysis engines with
  # more threads than the (possibly single-core) host advertises, so races
  # are exposed even where hardware_concurrency() == 1 would otherwise keep
  # every code path serial. Suites are selected by label (the executable
  # name, see tests/CMakeLists.txt): the runtime itself, SSTA/Monte Carlo
  # (whose trial chunks are the pool's one customer), and the TimingView
  # suite the sweeps traverse. The nlp and core suites are not among them:
  # they set no thread count and run no Monte Carlo, so they never build the
  # pool, and the one-parallel-customer gate above fails first if src/nlp or
  # src/core starts calling parallel_for. They still run in the
  # address,undefined configuration. The sizer
  # suite joins them: its solves run serial SSTA sweeps on k2-size circuits
  # (constraint probes, scores, result reports) and its yield checks run
  # Monte Carlo on the pool. The resilience suite rides along: cancellation
  # polls and fault
  # hit-counting run on pool worker threads, so their synchronization is part
  # of the concurrency surface. The serve suite joins them: its live-loopback
  # tests cross socket threads, the scheduler's executors (several jobs at
  # once, sharing the pool), and the circuit cache's shared-lock readers in
  # one process. The chaos suite rides the same
  # run: journal appends, fault hit-counting, and recovery replay all cross
  # the socket/executor thread boundary.
  echo "== ctest under ThreadSanitizer (runtime + parallel engines + serve) =="
  STATSIZE_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -L '^(runtime_test|ssta_test|sizer_test|timing_view_test|resilience_test|serve_test|incremental_test|chaos_test)$'
  # The ECO label again on its own: edit sequences interleave the
  # incremental worklist with full re-sweeps on the same views.
  echo "== ctest eco label under ThreadSanitizer =="
  STATSIZE_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure -L '^eco$'
  echo "thread-sanitizer checks passed"
  exit 0
fi

echo "== ctest under sanitizers =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The recovery contract deserves its own visible gate: an injected NaN or
# deadline must degrade to a checkpoint, never to a sanitizer-visible crash.
echo "== ctest resilience label under sanitizers =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L '^resilience$'

# Same for the ECO contract: incremental re-timing must stay bit-identical to
# full recompute under the sanitizers too.
echo "== ctest eco label under sanitizers =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L '^eco$'

# And the crash-safety contract (DESIGN.md §13): journal framing, recovery
# replay, idempotent retries, and the fault-injection sites, as a named gate.
echo "== ctest chaos label under sanitizers =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L '^chaos$'

# Paper-tables gate (EXPERIMENTS.md): the E1-E3, E6 and E10-E12 benches each
# check the shapes the paper's tables assert and exit nonzero when one fails.
# A perf change to the solvers must keep every one of them, so each exit code
# is a hard gate. E4, E5 and E9 check the Clark moments, circuit SSTA and
# canonical SSTA against Monte Carlo: the accuracy a change to the Phi/phi
# kernel can break. The bench's output is printed only on failure.
echo "== paper tables gate (E1-E6, E9-E12) =="
for bench in table1_benchmarks table2_tree table3_speedfactors validation_statmax \
    validation_ssta_yield ablation_formulation validation_correlation \
    corner_vs_statistical greedy_vs_nlp ablation_discrete; do
  code=0
  (cd "$BUILD_DIR" && "$BUILD_DIR/bench/$bench" > "$BUILD_DIR/paper_$bench.log" 2>&1) || code=$?
  if [ "$code" -ne 0 ]; then
    cat "$BUILD_DIR/paper_$bench.log"
    echo "paper-tables gate FAILED: bench/$bench exited $code"
    exit 1
  fi
  echo "$bench: all criteria hold"
done
echo "paper-tables gate passed"

# Chaos soak hard gate: a forked journaled daemon under armed IO faults is
# SIGKILLed mid-load, restarted on the same journal, and must show no lost
# jobs, no duplicate side effects from idempotent retries, and bit-identical
# completed results vs a clean run. Exit code is the gate; the evidence lands
# in BENCH_chaos.json. Light enough for a single-core host.
echo "== chaos soak gate (SIGKILL + recovery) =="
(cd "$BUILD_DIR" && "$BUILD_DIR/bench/chaos_soak")
echo "chaos soak gate passed (evidence in $BUILD_DIR/BENCH_chaos.json)"

# ECO bench gate: the bit-identity cross-check (every single-gate edit vs a
# from-scratch run_ssta / cold gradient) plus the >=10x rebuild-per-query
# speedup and the wall-time-tracks-cone-size correlation all hard-fail via
# the exit code. Timing gates need real cores; the bit-identity half also
# runs in ctest (incremental_test) on any host.
echo "== eco incremental gate (bit-identity + speedup) =="
if [ "$(nproc)" -ge 4 ]; then
  (cd "$BUILD_DIR" && "$BUILD_DIR/bench/eco_incremental")
  echo "eco gate passed (table in $BUILD_DIR/BENCH_eco.json)"
else
  echo "eco bench skipped: only $(nproc) core(s) on this host"
fi

# Pre-solve static analysis over every shipped example circuit: error-severity
# findings (exit 3) or tool failures (exit 1) fail the gate; warnings/notes
# pass. Runs under the sanitizer build, so the analyzer code itself is checked.
echo "== statsize lint (examples) =="
for f in "$REPO_ROOT"/examples/circuits/*.blif; do
  [ -e "$f" ] || continue
  code=0
  "$BUILD_DIR/tools/statsize" lint --circuit "$f" || code=$?
  if [ "$code" -ge 3 ] || [ "$code" -eq 1 ]; then
    echo "lint gate FAILED on $f (exit $code)"
    exit 1
  fi
done
echo "lint gate passed"

# Serve smoke: daemon on an ephemeral port, upload c17, one SSTA job over
# HTTP asserted bit-identical to the CLI answer, clean SIGINT shutdown. Runs
# under the sanitizer build, so the socket/scheduler paths are checked too.
echo "== serve smoke =="
"$REPO_ROOT/scripts/serve_smoke.sh" "$BUILD_DIR/tools/statsize" "$REPO_ROOT"

# Scaling smoke: the bench's thread-scaling section hard-fails (nonzero exit)
# on any bit-identity mismatch between 1-thread and multi-thread results, and
# when a parallel Monte Carlo run (the one pooled engine) is slower than its
# 1-thread fallback; it emits the speedup table into BENCH_scaling.json. Only
# the 2x Monte Carlo target stays advisory (a WARN inside the bench).
# Restricted to hosts with >=4 cores — on smaller boxes the multi-thread
# timings are oversubscription noise and the same cross-checks already run
# in ctest.
echo "== scaling smoke (thread determinism, no slower parallel run) =="
if [ "$(nproc)" -ge 4 ]; then
  (cd "$BUILD_DIR" && STATSIZE_SCALING_SECTIONS=threads "$BUILD_DIR/bench/scaling_cpu")
  echo "scaling smoke passed (table in $BUILD_DIR/BENCH_scaling.json)"
else
  echo "scaling smoke skipped: only $(nproc) core(s) on this host"
fi

# Determinism lint over the library sources: any DET hazard is error-severity
# and fails the build (suppressions require an in-source allow() comment).
echo "== detlint (src) =="
"$BUILD_DIR/tools/detlint" "$REPO_ROOT/src"
echo "detlint gate passed"

echo "== clang-tidy =="
if command -v clang-tidy > /dev/null 2>&1; then
  # Headers are covered transitively; benches/examples are excluded to keep
  # the run focused on the library and tool sources.
  find "$REPO_ROOT/src" "$REPO_ROOT/tools" -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "$BUILD_DIR" --quiet
  echo "clang-tidy clean"
else
  echo "clang-tidy not installed; skipped (checks are configured in .clang-tidy)"
fi

echo "all checks passed"
