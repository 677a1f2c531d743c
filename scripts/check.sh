#!/usr/bin/env bash
# Full hygiene gate: configure with sanitizers, build everything, run the test
# suite under them, then run clang-tidy over the sources when it is installed
# (skipped with a note otherwise — the curated checks live in .clang-tidy).
#
# Sanitizer selection: STATSIZE_SANITIZE=address,undefined (default) or
# STATSIZE_SANITIZE=thread. ThreadSanitizer cannot be combined with ASan, so
# the thread configuration is a separate run in its own build directory and
# focuses on the concurrency surface: the parallel runtime's own tests plus
# the SSTA/Monte Carlo engines that fan out across the pool.
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
echo "== one job lifecycle (one admit, one finish in scheduler.cpp) =="
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
echo "lifecycle gate passed"

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
  # name, see tests/CMakeLists.txt): the runtime itself, SSTA/Monte Carlo,
  # the nlp + core suites whose sizing runs drive the pooled forward sweeps
  # and Monte Carlo chunks, and the TimingView suite every parallel sweep
  # traverses. The sizer suite joins them: its solves run run_ssta's pooled
  # level sweep on k2-size circuits (constraint probes, scores, result
  # reports) between calls to the reduced-space tape and adjoint, which run
  # serially on the calling thread. The resilience suite rides along: cancellation polls and fault
  # hit-counting run on pool worker threads, so their synchronization is part
  # of the concurrency surface. The serve suite joins them: its live-loopback
  # tests cross socket threads, the scheduler's executors (several jobs at
  # once, sharing the pool), and the circuit cache's shared-lock readers in
  # one process. The chaos suite rides the same
  # run: journal appends, fault hit-counting, and recovery replay all cross
  # the socket/executor thread boundary.
  echo "== ctest under ThreadSanitizer (runtime + parallel engines + serve) =="
  STATSIZE_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -L '^(runtime_test|ssta_test|nlp_test|core_test|sizer_test|timing_view_test|resilience_test|serve_test|incremental_test|chaos_test)$'
  # The ECO label again on its own: edit sequences interleave the serial
  # incremental worklist with pooled full re-sweeps on the same views.
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

# Pre-solve static audit over every shipped example circuit: error-severity
# findings (exit 3) or tool failures (exit 1) fail the gate; warnings/notes
# pass. Runs under the sanitizer build, so the audit code itself is checked.
echo "== statsize audit (examples) =="
for f in "$REPO_ROOT"/examples/circuits/*.blif; do
  [ -e "$f" ] || continue
  code=0
  "$BUILD_DIR/tools/statsize" audit --circuit "$f" || code=$?
  if [ "$code" -ge 3 ] || [ "$code" -eq 1 ]; then
    echo "audit gate FAILED on $f (exit $code)"
    exit 1
  fi
done
echo "audit gate passed"

# Serve smoke: daemon on an ephemeral port, upload c17, one SSTA job over
# HTTP asserted bit-identical to the CLI answer, clean SIGINT shutdown. Runs
# under the sanitizer build, so the socket/scheduler paths are checked too.
echo "== serve smoke =="
"$REPO_ROOT/scripts/serve_smoke.sh" "$BUILD_DIR/tools/statsize" "$REPO_ROOT"

# Scaling smoke: the bench's thread-scaling section hard-fails (nonzero exit)
# on any bit-identity mismatch between 1-thread and multi-thread results, and
# emits the speedup table into BENCH_scaling.json. The speedup itself is
# advisory (a WARN inside the bench); only determinism is a gate. Restricted
# to hosts with >=4 cores — on smaller boxes the multi-thread timings are
# oversubscription noise and the same cross-checks already run in ctest.
echo "== scaling smoke (thread determinism) =="
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
