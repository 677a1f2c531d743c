// Tests for the parallel execution runtime (src/runtime/): thread-pool
// lifecycle, exception propagation, nested regions, regions from several
// threads at once, per-thread budgets and cancel scopes, and — the
// load-bearing property — that SSTA, Monte Carlo and NLP evaluation produce
// bit-identical results at any thread count (serial path, --jobs 1,
// --jobs N).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/full_space.h"
#include "core/reduced_space.h"
#include "netlist/generators.h"
#include "nlp/auglag.h"
#include "nlp/problem.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "ssta/delay_model.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"

namespace {

using namespace statsize;

/// Restores the global thread setting on scope exit so tests do not leak
/// their --jobs override into each other.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(runtime::threads()) {}
  ~ThreadGuard() { runtime::set_threads(saved_); }

 private:
  int saved_;
};

netlist::Circuit medium_dag(int gates = 400) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 24;
  p.depth = 12;
  p.seed = 7;
  return netlist::make_random_dag(p);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, StartStopRepeatedly) {
  for (int threads : {1, 2, 4}) {
    for (int round = 0; round < 3; ++round) {
      runtime::ThreadPool pool(threads);
      EXPECT_EQ(pool.num_threads(), threads);
      // Each pool hosts a few regions between construction and the
      // destructor's join, with idle gaps that let workers park.
      std::atomic<int> covered{0};
      for (int region = 0; region < 4; ++region) {
        pool.parallel_for(64, 8, [&](std::size_t b, std::size_t e) {
          covered.fetch_add(static_cast<int>(e - b));
        });
        if (region == 1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      EXPECT_EQ(covered.load(), 4 * 64);
    }
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1013);
  pool.parallel_for(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1000, 8,
                                 [](std::size_t b, std::size_t) {
                                   if (b >= 500) throw std::runtime_error("chunk failed");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> count{0};
  pool.parallel_for(100, 8, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  runtime::ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      pool.parallel_for(64, 4, [&](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<long>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPool, BusyPoolRunsTheCallersChunksInline) {
  // Thread A owns the pool's one region and holds it until thread B's
  // parallel_for on the same pool has finished. B must not wait for A: it
  // runs every one of its chunks on itself and covers its range exactly.
  runtime::ThreadPool pool(4);
  std::atomic<bool> a_inside{false};
  std::atomic<bool> b_done{false};
  bool b_finished_first = false;
  std::thread a([&] {
    pool.parallel_for(4, 1, [&](std::size_t b, std::size_t) {
      if (b != 0) return;
      a_inside.store(true);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!b_done.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      b_finished_first = b_done.load();
    });
  });
  while (!a_inside.load()) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(1000, 0);
  bool off_caller = false;
  int calls = 0;
  pool.parallel_for(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    ++calls;
    if (std::this_thread::get_id() != caller) off_caller = true;
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  b_done.store(true);
  a.join();

  EXPECT_TRUE(b_finished_first) << "the second caller waited for the region owner";
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(calls, (1000 + 6) / 7);  // chunk by chunk, as a participant would
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(Runtime, SetThreadsClampsAndSticks) {
  ThreadGuard guard;
  runtime::set_threads(0);
  EXPECT_EQ(runtime::threads(), 1);
  runtime::set_threads(3);
  EXPECT_EQ(runtime::threads(), 3);
  EXPECT_EQ(runtime::global_pool().num_threads(), 3);
  runtime::set_threads(runtime::kMaxJobs + 50);
  EXPECT_EQ(runtime::threads(), runtime::kMaxJobs);
}

// STATSIZE_JOBS validation (all env resolution routes through
// resolve_jobs_value): a malformed value must fall back to hardware
// concurrency with a warning that names the value and the reason — never UB,
// never a 0-thread pool.
TEST(Runtime, JobsEnvValidValuesParse) {
  EXPECT_EQ(runtime::resolve_jobs_value("1", 8), 1);
  EXPECT_EQ(runtime::resolve_jobs_value("16", 8), 16);
  EXPECT_EQ(runtime::resolve_jobs_value("1024", 8), runtime::kMaxJobs);
  std::string warning = "unset";
  EXPECT_EQ(runtime::resolve_jobs_value("4", 8, &warning), 4);
  EXPECT_TRUE(warning.empty());
}

TEST(Runtime, JobsEnvMalformedValuesFallBackWithNamedWarning) {
  struct Case {
    const char* value;
    const char* why_fragment;
  };
  const Case cases[] = {
      {"abc", "expected an integer"},
      {"4x", "expected an integer"},
      {"3.5", "expected an integer"},
      {" 4", "expected an integer"},
      {"\t4", "expected an integer"},
      {"", "empty value"},
      {"0", ">= 1"},
      {"-2", ">= 1"},
      {"99999999999999999999", "maximum"},
      {"2000000000", "maximum"},
  };
  for (const Case& c : cases) {
    std::string warning;
    EXPECT_EQ(runtime::resolve_jobs_value(c.value, 8, &warning), 8) << c.value;
    EXPECT_NE(warning.find("STATSIZE_JOBS"), std::string::npos) << c.value;
    EXPECT_NE(warning.find(c.why_fragment), std::string::npos)
        << "'" << c.value << "' -> " << warning;
    if (c.value[0] != '\0') {
      EXPECT_NE(warning.find(c.value), std::string::npos) << warning;
    }
  }
  EXPECT_EQ(runtime::resolve_jobs_value(nullptr, 8), 8);
}

TEST(Runtime, JobsEnvFallbackIsAlwaysPositive) {
  // Whatever garbage arrives, the resolved count can never build a 0-thread
  // pool: the fallback itself is the hardware count (>= 1).
  const int resolved = runtime::resolve_jobs_value("not-a-number", runtime::hardware_threads());
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, runtime::kMaxJobs);
}

TEST(Runtime, SingleThreadSettingRunsEveryRangeInline) {
  // At --jobs 1 a parallel_for of any length runs on the calling thread, one
  // body call per grain-sized chunk in index order: the serial reference
  // every determinism test compares against.
  ThreadGuard guard;
  runtime::set_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  runtime::parallel_for(10000, 7, [&](std::size_t b, std::size_t e) {
    calls.emplace_back(b, e);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  ASSERT_EQ(calls.size(), (10000u + 6) / 7);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, 7 * i);
    EXPECT_EQ(calls[i].second, std::min<std::size_t>(7 * i + 7, 10000));
  }
}

TEST(Runtime, SingleThreadCancelLandsWithinOneChunk) {
  // The inline path polls cancel before every chunk, as a pool chunk claim
  // does: a body that trips the token in its first chunk sees no second one.
  ThreadGuard guard;
  runtime::set_threads(1);
  {
    runtime::CancellationToken token;
    const runtime::CancelScope scope(&token, runtime::Deadline::never());
    int calls = 0;
    EXPECT_THROW(runtime::parallel_for(64, 1,
                                       [&](std::size_t, std::size_t) {
                                         ++calls;
                                         token.request_cancel();
                                       }),
                 runtime::OperationCancelled);
    EXPECT_EQ(calls, 1);
  }
  {
    // A pool's own inline path (a one-thread pool) keeps the same contract.
    runtime::CancellationToken token;
    const runtime::CancelScope scope(&token, runtime::Deadline::never());
    runtime::ThreadPool pool(1);
    int calls = 0;
    EXPECT_THROW(pool.parallel_for(64, 4,
                                   [&](std::size_t, std::size_t) {
                                     ++calls;
                                     token.request_cancel();
                                   }),
                 runtime::OperationCancelled);
    EXPECT_EQ(calls, 1);
  }
}

TEST(Runtime, ParallelForRunsInlineWhenRangeFitsOneGrain) {
  // The only granularity rule the runtime has: a range of at most `grain`
  // items is one body call on the calling thread at any thread count, and a
  // longer one is cut into grain-sized chunks that cover it exactly.
  ThreadGuard guard;
  runtime::set_threads(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  bool off_caller = false;
  auto record = [&](std::size_t b, std::size_t e) {
    const std::lock_guard<std::mutex> lock(mu);
    calls.emplace_back(b, e);
    if (std::this_thread::get_id() != caller) off_caller = true;
  };

  runtime::parallel_for(32, 32, record);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{32}));
  EXPECT_FALSE(off_caller);

  calls.clear();
  runtime::parallel_for(33, 32, record);
  std::sort(calls.begin(), calls.end());
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{32}));
  EXPECT_EQ(calls[1], std::make_pair(std::size_t{32}, std::size_t{33}));
}

TEST(Runtime, ThreadBudgetCapsTheCallersParticipantsAndRestores) {
  // A budget caps how many threads a region uses (caller included) without
  // touching the process setting or the pool; its destructor restores the
  // previous cap. Budgets above the pool size clamp to it.
  ThreadGuard guard;
  runtime::set_threads(4);
  const runtime::ThreadPool* pool = &runtime::global_pool();
  EXPECT_EQ(runtime::thread_budget(), 4);
  {
    const runtime::ThreadBudget budget(2);
    EXPECT_EQ(runtime::thread_budget(), 2);
    std::mutex mu;
    std::set<std::thread::id> participants;
    std::vector<int> hits(4096, 0);
    for (int round = 0; round < 20; ++round) {
      runtime::parallel_for(hits.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
        const std::lock_guard<std::mutex> lock(mu);
        participants.insert(std::this_thread::get_id());
      });
    }
    EXPECT_LE(participants.size(), 2u);
    for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 20) << "index " << i;
    {
      const runtime::ThreadBudget inner(1);
      EXPECT_EQ(runtime::thread_budget(), 1);
      int calls = 0;
      runtime::parallel_for(10000, 1, [&](std::size_t, std::size_t) { ++calls; });
      EXPECT_EQ(calls, 10000);  // inline: one call per chunk
    }
    EXPECT_EQ(runtime::thread_budget(), 2);
  }
  {
    const runtime::ThreadBudget budget(64);
    EXPECT_EQ(runtime::thread_budget(), 4);
  }
  EXPECT_EQ(runtime::thread_budget(), 4);
  EXPECT_EQ(runtime::threads(), 4);
  EXPECT_EQ(&runtime::global_pool(), pool);
}

TEST(Runtime, PoolChunksPollTheOwnersCancelChainOnly) {
  // Every chunk of a region, on whichever thread runs it, sees the owner's
  // chain head; a later region with no scope sees none, so a worker never
  // keeps a previous owner's chain.
  ThreadGuard guard;
  runtime::set_threads(4);
  runtime::CancellationToken token;
  std::mutex mu;
  std::vector<const void*> heads;
  auto record = [&](std::size_t, std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    heads.push_back(runtime::detail::active_chain());
  };
  const void* owner_head = nullptr;
  {
    const runtime::CancelScope scope(&token, runtime::Deadline::never());
    owner_head = runtime::detail::active_chain();
    ASSERT_NE(owner_head, nullptr);
    for (int round = 0; round < 20; ++round) runtime::parallel_for(256, 1, record);
  }
  for (const void* h : heads) ASSERT_EQ(h, owner_head);
  heads.clear();
  for (int round = 0; round < 20; ++round) runtime::parallel_for(256, 1, record);
  for (const void* h : heads) ASSERT_EQ(h, nullptr);
}

TEST(Runtime, CancelScopesArePerThread) {
  // Thread A runs regions under an already-expired deadline and must be
  // cancelled every time. Thread B, concurrently and with no scope, must
  // complete every region bit-identical to a serial run — whichever of the
  // two owns the pool at any moment.
  ThreadGuard guard;
  runtime::set_threads(4);
  constexpr std::size_t kN = 2000;
  auto value = [](std::size_t i) { return std::sin(0.001 * static_cast<double>(i)) * 3.0 + 1.0; };
  std::vector<double> serial(kN);
  for (std::size_t i = 0; i < kN; ++i) serial[i] = value(i);

  constexpr int kRounds = 200;
  std::atomic<int> a_cancelled{0};
  std::atomic<int> b_identical{0};
  std::thread a([&] {
    const runtime::CancelScope scope(runtime::Deadline::after_seconds(-1.0));
    std::vector<double> out(kN, 0.0);
    for (int round = 0; round < kRounds; ++round) {
      try {
        runtime::parallel_for(kN, 16, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) out[i] = value(i);
        });
      } catch (const runtime::OperationCancelled& e) {
        if (e.reason() == runtime::CancelReason::kDeadline) a_cancelled.fetch_add(1);
      }
    }
  });
  std::thread b([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<double> out(kN, 0.0);
      try {
        runtime::parallel_for(kN, 16, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) out[i] = value(i);
        });
      } catch (const runtime::OperationCancelled&) {
        continue;  // another thread's deadline reached this region
      }
      if (out == serial) b_identical.fetch_add(1);
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(a_cancelled.load(), kRounds);
  EXPECT_EQ(b_identical.load(), kRounds);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts — the acceptance bar for the runtime.
// ---------------------------------------------------------------------------

TEST(Determinism, SstaArrivalsBitwiseEqualAcrossThreadCounts) {
  ThreadGuard guard;
  const netlist::Circuit c = medium_dag();
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.3);
  const auto delays = calc.all_delays(speed);

  runtime::set_threads(1);  // serial branch (below parallel cutoff by thread count)
  const ssta::TimingReport serial = ssta::run_ssta(c, delays);
  for (int threads : {2, 4}) {
    runtime::set_threads(threads);
    const ssta::TimingReport par = ssta::run_ssta(c, delays);
    ASSERT_EQ(par.arrival.size(), serial.arrival.size());
    for (std::size_t i = 0; i < serial.arrival.size(); ++i) {
      EXPECT_EQ(par.arrival[i].mu, serial.arrival[i].mu) << "node " << i;
      EXPECT_EQ(par.arrival[i].var, serial.arrival[i].var) << "node " << i;
    }
    EXPECT_EQ(par.circuit_delay.mu, serial.circuit_delay.mu);
    EXPECT_EQ(par.circuit_delay.var, serial.circuit_delay.var);
  }
}

TEST(Determinism, MonteCarloMomentsExactlyEqualAcrossThreadCounts) {
  ThreadGuard guard;
  const netlist::Circuit c = medium_dag(300);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);
  ssta::MonteCarloOptions mco;
  mco.num_samples = 2000;  // not a multiple of the 256-sample chunk
  mco.seed = 42;

  runtime::set_threads(1);
  const ssta::MonteCarloResult serial = ssta::run_monte_carlo(c, delays, mco);
  const std::vector<double> crit_serial = ssta::monte_carlo_criticality(c, delays, mco);
  for (int threads : {2, 4}) {
    runtime::set_threads(threads);
    const ssta::MonteCarloResult par = ssta::run_monte_carlo(c, delays, mco);
    EXPECT_EQ(par.mean, serial.mean);
    EXPECT_EQ(par.stddev, serial.stddev);
    EXPECT_EQ(par.min, serial.min);
    EXPECT_EQ(par.max, serial.max);
    ASSERT_EQ(par.samples.size(), serial.samples.size());
    EXPECT_EQ(0, std::memcmp(par.samples.data(), serial.samples.data(),
                             serial.samples.size() * sizeof(double)));
    EXPECT_EQ(ssta::monte_carlo_criticality(c, delays, mco), crit_serial);
  }
}

TEST(Determinism, FunctionGroupEvalAndGradBitwiseEqualAcrossThreadCounts) {
  ThreadGuard guard;
  // Big enough to cross the parallel-element threshold.
  nlp::Problem p;
  const int nvars = 200;
  for (int i = 0; i < nvars; ++i) p.add_variable(0.1, 10.0, 1.0 + 0.01 * i);
  nlp::FunctionGroup g;
  g.constant = 0.5;
  const nlp::ElementFunction* prod = p.own(std::make_unique<nlp::ProductElement>());
  const nlp::ElementFunction* sq = p.own(std::make_unique<nlp::SquareElement>());
  for (int k = 0; k < 1000; ++k) {
    const int a = (k * 7) % nvars;
    const int b = (k * 13 + 5) % nvars;
    if (k % 2 == 0) {
      g.elements.push_back({prod, {a, b}, 0.01 * k - 3.0});
    } else {
      g.elements.push_back({sq, {a}, 0.02 * k - 5.0});
    }
    g.linear.push_back({a, 0.001 * k});
  }
  const std::vector<double> x = p.start();

  runtime::set_threads(1);
  const double v1 = g.eval(x);
  std::vector<double> grad1(static_cast<std::size_t>(nvars), 0.0);
  g.accumulate_grad(x, 1.5, grad1);
  for (int threads : {2, 4}) {
    runtime::set_threads(threads);
    EXPECT_EQ(g.eval(x), v1);
    std::vector<double> grad(static_cast<std::size_t>(nvars), 0.0);
    g.accumulate_grad(x, 1.5, grad);
    EXPECT_EQ(grad, grad1);
  }
}

TEST(Determinism, AugLagEvalBitwiseEqualAcrossThreadCounts) {
  ThreadGuard guard;
  const netlist::Circuit c = medium_dag(200);
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(0.0);
  const std::vector<double> start(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const core::FullSpaceFormulation form = core::build_full_space(c, spec, start);
  const nlp::Problem& p = *form.problem;
  std::vector<double> multipliers(static_cast<std::size_t>(p.num_constraints()), 0.25);
  const std::vector<double> x = p.start();

  runtime::set_threads(1);
  nlp::AugLagModel serial_model(p, multipliers, 10.0);
  std::vector<double> grad1;
  const double psi1 = serial_model.eval(x, &grad1);
  const double probe1 = serial_model.eval(x, nullptr);
  std::vector<double> c1;
  p.eval_constraints(x, c1);
  const double viol1 = p.max_constraint_violation(x);

  for (int threads : {2, 4}) {
    runtime::set_threads(threads);
    nlp::AugLagModel model(p, multipliers, 10.0);
    std::vector<double> grad;
    EXPECT_EQ(model.eval(x, &grad), psi1);
    EXPECT_EQ(grad, grad1);
    EXPECT_EQ(model.eval(x, nullptr), probe1);
    std::vector<double> cv;
    p.eval_constraints(x, cv);
    EXPECT_EQ(cv, c1);
    EXPECT_EQ(p.max_constraint_violation(x), viol1);
  }
}

TEST(Determinism, ReducedSpaceGradientBitwiseEqualAcrossThreadCounts) {
  ThreadGuard guard;
  const netlist::Circuit c = medium_dag();
  const core::ReducedEvaluator eval(c, {0.25, 0.0});
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.7);

  runtime::set_threads(1);
  std::vector<double> grad1;
  const stat::NormalRV t1 = eval.eval_with_grad(speed, 1.0, 0.5, grad1);
  for (int threads : {2, 4}) {
    runtime::set_threads(threads);
    std::vector<double> grad;
    const stat::NormalRV t = eval.eval_with_grad(speed, 1.0, 0.5, grad);
    EXPECT_EQ(t.mu, t1.mu);
    EXPECT_EQ(t.var, t1.var);
    EXPECT_EQ(grad, grad1);
  }
}

TEST(Determinism, TapedForwardTmaxEqualsEvalAcrossThreadCounts) {
  // The reduced-space sizer derives f and the adjoint seeds from the taped
  // sweep's Tmax instead of a separate eval() probe. That is only sound if
  // the two are the same doubles — cold tape (every gate seeded), re-taped
  // at another point (a small cone), and re-taped where every gate's speed
  // moved at once (the sizing line search's traffic), at any thread count.
  ThreadGuard guard;
  for (const char* name : {"k2", "apex2"}) {
    const netlist::Circuit c = netlist::make_mcnc_like(name);
    std::vector<double> x(static_cast<std::size_t>(c.num_nodes()));
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 + 0.17 * static_cast<double>(i % 13);
    // y moves one deep gate only, so re-taping at y takes a small cone.
    std::vector<double> y = x;
    y[static_cast<std::size_t>(c.view().gates_in_topo_order().back())] = 2.9;
    // z moves every gate, as a line-search trial does.
    std::vector<double> z = x;
    for (double& s : z) s = 0.5 * s + 0.4;
    runtime::set_threads(1);
    const core::ReducedEvaluator ref(c, {0.25, 0.02});
    const stat::NormalRV want_x = ref.eval(x);
    const stat::NormalRV want_y = ref.eval(y);
    const stat::NormalRV want_z = ref.eval(z);
    for (int threads : {1, 2, 4}) {
      runtime::set_threads(threads);
      const core::ReducedEvaluator eval(c, {0.25, 0.02});
      const stat::NormalRV cold = eval.taped_forward(x);
      EXPECT_EQ(eval.last_forward_recomputes(), static_cast<std::size_t>(c.num_gates()));
      const stat::NormalRV moved = eval.taped_forward(y);
      const stat::NormalRV back = eval.taped_forward(x);
      EXPECT_LT(eval.last_forward_recomputes(), static_cast<std::size_t>(c.num_gates()));
      const stat::NormalRV all_moved = eval.taped_forward(z);
      EXPECT_GT(eval.last_forward_recomputes(), 0u);
      for (const auto& [got, want] : {std::pair{cold, want_x}, std::pair{moved, want_y},
                                      std::pair{back, want_x}, std::pair{all_moved, want_z}}) {
        EXPECT_EQ(got.mu, want.mu) << name << " threads=" << threads;
        EXPECT_EQ(got.var, want.var) << name << " threads=" << threads;
      }
      EXPECT_EQ(eval.eval(x).mu, want_x.mu);
    }
  }
}

TEST(Determinism, KernelsBitwiseEqualAcrossThreadCounts) {
  // The full acceptance matrix: --jobs {1,2,4} for every kernel a sizing run
  // uses — the pooled ones (Monte Carlo, criticality) and the serial ones
  // that run beside them (the SSTA sweep, hess_vec, the adjoint) — all
  // bit-identical to the 1-thread reference.
  ThreadGuard guard;
  const netlist::Circuit c = medium_dag(300);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.1);
  const auto delays = calc.all_delays(speed);
  ssta::MonteCarloOptions mco;
  mco.num_samples = 1500;  // not a multiple of the 256-trial chunk
  mco.seed = 9;

  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(0.0);
  const std::vector<double> ones(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const core::FullSpaceFormulation form = core::build_full_space(c, spec, ones);
  const nlp::Problem& p = *form.problem;
  const std::vector<double> mult(static_cast<std::size_t>(p.num_constraints()), 0.25);
  const std::vector<double> x = p.start();
  std::vector<double> v(static_cast<std::size_t>(p.num_vars()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(0.37 * static_cast<double>(i)) + 0.1;
  }
  const core::ReducedEvaluator red(c, {0.25, 0.0});

  runtime::set_threads(1);
  nlp::AugLagModel model(p, mult, 10.0);
  std::vector<double> grad_scratch;
  model.eval(x, &grad_scratch);  // snapshot the element Hessians at x
  const ssta::TimingReport ssta_ref = ssta::run_ssta(c, delays);
  const ssta::MonteCarloResult mc_ref = ssta::run_monte_carlo(c, delays, mco);
  const std::vector<double> crit_ref = ssta::monte_carlo_criticality(c, delays, mco);
  std::vector<double> hv_ref;
  model.hess_vec(v, hv_ref);
  std::vector<double> adj_ref;
  const stat::NormalRV t_ref = red.eval_with_grad(ones, 1.0, 0.5, adj_ref);

  for (const int threads : {1, 2, 4}) {
    runtime::set_threads(threads);
    const std::string where = std::to_string(threads) + " threads";

    const ssta::TimingReport rep = ssta::run_ssta(c, delays);
    ASSERT_EQ(rep.arrival.size(), ssta_ref.arrival.size());
    for (std::size_t i = 0; i < rep.arrival.size(); ++i) {
      EXPECT_EQ(rep.arrival[i].mu, ssta_ref.arrival[i].mu) << where << ", node " << i;
      EXPECT_EQ(rep.arrival[i].var, ssta_ref.arrival[i].var) << where << ", node " << i;
    }
    EXPECT_EQ(rep.circuit_delay.mu, ssta_ref.circuit_delay.mu) << where;
    EXPECT_EQ(rep.circuit_delay.var, ssta_ref.circuit_delay.var) << where;

    const ssta::MonteCarloResult mc = ssta::run_monte_carlo(c, delays, mco);
    EXPECT_EQ(mc.mean, mc_ref.mean) << where;
    EXPECT_EQ(mc.stddev, mc_ref.stddev) << where;
    EXPECT_EQ(mc.samples, mc_ref.samples) << where;
    EXPECT_EQ(ssta::monte_carlo_criticality(c, delays, mco), crit_ref) << where;

    std::vector<double> hv;
    model.hess_vec(v, hv);
    EXPECT_EQ(hv, hv_ref) << where;

    std::vector<double> adj;
    const stat::NormalRV t = red.eval_with_grad(ones, 1.0, 0.5, adj);
    EXPECT_EQ(t.mu, t_ref.mu) << where;
    EXPECT_EQ(t.var, t_ref.var) << where;
    EXPECT_EQ(adj, adj_ref) << where;
  }
}

// ---------------------------------------------------------------------------
// Hessian-vector products
// ---------------------------------------------------------------------------

TEST(Determinism, AugLagHessVecBitwiseEqualAcrossThreadCounts) {
  ThreadGuard guard;
  const netlist::Circuit c = medium_dag(300);
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(0.0);
  const std::vector<double> start(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const core::FullSpaceFormulation form = core::build_full_space(c, spec, start);
  const nlp::Problem& p = *form.problem;
  const std::vector<double> multipliers(static_cast<std::size_t>(p.num_constraints()), 0.25);
  const std::vector<double> x = p.start();
  std::vector<double> v(static_cast<std::size_t>(p.num_vars()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(0.37 * static_cast<double>(i)) + 0.1;
  }

  runtime::set_threads(1);
  nlp::AugLagModel serial_model(p, multipliers, 10.0);
  std::vector<double> grad;
  serial_model.eval(x, &grad);  // refresh the element snapshots at x
  std::vector<double> hv1;
  serial_model.hess_vec(v, hv1);

  for (int threads : {2, 4}) {
    runtime::set_threads(threads);
    nlp::AugLagModel model(p, multipliers, 10.0);
    model.eval(x, &grad);
    std::vector<double> hv;
    model.hess_vec(v, hv);
    EXPECT_EQ(hv, hv1);
  }
}

TEST(AugLagHessVec, MatchesFiniteDifferenceOfGradientAtAnyThreadCount) {
  // v^T H v column check on a Table-1 sized sizing problem: hess_vec must
  // match (grad(x + h v) - grad(x - h v)) / 2h in serial and parallel modes.
  const netlist::Circuit c = medium_dag();
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(0.0);
  const std::vector<double> start(static_cast<std::size_t>(c.num_nodes()), 1.2);
  const core::FullSpaceFormulation form = core::build_full_space(c, spec, start);
  const nlp::Problem& p = *form.problem;
  const std::vector<double> multipliers(static_cast<std::size_t>(p.num_constraints()), 0.1);
  const std::vector<double> x = p.start();
  std::vector<double> v(static_cast<std::size_t>(p.num_vars()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::cos(0.23 * static_cast<double>(i));
  }

  for (int threads : {1, 4}) {
    ThreadGuard guard;
    runtime::set_threads(threads);
    nlp::AugLagModel model(p, multipliers, 10.0);
    const double h = 1e-6;
    std::vector<double> xp = x;
    std::vector<double> xm = x;
    for (std::size_t i = 0; i < x.size(); ++i) {
      xp[i] += h * v[i];
      xm[i] -= h * v[i];
    }
    std::vector<double> gp;
    std::vector<double> gm;
    model.eval(xp, &gp);
    model.eval(xm, &gm);
    std::vector<double> grad;
    model.eval(x, &grad);  // re-snapshot at x before the Hessian product
    std::vector<double> hv;
    model.hess_vec(v, hv);
    for (std::size_t i = 0; i < hv.size(); ++i) {
      const double fd = (gp[i] - gm[i]) / (2.0 * h);
      EXPECT_NEAR(hv[i], fd, 5e-3 * (1.0 + std::abs(hv[i])))
          << "component " << i << " at " << threads << " threads";
    }
  }
}

/// The full-space min-delay instance of medium_dag at its start point, with
/// an AugLagModel whose element snapshots are taken at that point.
struct HessVecFixture {
  netlist::Circuit circuit = medium_dag(300);
  core::FullSpaceFormulation form;
  std::unique_ptr<nlp::AugLagModel> model;

  HessVecFixture() {
    core::SizingSpec spec;
    spec.objective = core::Objective::min_delay(0.0);
    const std::vector<double> start(static_cast<std::size_t>(circuit.num_nodes()), 1.3);
    form = core::build_full_space(circuit, spec, start);
    const nlp::Problem& p = *form.problem;
    model = std::make_unique<nlp::AugLagModel>(
        p, std::vector<double>(static_cast<std::size_t>(p.num_constraints()), 0.2), 10.0);
    std::vector<double> grad;
    model->eval(p.start(), &grad);
  }

  std::vector<double> direction(double phase) const {
    std::vector<double> v(static_cast<std::size_t>(form.problem->num_vars()));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(phase * static_cast<double>(i + 1)) + 0.05;
    }
    return v;
  }
};

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

TEST(AugLagHessVec, IsSymmetricInItsTwoDirections) {
  // hess_vec scatters each packed element Hessian (upper triangle) into both
  // triangles, plus the Gauss-Newton terms rho * grad c grad c^T: the
  // product it defines must satisfy u^T H v == v^T H u.
  const HessVecFixture f;
  const std::vector<double> u = f.direction(0.31);
  const std::vector<double> v = f.direction(0.77);
  std::vector<double> hu;
  std::vector<double> hv;
  f.model->hess_vec(u, hu);
  f.model->hess_vec(v, hv);
  const double uhv = dot(u, hv);
  const double vhu = dot(v, hu);
  EXPECT_NEAR(uhv, vhu, 1e-10 * (1.0 + std::abs(uhv) + std::abs(vhu)));
}

TEST(AugLagHessVec, IsLinearInTheDirection) {
  // H(a u + b v) == a H u + b H v: the product reads only the snapshot taken
  // by the last gradient evaluation, never state left by an earlier product.
  const HessVecFixture f;
  const std::vector<double> u = f.direction(0.13);
  const std::vector<double> v = f.direction(0.59);
  std::vector<double> w(u.size());
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 2.0 * u[i] - 0.5 * v[i];
  std::vector<double> hu;
  std::vector<double> hv;
  std::vector<double> hw;
  f.model->hess_vec(u, hu);
  f.model->hess_vec(v, hv);
  f.model->hess_vec(w, hw);
  ASSERT_EQ(hw.size(), w.size());
  for (std::size_t i = 0; i < hw.size(); ++i) {
    const double combo = 2.0 * hu[i] - 0.5 * hv[i];
    EXPECT_NEAR(hw[i], combo, 1e-9 * (1.0 + std::abs(combo))) << "component " << i;
  }
}

}  // namespace
