// Incremental (ECO) timing tests — DESIGN.md §12.
//
// Covers the whole edit→invalidate→repropagate stack: the TimingView mutation
// protocol (update_node_params / epoch), the FinalizedMutationError
// contract on the Circuit side, the IncrementalEngine's bit-identity pin
// against full run_ssta recompute, the ReducedEvaluator's persistent forward
// tape, and the Sizer warm-start path. The property suite drives random mixed
// edit sequences at --jobs 1 and 4 and demands EXPECT_EQ (bitwise) agreement
// of arrivals, Tmax, slacks, and gradients with a from-scratch recompute at
// every step.

#include "ssta/incremental.h"

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/reduced_space.h"
#include "core/sizer.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"
#include "runtime/runtime.h"
#include "ssta/slack.h"
#include "ssta/ssta.h"

namespace statsize {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeParams;
using netlist::TimingView;
using ssta::IncrementalEngine;
using ssta::TimingEdit;

Circuit small_dag(int gates, std::uint64_t seed) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 16 + gates / 20;
  p.depth = 8 + gates / 40;
  p.seed = seed;
  return netlist::make_random_dag(p);
}

/// Gate wired twice to the same driver: d's fanout has two edges into g, so a
/// c_in edit on g must rewrite both per-edge pin caps.
Circuit double_edge_circuit() {
  Circuit c(netlist::CellLibrary::standard());
  const NodeId a = c.add_input("a");
  const NodeId d = c.add_gate(0, {a}, "d");
  const NodeId g = c.add_gate(2, {d, d}, "g");  // NAND2 fed twice by d
  c.mark_output(g);
  c.finalize();
  return c;
}

std::vector<double> unit_speed(const TimingView& view) {
  return std::vector<double>(static_cast<std::size_t>(view.num_nodes()), 1.0);
}

/// From-scratch reference on the engine's own (edited) view and speeds.
ssta::TimingReport fresh_report(const IncrementalEngine& engine) {
  const ssta::DelayCalculator calc(engine.view(), engine.sigma_model());
  return ssta::run_ssta(engine.view(), calc.all_delays(engine.speed()));
}

void expect_rv_eq(const stat::NormalRV& a, const stat::NormalRV& b) {
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.var, b.var);
  EXPECT_FALSE(std::isnan(a.mu));
}

void expect_engine_matches_full(const IncrementalEngine& engine) {
  const ssta::TimingReport fresh = fresh_report(engine);
  ASSERT_EQ(fresh.arrival.size(), engine.arrivals().size());
  for (std::size_t i = 0; i < fresh.arrival.size(); ++i) {
    expect_rv_eq(fresh.arrival[i], engine.arrivals()[i]);
  }
  expect_rv_eq(fresh.circuit_delay, engine.tmax());
}

// ---------------------------------------------------------------------------
// Satellite: mutating a finalized Circuit is a named error.

TEST(FinalizedMutation, StructuralEditsAfterFinalizeThrowNamedError) {
  Circuit c(netlist::CellLibrary::standard());
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(0, {a}, "g");
  c.mark_output(g);
  c.finalize();

  EXPECT_THROW(c.add_input("b"), netlist::FinalizedMutationError);
  EXPECT_THROW(c.add_gate(0, {a}, "h"), netlist::FinalizedMutationError);
  EXPECT_THROW(c.mark_output(a), netlist::FinalizedMutationError);
  try {
    c.add_input("b");
    FAIL() << "expected FinalizedMutationError";
  } catch (const netlist::FinalizedMutationError& e) {
    // The message must route the caller to the sanctioned post-finalize path.
    EXPECT_NE(std::string(e.what()).find("update_node_params"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// TimingView mutation protocol.

TEST(TimingViewEdit, UpdateNodeParamsRewritesConstantsAndPinCaps) {
  const Circuit c = small_dag(40, 7);
  TimingView view = c.view();  // value copy; the snapshot stays pristine
  const std::vector<NodeId>& gates = view.gates_in_topo_order();
  const NodeId g = gates[gates.size() / 2];

  NodeParams p = view.node_params(g);
  p.t_int *= 1.25;
  p.c *= 0.8;
  p.c_in *= 1.5;
  p.area *= 2.0;
  view.update_node_params(g, p);

  EXPECT_EQ(view.t_int(g), p.t_int);
  EXPECT_EQ(view.drive_c(g), p.c);
  EXPECT_EQ(view.c_in(g), p.c_in);
  EXPECT_EQ(view.area(g), p.area);
  // Every fanin->g fanout edge now carries the new pin cap.
  for (NodeId driver : view.fanins(g)) {
    const netlist::NodeSpan outs = view.fanouts(driver);
    const double* cin = view.fanout_cin(driver);
    for (std::size_t e = 0; e < outs.size(); ++e) {
      if (outs[e] == g) {
        EXPECT_EQ(cin[e], p.c_in);
      }
    }
  }
  // The Circuit's own compiled snapshot is untouched.
  EXPECT_NE(c.view().t_int(g), p.t_int);
  EXPECT_EQ(c.view().epoch(), 0u);
}

TEST(TimingViewEdit, DuplicateEdgeGetsBothPinCapsRewritten) {
  const Circuit c = double_edge_circuit();
  TimingView view = c.view();
  const NodeId d = view.gates_in_topo_order()[0];
  const NodeId g = view.gates_in_topo_order()[1];
  ASSERT_EQ(view.fanouts(d).size(), 2u);

  NodeParams p = view.node_params(g);
  p.c_in = 3.5;
  view.update_node_params(g, p);

  const double* cin = view.fanout_cin(d);
  EXPECT_EQ(cin[0], 3.5);
  EXPECT_EQ(cin[1], 3.5);
  // Both edges contribute: load = static + 2 * c_in * S_g.
  const std::vector<double> speed(static_cast<std::size_t>(view.num_nodes()), 2.0);
  EXPECT_EQ(view.load_capacitance(d, speed.data()),
            view.static_load(d) + 3.5 * 2.0 + 3.5 * 2.0);
}

TEST(TimingViewEdit, EpochCountsEveryEdit) {
  const Circuit c = small_dag(30, 11);
  TimingView view = c.view();
  const std::vector<NodeId>& gates = view.gates_in_topo_order();
  EXPECT_EQ(view.epoch(), 0u);

  NodeParams p0 = view.node_params(gates[0]);
  p0.t_int *= 1.1;
  view.update_node_params(gates[0], p0);
  NodeParams p1 = view.node_params(gates[1]);
  p1.c_in *= 1.1;
  view.update_node_params(gates[1], p1);
  p0.t_int *= 1.1;
  view.update_node_params(gates[0], p0);  // a re-edit bumps the epoch too

  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_EQ(c.view().epoch(), 0u);  // the snapshot the copy came from is untouched
}

TEST(TimingViewEdit, InvalidEditsThrowAndLeaveViewUnchanged) {
  const Circuit c = small_dag(30, 13);
  TimingView view = c.view();
  const NodeId input = view.topo_order()[0];
  const NodeId g = view.gates_in_topo_order()[0];
  const NodeParams before = view.node_params(g);

  EXPECT_THROW(view.update_node_params(input, NodeParams{1, 1, 1, 1}), std::invalid_argument);
  NodeParams bad = before;
  bad.t_int = std::nan("");
  try {
    view.update_node_params(g, bad);
    ADD_FAILURE() << "update_node_params accepted a NaN t_int";
  } catch (const std::invalid_argument& e) {
    const std::string expected = "edited node '" + view.name(g) + "' intrinsic delay t_int";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }

  EXPECT_EQ(view.epoch(), 0u);
  EXPECT_EQ(view.t_int(g), before.t_int);
}

// ---------------------------------------------------------------------------
// IncrementalEngine unit behaviour.

TEST(IncrementalEngine, ConstructorValidatesSpeed) {
  const Circuit c = small_dag(30, 17);
  std::vector<double> wrong(static_cast<std::size_t>(c.num_nodes()) - 1, 1.0);
  EXPECT_THROW(IncrementalEngine(c.view(), wrong), std::invalid_argument);

  std::vector<double> nonpos = unit_speed(c.view());
  nonpos[static_cast<std::size_t>(c.view().gates_in_topo_order()[0])] = 0.0;
  EXPECT_THROW(IncrementalEngine(c.view(), nonpos), std::invalid_argument);
}

TEST(IncrementalEngine, BatchIsValidatedBeforeAnyStateChanges) {
  const Circuit c = small_dag(30, 19);
  IncrementalEngine engine(c.view(), unit_speed(c.view()));
  const stat::NormalRV before = engine.tmax();
  const NodeId g = c.view().gates_in_topo_order()[0];
  const NodeId input = c.view().topo_order()[0];

  // A good edit followed by a bad one: the whole batch must be rejected
  // with no propagation and no state change.
  const std::vector<TimingEdit> batch{TimingEdit::set_speed(g, 2.0),
                                      TimingEdit::set_speed(input, 2.0)};
  EXPECT_THROW(engine.apply_edits(batch), std::invalid_argument);
  expect_rv_eq(engine.tmax(), before);
  EXPECT_EQ(engine.speed()[static_cast<std::size_t>(g)], 1.0);

  EXPECT_THROW(engine.apply_edits({TimingEdit::set_speed(g, -1.0)}), std::invalid_argument);
  EXPECT_THROW(engine.apply_edits({TimingEdit::set_speed(g, std::nan(""))}),
               std::invalid_argument);
}

TEST(IncrementalEngine, NoOpEditPropagatesNothing) {
  const Circuit c = small_dag(30, 23);
  IncrementalEngine engine(c.view(), unit_speed(c.view()));
  const stat::NormalRV before = engine.tmax();
  const NodeId g = c.view().gates_in_topo_order()[0];

  engine.apply_edits({TimingEdit::set_speed(g, 1.0)});  // bitwise-equal value
  EXPECT_EQ(engine.last_arrival_recomputes(), 0u);
  expect_rv_eq(engine.tmax(), before);
}

TEST(IncrementalEngine, SpeedAndParamsEditsMatchFullRecompute) {
  const Circuit c = small_dag(60, 29);
  IncrementalEngine engine(c.view(), unit_speed(c.view()));
  const std::vector<NodeId>& gates = c.view().gates_in_topo_order();

  const stat::NormalRV t1 = engine.apply_edits({TimingEdit::set_speed(gates[2], 1.7)});
  expect_rv_eq(t1, engine.tmax());  // the return value is the cached Tmax
  expect_engine_matches_full(engine);

  NodeParams p = engine.view().node_params(gates[gates.size() / 2]);
  p.t_int *= 1.2;
  p.c_in *= 0.8;
  engine.apply_edits({TimingEdit::set_params(gates[gates.size() / 2], p)});
  expect_engine_matches_full(engine);

  // A mixed batch in one call.
  NodeParams q = engine.view().node_params(gates[1]);
  q.c *= 1.3;
  engine.apply_edits({TimingEdit::set_speed(gates.back(), 2.4),
                      TimingEdit::set_params(gates[1], q)});
  expect_engine_matches_full(engine);
  EXPECT_GT(engine.last_arrival_recomputes(), 0u);
}

TEST(IncrementalEngine, FullRecomputeIsIdempotentOnCaches) {
  const Circuit c = small_dag(60, 31);
  IncrementalEngine engine(c.view(), unit_speed(c.view()));
  engine.apply_edits({TimingEdit::set_speed(c.view().gates_in_topo_order()[5], 2.0)});
  const stat::NormalRV tmax = engine.tmax();
  const std::vector<stat::NormalRV> arrivals = engine.arrivals();
  engine.full_recompute();
  expect_rv_eq(engine.tmax(), tmax);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    expect_rv_eq(engine.arrivals()[i], arrivals[i]);
  }
}

TEST(IncrementalEngine, WholeLevelBatchMatchesFullRecompute) {
  // One batch that dirties every gate of the widest level. Its bucket runs as
  // one compute-commit-enqueue loop; committing a gate's arrival before the
  // next gate of the same level is computed must not change a bit, because
  // gates of one level never read each other.
  const Circuit c = small_dag(300, 37);
  IncrementalEngine engine(c.view(), unit_speed(c.view()));
  const TimingView& view = engine.view();
  int widest = 0;
  for (int l = 1; l < view.num_levels(); ++l) {
    if (view.level_gates(l).size() > view.level_gates(widest).size()) widest = l;
  }
  const netlist::NodeSpan level = view.level_gates(widest);
  ASSERT_GT(level.size(), 1u);
  std::vector<TimingEdit> batch;
  for (std::size_t i = 0; i < level.size(); ++i) {
    batch.push_back(TimingEdit::set_speed(level[i], 1.3 + 0.1 * static_cast<double>(i % 7)));
  }
  engine.apply_edits(batch);
  EXPECT_GE(engine.last_arrival_recomputes(), level.size());
  expect_engine_matches_full(engine);
}

TEST(IncrementalEngine, SameEditsGiveSameBitsAndWorkAtAnyThreadCount) {
  // The engine primes its caches with a full analysis and then runs a
  // worklist, both serial: arrivals, Tmax and the per-call work counters of
  // an edit sequence must not depend on --jobs.
  const Circuit c = small_dag(300, 41);
  const std::vector<NodeId>& gates = c.view().gates_in_topo_order();
  const std::vector<std::vector<TimingEdit>> batches = {
      {TimingEdit::set_speed(gates[3], 1.8)},
      {TimingEdit::set_speed(gates[gates.size() / 2], 0.7),
       TimingEdit::set_speed(gates[10], 2.2)},
      {TimingEdit::set_speed(gates.back(), 1.4)}};

  struct Run {
    std::vector<stat::NormalRV> arrivals;
    stat::NormalRV tmax;
    std::vector<std::size_t> work;
  };
  auto run = [&](int jobs) {
    runtime::set_threads(jobs);
    IncrementalEngine engine(c.view(), unit_speed(c.view()));
    Run r;
    for (const std::vector<TimingEdit>& batch : batches) {
      engine.apply_edits(batch);
      r.work.push_back(engine.last_delay_recomputes());
      r.work.push_back(engine.last_arrival_recomputes());
    }
    r.arrivals = engine.arrivals();
    r.tmax = engine.tmax();
    return r;
  };
  const Run one = run(1);
  const Run four = run(4);
  runtime::set_threads(0);  // back to auto

  EXPECT_EQ(one.work, four.work);
  expect_rv_eq(one.tmax, four.tmax);
  ASSERT_EQ(one.arrivals.size(), four.arrivals.size());
  for (std::size_t i = 0; i < one.arrivals.size(); ++i) {
    expect_rv_eq(one.arrivals[i], four.arrivals[i]);
  }
}

// ---------------------------------------------------------------------------
// Property suite: random mixed edit sequences, bit-identity of everything the
// stack serves (arrivals, Tmax, slacks, gradients) vs full recompute, at
// --jobs 1 and 4.

void run_edit_sequence_property(int jobs) {
  runtime::set_threads(jobs);

  // ~300 gates, swept serially at any jobs value: the property pins that
  // the thread count changes no answer.
  const Circuit c = small_dag(300, 77);
  const ssta::SigmaModel sigma{};
  IncrementalEngine engine(c.view(), unit_speed(c.view()), sigma);
  core::ReducedEvaluator warm_eval(engine.view(), sigma);
  const std::vector<NodeId>& gates = engine.view().gates_in_topo_order();
  const double deadline = engine.tmax().mu * 1.05;

  std::mt19937 rng(20260807u + static_cast<unsigned>(jobs) * 2u);
  std::uniform_int_distribution<std::size_t> pick_gate(0, gates.size() - 1);
  std::uniform_real_distribution<double> speed_dist(0.6, 2.4);
  std::uniform_real_distribution<double> scale_dist(0.9, 1.1);
  std::uniform_int_distribution<int> batch_size(1, 3);
  std::bernoulli_distribution is_speed_edit(0.5);

  for (int step = 0; step < 12; ++step) {
    std::vector<TimingEdit> batch;
    const int n = batch_size(rng);
    for (int i = 0; i < n; ++i) {
      const NodeId g = gates[pick_gate(rng)];
      if (is_speed_edit(rng)) {
        batch.push_back(TimingEdit::set_speed(g, speed_dist(rng)));
      } else {
        NodeParams p = engine.view().node_params(g);
        p.t_int *= scale_dist(rng);
        p.c *= scale_dist(rng);
        p.c_in *= scale_dist(rng);
        batch.push_back(TimingEdit::set_params(g, p));
      }
    }
    engine.apply_edits(batch);

    // Arrivals + Tmax, bitwise.
    const ssta::TimingReport fresh = fresh_report(engine);
    ASSERT_EQ(fresh.arrival.size(), engine.arrivals().size());
    for (std::size_t i = 0; i < fresh.arrival.size(); ++i) {
      EXPECT_EQ(fresh.arrival[i].mu, engine.arrivals()[i].mu) << "node " << i;
      EXPECT_EQ(fresh.arrival[i].var, engine.arrivals()[i].var) << "node " << i;
    }
    EXPECT_EQ(fresh.circuit_delay.mu, engine.tmax().mu);
    EXPECT_EQ(fresh.circuit_delay.var, engine.tmax().var);

    // Slacks computed from the engine's cached report vs the fresh one.
    const ssta::DelayCalculator calc(engine.view(), sigma);
    const std::vector<stat::NormalRV> delays = calc.all_delays(engine.speed());
    const ssta::SlackReport s_inc =
        ssta::compute_slacks(engine.view(), delays, engine.timing_report(), deadline);
    const ssta::SlackReport s_full =
        ssta::compute_slacks(engine.view(), delays, fresh, deadline);
    ASSERT_EQ(s_inc.slack.size(), s_full.slack.size());
    for (std::size_t i = 0; i < s_inc.slack.size(); ++i) {
      EXPECT_EQ(s_inc.slack[i].mu, s_full.slack[i].mu);
      EXPECT_EQ(s_inc.slack[i].var, s_full.slack[i].var);
    }

    // Gradients: the warm evaluator (persistent tape, dirty-cone re-eval;
    // a cold tape after a parameter edit bumps the epoch) vs a cold
    // evaluation on the same edited view.
    std::vector<double> g_warm, g_cold;
    const stat::NormalRV t_warm = warm_eval.eval_with_grad(engine.speed(), 1.0, 0.5, g_warm);
    core::ReducedEvaluator cold(engine.view(), sigma);
    const stat::NormalRV t_cold = cold.eval_with_grad(engine.speed(), 1.0, 0.5, g_cold);
    EXPECT_EQ(t_warm.mu, t_cold.mu);
    EXPECT_EQ(t_warm.var, t_cold.var);
    ASSERT_EQ(g_warm.size(), g_cold.size());
    for (std::size_t i = 0; i < g_warm.size(); ++i) {
      EXPECT_EQ(g_warm[i], g_cold[i]) << "grad " << i;
    }
  }
}

class EditSequenceProperty : public ::testing::Test {
 protected:
  void TearDown() override {
    runtime::set_threads(0);  // back to auto
  }
};

TEST_F(EditSequenceProperty, Jobs1) { run_edit_sequence_property(1); }
TEST_F(EditSequenceProperty, Jobs4) { run_edit_sequence_property(4); }

// ---------------------------------------------------------------------------
// ReducedEvaluator cache behaviour.

/// Applies `steps` seeded edit batches (1-4 edits each: mostly speeds in
/// [1, 3], one in four a t_int / c_in rescale) to an engine on `c` at seeded
/// speeds, checks every step against full_recompute() bit for bit, and
/// returns each step's delay and arrival recompute counts.
std::vector<std::size_t> seeded_edit_work(const Circuit& c, unsigned seed, int steps) {
  const TimingView& view = c.view();
  const std::vector<NodeId>& gates = view.gates_in_topo_order();
  std::mt19937 rng(seed);
  const auto draw_speed = [&rng] { return 1.0 + static_cast<double>(rng() % 1001) / 500.0; };
  std::vector<double> speed = unit_speed(view);
  for (const NodeId g : gates) speed[static_cast<std::size_t>(g)] = draw_speed();
  IncrementalEngine engine(view, speed, {0.25, 0.0});
  std::vector<std::size_t> work;
  for (int step = 0; step < steps; ++step) {
    std::vector<TimingEdit> batch;
    const unsigned edits = 1 + rng() % 4;
    for (unsigned e = 0; e < edits; ++e) {
      const NodeId g = gates[rng() % gates.size()];
      if (rng() % 4 != 0) {
        batch.push_back(TimingEdit::set_speed(g, draw_speed()));
        continue;
      }
      NodeParams p = engine.view().node_params(g);
      p.t_int *= 0.9 + static_cast<double>(rng() % 201) / 1000.0;
      p.c_in *= 0.9 + static_cast<double>(rng() % 201) / 1000.0;
      batch.push_back(TimingEdit::set_params(g, p));
    }
    engine.apply_edits(batch);
    work.push_back(engine.last_delay_recomputes());
    work.push_back(engine.last_arrival_recomputes());

    IncrementalEngine full = engine;
    full.full_recompute();
    for (std::size_t i = 0; i < full.arrivals().size(); ++i) {
      expect_rv_eq(engine.arrivals()[i], full.arrivals()[i]);
    }
    expect_rv_eq(engine.tmax(), full.tmax());
  }
  return work;
}

TEST(IncrementalEngine, SeededEditSequencesKeepTheirPinnedWork) {
  // The cone walk's work is part of its contract: which gates recompute a
  // delay and which refold is fixed by the edits, not by the order the walk
  // visits them in. Pairs of (delays, arrivals) per step.
  const std::vector<std::size_t> k2 = seeded_edit_work(netlist::make_mcnc_like("k2"), 7, 12);
  const std::vector<std::size_t> apex1 =
      seeded_edit_work(netlist::make_mcnc_like("apex1"), 11, 12);
  EXPECT_EQ(k2, (std::vector<std::size_t>{3, 746, 3, 10, 1, 1318, 4, 371, 8, 793, 11, 1278,
                                           10, 935, 4, 297, 5, 461, 9, 1167, 5, 924, 3, 916}));
  EXPECT_EQ(apex1, (std::vector<std::size_t>{8, 771, 11, 747, 6, 826, 8, 850, 3, 34, 3, 372,
                                              8, 710, 4, 710, 8, 584, 3, 602, 6, 374, 3, 307}));
}

TEST(ReducedEvaluatorCache, StepThatMovesEveryGateEqualsAColdTape) {
  // Two speed vectors that differ at every gate: the second taped_forward
  // walks the whole circuit through the cone, and must leave the tape a
  // cold one would, Tmax and gradient to the bit.
  const Circuit c = netlist::make_mcnc_like("k2");
  const ssta::SigmaModel sigma{0.25, 0.0};
  std::vector<double> first = unit_speed(c.view());
  std::vector<double> second = unit_speed(c.view());
  for (const NodeId g : c.view().gates_in_topo_order()) {
    first[static_cast<std::size_t>(g)] = 1.5;
    second[static_cast<std::size_t>(g)] = 1.0 + 0.001 * static_cast<double>(g % 997);
  }
  core::ReducedEvaluator warm(c.view(), sigma);
  std::vector<double> g_warm;
  std::vector<double> g_cold;
  warm.eval_with_grad(first, 1.0, 0.1, g_warm);
  const stat::NormalRV t_warm = warm.eval_with_grad(second, 1.0, 0.1, g_warm);
  EXPECT_EQ(warm.last_forward_recomputes(), static_cast<std::size_t>(c.view().num_gates()));
  const core::ReducedEvaluator cold(c.view(), sigma);
  const stat::NormalRV t_cold = cold.eval_with_grad(second, 1.0, 0.1, g_cold);
  expect_rv_eq(t_warm, t_cold);
  EXPECT_EQ(g_warm, g_cold);
}

TEST(ReducedEvaluatorCache, ConeReEvalTouchesFewerGatesThanFullSweep) {
  const Circuit c = small_dag(300, 41);
  const ssta::SigmaModel sigma{};
  core::ReducedEvaluator eval(c.view(), sigma);
  std::vector<double> speed = unit_speed(c.view());
  std::vector<double> grad;
  eval.eval_with_grad(speed, 1.0, 0.0, grad);  // primes the tape
  EXPECT_EQ(eval.last_forward_recomputes(),
            static_cast<std::size_t>(c.view().num_gates()));

  // Perturb a near-output gate: only its small cone refolds.
  const std::vector<NodeId>& gates = c.view().gates_in_topo_order();
  speed[static_cast<std::size_t>(gates.back())] = 1.5;
  eval.eval_with_grad(speed, 1.0, 0.0, grad);
  EXPECT_LT(eval.last_forward_recomputes(),
            static_cast<std::size_t>(c.view().num_gates()));
  EXPECT_GT(eval.last_forward_recomputes(), 0u);

  // invalidate() drops the tape: the next call builds a cold one, refolding
  // every gate.
  eval.invalidate();
  eval.eval_with_grad(speed, 1.0, 0.0, grad);
  EXPECT_EQ(eval.last_forward_recomputes(),
            static_cast<std::size_t>(c.view().num_gates()));
}

TEST(ReducedEvaluatorCache, UnnotedViewEditStillYieldsColdBits) {
  const Circuit c = small_dag(120, 43);
  const ssta::SigmaModel sigma{};
  TimingView view = c.view();
  core::ReducedEvaluator eval(view, sigma);
  const std::vector<double> speed = unit_speed(view);
  std::vector<double> g_warm, g_cold;
  eval.eval_with_grad(speed, 1.0, 0.0, g_warm);

  // Edit the view under the evaluator: the epoch mismatch must force a cold
  // tape, not a silently stale gradient.
  const NodeId g = view.gates_in_topo_order()[3];
  NodeParams p = view.node_params(g);
  p.t_int *= 1.3;
  view.update_node_params(g, p);

  const stat::NormalRV t_warm = eval.eval_with_grad(speed, 1.0, 0.0, g_warm);
  core::ReducedEvaluator cold(view, sigma);
  const stat::NormalRV t_cold = cold.eval_with_grad(speed, 1.0, 0.0, g_cold);
  EXPECT_EQ(t_warm.mu, t_cold.mu);
  EXPECT_EQ(t_warm.var, t_cold.var);
  for (std::size_t i = 0; i < g_warm.size(); ++i) EXPECT_EQ(g_warm[i], g_cold[i]);
}

TEST(ReducedEvaluatorCache, ZeroDelayGateIsFoldedOnColdTapeAndConstruction) {
  // z has t_int = c = 0, so its delay is exactly {0,0}: bit-equal to a fresh
  // slot, and its fanins are primary inputs that no refold reaches. The cold
  // tape and the engine's construction must fold it anyway.
  const netlist::CellLibrary& lib = netlist::CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId z = c.add_gate(lib.find("NAND2"), {a, b}, "z");
  const NodeId y = c.add_gate(lib.find("INV"), {z}, "y");
  const NodeId w = c.add_gate(lib.find("NAND2"), {z, b}, "w");
  c.mark_output(y);
  c.mark_output(w);
  c.finalize();
  TimingView view = c.view();
  NodeParams p = view.node_params(z);
  p.t_int = 0.0;
  p.c = 0.0;
  view.update_node_params(z, p);

  const ssta::SigmaModel sigma{};
  std::vector<double> speed = unit_speed(view);
  const ssta::DelayCalculator calc(view, sigma);
  ASSERT_EQ(calc.delay(z, speed).mu, 0.0);
  ASSERT_EQ(calc.delay(z, speed).var, 0.0);

  core::ReducedEvaluator eval(view, sigma);
  expect_rv_eq(eval.taped_forward(speed), ssta::run_ssta(calc, speed).circuit_delay);
  EXPECT_EQ(eval.last_forward_recomputes(), static_cast<std::size_t>(view.num_gates()));

  // A non-zero input arrival makes z's own arrival non-zero.
  const stat::NormalRV input{1.0, 0.04};
  IncrementalEngine engine(view, speed, sigma, input);
  const ssta::TimingReport want = ssta::run_ssta(view, calc.all_delays(speed), input);
  for (std::size_t i = 0; i < want.arrival.size(); ++i) {
    expect_rv_eq(engine.arrivals()[i], want.arrival[i]);
  }
  expect_rv_eq(engine.tmax(), want.circuit_delay);

  speed[static_cast<std::size_t>(y)] = 2.0;
  engine.apply_edits({TimingEdit::set_speed(y, 2.0)});
  const ssta::TimingReport moved = ssta::run_ssta(view, calc.all_delays(speed), input);
  for (std::size_t i = 0; i < moved.arrival.size(); ++i) {
    expect_rv_eq(engine.arrivals()[i], moved.arrival[i]);
  }
  expect_rv_eq(engine.tmax(), moved.circuit_delay);
}

// ---------------------------------------------------------------------------
// Sizer warm-start (resize) contract.

core::SizerOptions reduced_opts() {
  core::SizerOptions o;
  o.method = core::Method::kReducedSpace;
  return o;
}

TEST(SizerWarmStart, ResizeValidatesWarmStart) {
  const Circuit c = small_dag(40, 47);
  core::SizingSpec spec;
  const core::Sizer sizer(c, spec);
  core::SizingWarmStart warm;
  warm.speed.assign(3, 1.0);  // wrong size: must be indexed by NodeId
  EXPECT_THROW(sizer.resize(reduced_opts(), warm), std::invalid_argument);
  warm.speed.clear();
  warm.rho = std::nan("");
  EXPECT_THROW(sizer.resize(reduced_opts(), warm), std::invalid_argument);
}

/// Min area s.t. mean delay <= 40% of the way from the fastest to the
/// slowest uniform sizing's mean.
core::SizingSpec mid_deadline_area_spec(const Circuit& c) {
  core::SizingSpec spec;
  spec.objective = core::Objective::min_area();
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
  const double mu_min = ssta::run_ssta(calc, s).circuit_delay.mu;
  std::fill(s.begin(), s.end(), 1.0);
  const double mu_max = ssta::run_ssta(calc, s).circuit_delay.mu;
  spec.delay_constraint = core::DelayConstraint::at_most(mu_min + 0.4 * (mu_max - mu_min));
  return spec;
}

TEST(SizerWarmStart, ResizeRejectsNonFiniteMultiplier) {
  const Circuit c = small_dag(40, 47);
  const core::Sizer sizer(c, mid_deadline_area_spec(c));
  core::SizingWarmStart warm;
  warm.multipliers = {std::nan("")};  // one multiplier for the one delay row
  EXPECT_THROW(sizer.resize(reduced_opts(), warm), std::invalid_argument);
}

TEST(SizerWarmStart, ResizeUsesMultipliersOnlyWhenTheyFit) {
  // Multipliers and rho belong to the problem that made them. A full-space
  // result carries one per NLP row and an unconstrained reduced result none,
  // so a constrained reduced resize from either has nothing to resume: it
  // starts from the speeds alone, bit for bit as run() from them.
  const Circuit c = small_dag(40, 61);
  const core::SizingSpec spec = mid_deadline_area_spec(c);
  core::SizerOptions full;
  full.method = core::Method::kFullSpace;
  const core::SizingResult from_full = core::Sizer(c, spec).run(full);
  core::SizingSpec free_spec;
  free_spec.objective = core::Objective::min_delay(3.0);
  const core::SizingResult from_free = core::Sizer(c, free_spec).run(reduced_opts());

  const core::Sizer sizer(c, spec);
  for (const core::SizingResult* prev : {&from_full, &from_free}) {
    const core::SizingResult resized = sizer.resize(reduced_opts(), prev->warm);
    const core::SizingResult ref = sizer.run(reduced_opts(), prev->warm.speed);
    ASSERT_TRUE(ref.converged) << ref.status;
    ASSERT_GT(ref.outer_iterations, 1);
    EXPECT_EQ(resized.status, ref.status);
    EXPECT_EQ(resized.speed, ref.speed);
    EXPECT_EQ(resized.iterations, ref.iterations);
    EXPECT_EQ(resized.outer_iterations, ref.outer_iterations);
  }
}

TEST(SizerWarmStart, ViewConstructedSizerRunsFullSpace) {
  // Full space on a copy of the circuit's view is bit-identical to sizing
  // the Circuit itself, and it converges on an edited copy too.
  const Circuit c = small_dag(40, 53);
  TimingView view = c.view();
  core::SizingSpec spec;
  core::SizerOptions full;
  full.method = core::Method::kFullSpace;
  const core::SizingResult ref = core::Sizer(c, spec).run(full);
  const core::SizingResult copy = core::Sizer(view, spec).run(full);
  ASSERT_TRUE(ref.converged) << ref.status;
  EXPECT_EQ(copy.status, ref.status);
  EXPECT_EQ(copy.speed, ref.speed);
  EXPECT_EQ(copy.circuit_delay.mu, ref.circuit_delay.mu);
  EXPECT_EQ(copy.circuit_delay.var, ref.circuit_delay.var);
  EXPECT_EQ(copy.iterations, ref.iterations);

  const std::vector<NodeId>& gates = view.gates_in_topo_order();
  for (std::size_t i = 0; i < gates.size(); i += gates.size() / 4) {
    NodeParams p = view.node_params(gates[i]);
    p.t_int *= 1.1;
    view.update_node_params(gates[i], p);
  }
  const core::SizingResult edited = core::Sizer(view, spec).run(full);
  EXPECT_TRUE(edited.converged) << edited.status;
  EXPECT_GT(edited.circuit_delay.mu, ref.circuit_delay.mu);
}

TEST(SizerWarmStart, WarmResizeConvergesInFewerOuterIterationsThanCold) {
  // Solve a delay-constrained min-area instance, perturb a few cells' library
  // constants (~5%), and re-solve on the edited view: the warm start from the
  // base solve must need fewer AugLag outer iterations than a cold solve, and
  // land on an equivalent sizing.
  const Circuit c = small_dag(60, 59);
  const core::SizingSpec base_spec = [&] {
    core::SizingSpec spec;
    spec.objective = core::Objective::min_area();
    const ssta::DelayCalculator calc(c, spec.sigma_model);
    std::vector<double> s(static_cast<std::size_t>(c.num_nodes()), spec.max_speed);
    const double mu_min = ssta::run_ssta(calc, s).circuit_delay.mu;
    std::fill(s.begin(), s.end(), 1.0);
    const double mu_max = ssta::run_ssta(calc, s).circuit_delay.mu;
    spec.delay_constraint = core::DelayConstraint::at_most(mu_min + 0.4 * (mu_max - mu_min));
    return spec;
  }();

  const core::SizingResult base = core::Sizer(c, base_spec).run(reduced_opts());
  ASSERT_TRUE(base.converged) << base.status;
  ASSERT_GT(base.outer_iterations, 1);

  TimingView view = c.view();
  const std::vector<NodeId>& gates = view.gates_in_topo_order();
  for (std::size_t i = 0; i < gates.size(); i += gates.size() / 3) {
    NodeParams p = view.node_params(gates[i]);
    p.t_int *= 1.05;
    view.update_node_params(gates[i], p);
  }

  const core::Sizer resizer(view, base_spec);
  const core::SizingResult cold = resizer.run(reduced_opts());
  const core::SizingResult warm = resizer.resize(reduced_opts(), base.warm);
  ASSERT_TRUE(cold.converged) << cold.status;
  ASSERT_TRUE(warm.converged) << warm.status;

  EXPECT_LT(warm.outer_iterations, cold.outer_iterations);
  EXPECT_NEAR(warm.sum_speed, cold.sum_speed, 0.05 * cold.sum_speed + 0.1);
  EXPECT_LE(warm.constraint_violation, 1e-3);
}

}  // namespace
}  // namespace statsize
