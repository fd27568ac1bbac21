// ExecContext: the execution settings shared by every evaluation strategy.
//
// Solver budgets, branch-and-bound settings, the seed, cancellation and
// the worker count live here once. DIRECT and the ratio objective
// evaluator take an ExecContext as is; the options structs that
// remain in core/ (SKETCHREFINE, top-k) derive from it and add only their
// strategy-specific knobs.
//
// Header-only on purpose: core/ includes this file from its evaluators
// while the engine *library* (planner, facade) links against core/ —
// keeping the dependency arrow between the two libraries acyclic.
#ifndef PAQL_ENGINE_EXEC_CONTEXT_H_
#define PAQL_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "common/thread_pool.h"
#include "ilp/branch_and_bound.h"
#include "ilp/solver_limits.h"

namespace paql::engine {

/// Wall-clock seconds spent in each stage of Session::Execute's
/// parse -> validate -> compile -> plan -> evaluate pipeline (reported in
/// QueryResult::timings).
struct PhaseTimings {
  double parse_seconds = 0;
  double resolve_seconds = 0;    // FROM binding + join materialization
  double compile_seconds = 0;    // semantic validation + PaQL -> ILP
  double plan_seconds = 0;       // strategy choice + partitioning build/lookup
  double evaluate_seconds = 0;   // the chosen strategy, end to end
  double total_seconds = 0;

  void Reset() { *this = PhaseTimings(); }
};

/// Execution settings every strategy understands. A default-constructed
/// context means: unlimited solver budgets, default branch-and-bound, no
/// cancellation, seed 42.
struct ExecContext {
  /// Solver budgets. The node and memory caps apply to each ILP solve the
  /// strategy performs. The time limit bounds DIRECT's single solve and a
  /// whole run of the strategies that solve several ILPs: a SKETCHREFINE
  /// run, a Dinkelbach run and a top-k enumeration each start one deadline
  /// at their first solve, and every later solve gets only what remains of
  /// it (ilp::RemainingLimits).
  ilp::SolverLimits limits;

  /// Branch-and-bound settings for those solves. Its `warm_start` is the
  /// one warm-start switch: it warm-starts every node LP from its parent's
  /// basis, lets DIRECT use `warm_basis`, and lets the SKETCHREFINE refine
  /// loop patch row bounds of a cached model
  /// (CompiledQuery::UpdateModelOffsets) instead of rebuilding it. Results
  /// are identical either way (the differential warm-vs-cold sweep enforces
  /// it).
  ilp::BranchAndBoundOptions branch_and_bound;

  /// Optional cooperative-cancellation flag, polled between (sub)problem
  /// solves. When another thread sets it, evaluation stops with
  /// kResourceExhausted. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;

  /// Optional cross-solve warm-start carrier for the strategy's main ILP
  /// solve (DIRECT today). The session points this at a local seeded from
  /// the cross-query cache: the solve restores the previous identical
  /// statement's root basis and deposits its own on the way out. Not
  /// owned; may be null (every solve then starts from scratch as before).
  /// Only consulted when `branch_and_bound.warm_start` is on.
  ilp::IlpWarmStart* warm_basis = nullptr;

  /// Seed for any randomized choice a strategy makes (SKETCHREFINE's
  /// hybrid-sketch group order and initial refinement order).
  uint64_t seed = 42;

  /// Worker threads for intra-query parallelism: the morsel-driven chunk
  /// pipeline (parallel scans, coefficient fills, per-group partitioning
  /// statistics) and the concurrent branch-and-bound search all draw this
  /// many workers from the shared process-wide pool. 0 = hardware
  /// concurrency (the default), 1 = the serial behaviour of earlier
  /// releases, reproduced exactly (same scans, same search order, same
  /// bits). Results for threads=N are identical to threads=1 up to
  /// branch-and-bound tie-breaking among equally-optimal incumbents (the
  /// differential sweep enforces feasibility + objective equality).
  int threads = 0;

  /// The resolved worker count (>= 1): `threads`, with 0 mapped to the
  /// hardware concurrency.
  int EffectiveThreads() const { return ClampThreads(threads); }

  /// Branch-and-bound options with the context-level threads knob applied
  /// — what every strategy hands to ilp::SolveIlp. Every other solver
  /// setting (warm start, partial pricing, dual steepest edge, presolve,
  /// reduced-cost fixing) comes from `branch_and_bound` as is.
  ilp::BranchAndBoundOptions EffectiveBranchAndBound() const {
    ilp::BranchAndBoundOptions bnb = branch_and_bound;
    bnb.threads = EffectiveThreads();
    return bnb;
  }

  /// True once `cancel` has been set by another thread.
  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

}  // namespace paql::engine

#endif  // PAQL_ENGINE_EXEC_CONTEXT_H_
