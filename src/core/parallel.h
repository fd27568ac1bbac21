// Parallel SKETCHREFINE (paper Section 4.5, "Parallelizing SketchRefine").
//
// The paper sketches two parallelization strategies and flags the risk of
// each; this module implements both so the ablation bench can quantify the
// trade-off:
//
//  * kGroupParallel — "perform refinement on several groups in parallel".
//    One sketch is solved, then every group's refine query runs on its own
//    thread against the *initial* sketch state (all other groups held at
//    their representative multiplicities). Because each refinement makes
//    local decisions without seeing the others' replacements, the combined
//    package can violate the global constraints — the exact failure mode
//    the paper predicts ("this process is more likely to reach
//    infeasibility"). On any conflict or per-group infeasibility the
//    evaluator falls back to the sequential algorithm, so results are
//    always correct; the speculative pass is a fast path.
//
//  * kOrderingRace — "parallelization may focus on the backtracking
//    process, using additional resources to evaluate different group
//    orderings in parallel". N sequential evaluations with different
//    refinement-order seeds race; the first feasible result cancels the
//    rest (via SketchRefineOptions::cancel). Latency equals the luckiest
//    ordering instead of the unluckiest, which pays off exactly when
//    greedy backtracking is ordering-sensitive.
//
// Both modes return packages that satisfy all query constraints; only the
// objective may differ from the sequential algorithm's (each refine query
// is locally optimal, and which local optima combine depends on order).
//
// The engine does not route to this evaluator: plain SKETCHREFINE already
// spends ExecContext::threads on its scans and its branch-and-bound, and
// on a 4-core host neither mode beat it at 40k Galaxy rows. The module
// stays as the §4.5 ablation (bench/ablation_parallel) and its tests.
#ifndef PAQL_CORE_PARALLEL_H_
#define PAQL_CORE_PARALLEL_H_

#include "core/sketch_refine.h"

namespace paql::core {

enum class ParallelMode {
  kGroupParallel,  // speculative parallel refinement + sequential fallback
  kOrderingRace,   // race N refinement orders, first feasible wins
};

const char* ParallelModeName(ParallelMode mode);

struct ParallelOptions {
  /// Options for the underlying sketch/refine machinery (and the
  /// sequential fallback). Its inherited ExecContext fields apply to every
  /// worker; `sketch_refine.seed` is the base seed for kOrderingRace
  /// (racer i refines with seed + i).
  SketchRefineOptions sketch_refine;

  ParallelMode mode = ParallelMode::kGroupParallel;

  /// Worker count override. 0 (the default) inherits the engine-level
  /// knob — `sketch_refine.threads`, i.e. ExecContext::threads; a
  /// positive value pins this evaluator's fan-out regardless of the
  /// context (how bench/ablation_parallel sweeps it). For kOrderingRace
  /// the resolved count is also the number of orderings raced. Workers
  /// are borrowed from the shared process-wide pool (common/
  /// thread_pool.h), not spawned.
  int num_threads = 0;
};

/// Parallel package evaluation over a fixed table + offline partitioning.
class ParallelSketchRefineEvaluator {
 public:
  ParallelSketchRefineEvaluator(const relation::ColumnSource& table,
                                const partition::Partitioning& partitioning,
                                ParallelOptions options = {});

  Result<EvalResult> Evaluate(const lang::PackageQuery& query) const;
  Result<EvalResult> Evaluate(const translate::CompiledQuery& query) const;

 private:
  Result<EvalResult> EvaluateGroupParallel(
      const translate::CompiledQuery& query) const;
  Result<EvalResult> EvaluateOrderingRace(
      const translate::CompiledQuery& query) const;

  const relation::ColumnSource* table_;
  const partition::Partitioning* partitioning_;
  ParallelOptions options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_PARALLEL_H_
