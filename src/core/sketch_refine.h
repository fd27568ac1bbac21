// SKETCHREFINE: scalable approximate package evaluation (Section 4).
//
// The algorithm assumes an offline partitioning of the input relation into
// groups of similar tuples with centroid representatives (partition/
// partitioner.h). Evaluation proceeds in two phases:
//
//  SKETCH  — solve the package query over the m representatives only, with
//            per-representative repetition bounds |G_j|*(K+1) standing in
//            for the group members (Section 4.2.1). If the sketch is
//            infeasible, the *hybrid sketch query* fallback (Section 4.4,
//            remedy 1) retries with one group's original tuples merged in,
//            trying groups until one is feasible.
//
//  REFINE  — greedy backtracking refinement (Algorithm 2): one group at a
//            time, replace the group's representatives by original tuples
//            by solving a subproblem whose constraint bounds are shifted by
//            the aggregates of the rest of the package; on infeasibility,
//            backtrack and prioritize the failed groups.
//
// Every subproblem is solved as one ILP over its candidates, so a refine
// ILP has one variable per candidate of its group. The paper (Sections
// 4.2.1/4.2.2) also allows re-partitioning an oversized subproblem and
// recursing one level down; this implementation does not, and the offline
// partitioning's size threshold is what keeps refine ILPs small.
//
// Guarantees: SKETCHREFINE returns feasible packages only; with a radius-
// limited partitioning (omega from Theorem 3 Eq. 1) the objective is within
// (1 +/- epsilon)^6 of DIRECT's. False infeasibility is possible but rare
// (Theorem 4); the hybrid sketch reduces it further.
#ifndef PAQL_CORE_SKETCH_REFINE_H_
#define PAQL_CORE_SKETCH_REFINE_H_

#include "core/package.h"
#include "engine/exec_context.h"
#include "paql/ast.h"
#include "partition/partitioner.h"

namespace paql::core {

/// Strategy-specific knobs on top of the shared execution context. The
/// inherited fields map onto SKETCHREFINE as follows: `limits.time_limit_s`
/// bounds the whole run (each sketch, refine and hybrid ILP gets only the
/// time that remains, and the run returns kResourceExhausted once none
/// does), while the node and memory caps apply to each of those ILPs;
/// `seed` randomizes the hybrid-sketch group order and the initial
/// refinement order of Algorithm 2; `cancel` is checked before every
/// subproblem solve.
struct SketchRefineOptions : engine::ExecContext {
  /// Enable the hybrid sketch fallback (the paper's experiments use it as
  /// "the only strategy to cope with infeasible initial queries").
  bool use_hybrid_sketch = true;
};

/// The representative relation of `partitioning` (made over `table`) with
/// every numeric column `query` reads filled: the objective's columns and
/// every leaf constraint's, aggregate filters included
/// (partition::Partitioning::Representatives). `fill` (optional)
/// accumulates what this call computed.
const relation::Table& QueryRepresentatives(
    const relation::ColumnSource& table,
    const partition::Partitioning& partitioning,
    const translate::CompiledQuery& query,
    partition::RepresentativeFill* fill = nullptr);

/// Evaluates package queries with the SKETCHREFINE algorithm over a fixed
/// table + offline partitioning.
class SketchRefineEvaluator {
 public:
  SketchRefineEvaluator(const relation::ColumnSource& table,
                        const partition::Partitioning& partitioning,
                        SketchRefineOptions options = {});

  Result<EvalResult> Evaluate(const lang::PackageQuery& query) const;
  Result<EvalResult> Evaluate(const translate::CompiledQuery& query) const;

  const relation::ColumnSource& table() const { return *table_; }
  const partition::Partitioning& partitioning() const { return *partitioning_; }

 private:
  const relation::ColumnSource* table_;
  const partition::Partitioning* partitioning_;
  SketchRefineOptions options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_SKETCH_REFINE_H_
