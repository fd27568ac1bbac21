// LP-relaxation + rounding baseline for package evaluation.
//
// The paper's related-work section (Section 6, "ILP approximations")
// surveys linear-programming relaxation with rounding as the standard way
// to approximate ILPs, and notes that such methods still require the LP
// solver to ingest the entire problem — the same scalability wall as
// DIRECT. This module implements that baseline so experiments can compare
// it against DIRECT and SKETCHREFINE on both speed and quality:
//
//   1. solve the LP relaxation of the full package ILP (no integrality);
//   2. floor the fractional solution — a basic optimum has at most m
//      fractional variables, where m is the tiny number of constraint rows;
//   3. repair integrality by solving a "repair ILP" over just the
//      fractional variables (constraint bounds shifted by the floored
//      part), widening the candidate set once if the first repair is
//      infeasible.
//
// The result is always a feasible package (or an honest infeasible/failure
// status) whose objective is near the LP bound; the repair ILP has at most
// a few dozen variables, so the expensive step is exactly one LP solve —
// faster than branch-and-bound but, unlike SKETCHREFINE, still bound to
// whole-problem memory.
#ifndef PAQL_CORE_LP_ROUNDING_H_
#define PAQL_CORE_LP_ROUNDING_H_

#include "core/package.h"
#include "engine/exec_context.h"
#include "paql/ast.h"

namespace paql::core {

/// Statistics specific to the rounding pipeline (also folded into
/// EvalStats counters where they fit).
struct LpRoundingInfo {
  double lp_objective = 0;     // relaxation bound
  size_t fractional_vars = 0;  // candidates needing repair
  bool widened = false;        // second repair round was needed
};

/// Evaluates package queries by LP relaxation + rounding + ILP repair.
/// `limits` budgets the repair ILP (tiny; defaults suffice).
class LpRoundingEvaluator {
 public:
  explicit LpRoundingEvaluator(const relation::ColumnSource& table,
                               engine::ExecContext options = {});

  Result<EvalResult> Evaluate(const lang::PackageQuery& query) const;
  Result<EvalResult> Evaluate(const translate::CompiledQuery& query) const;

  /// Like Evaluate but also reports the rounding-specific info.
  Result<EvalResult> EvaluateWithInfo(const translate::CompiledQuery& query,
                                      LpRoundingInfo* info) const;

 private:
  const relation::ColumnSource* table_;
  engine::ExecContext options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_LP_ROUNDING_H_
