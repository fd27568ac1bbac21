// Ratio (AVG) objectives via Dinkelbach's parametric algorithm.
//
// The paper limits package queries to linear aggregate functions and defers
// non-linear objectives to future work (Section 2.1); its translation
// rejects MINIMIZE/MAXIMIZE AVG(...) because a ratio of two package sums
//
//          SUM(P.attr)        sum_i a_i x_i
//   AVG = ------------    =   -------------
//          COUNT(P.*)          sum_i  x_i
//
// has no linear encoding. This module implements that future-work feature
// exactly, using the classic reduction from fractional to parametric linear
// programming (Dinkelbach 1967): minimizing p(x)/q(x) over a feasible set
// with q > 0 is equivalent to finding the root lambda* of
//
//   F(lambda) = min { p(x) - lambda * q(x) },
//
// and F is piecewise-linear and strictly decreasing, so the iteration
// lambda_{k+1} = p(x_k)/q(x_k) converges superlinearly — and *finitely*
// here, because x ranges over finitely many packages. Each iteration is one
// ordinary package ILP with re-weighted objective coefficients
// (a_i - lambda), solved by the same branch-and-bound as DIRECT.
//
// Semantics:
//  * The AVG argument may carry a subquery filter; tuples failing the
//    filter contribute to neither numerator nor denominator.
//  * Packages with an empty (filtered) denominator have undefined AVG; the
//    evaluator adds the implicit constraint COUNT(filtered) >= 1 and
//    reports infeasibility when no such package exists.
//  * All SUCH THAT constraints, WHERE, and REPEAT behave exactly as in
//    DIRECT.
#ifndef PAQL_CORE_RATIO_OBJECTIVE_H_
#define PAQL_CORE_RATIO_OBJECTIVE_H_

#include "core/package.h"
#include "engine/exec_context.h"
#include "paql/ast.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::core {

/// Evaluates package queries whose objective is MINIMIZE/MAXIMIZE AVG(...).
/// The rest of the query (WHERE / SUCH THAT / REPEAT) is unrestricted
/// within PaQL's linear fragment. `branch_and_bound` and the node and
/// memory `limits` budget each inner ILP solve (one per parametric
/// iteration); the time limit covers all iterations together.
class RatioObjectiveEvaluator {
 public:
  explicit RatioObjectiveEvaluator(const relation::ColumnSource& table,
                                   engine::ExecContext options = {});

  /// Returns the optimal package and its AVG objective value. Fails with
  /// kInvalidArgument when the query's objective is not a bare AVG call,
  /// kInfeasible when no package with a non-empty denominator satisfies the
  /// constraints.
  Result<EvalResult> Evaluate(const lang::PackageQuery& query) const;

  const relation::ColumnSource& table() const { return *table_; }

 private:
  const relation::ColumnSource* table_;
  engine::ExecContext options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_RATIO_OBJECTIVE_H_
