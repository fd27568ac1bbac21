// DIRECT package evaluation (Section 3.2 of the paper).
//
// Three steps: (1) translate the PaQL query into an ILP, (2) compute the
// base relation and eliminate excluded variables, (3) hand the whole ILP to
// the solver. DIRECT is exact but inherits the solver's failure modes on
// large or combinatorially hard inputs — the SolverLimits budgets reproduce
// those failures (see ilp/solver_limits.h).
#ifndef PAQL_CORE_DIRECT_H_
#define PAQL_CORE_DIRECT_H_

#include "core/package.h"
#include "engine/exec_context.h"
#include "paql/ast.h"

namespace paql::core {

/// Evaluates package queries by solving one ILP over the full base relation.
/// DIRECT has no strategy-specific knobs: `limits` budgets the single
/// whole-problem solve and `cancel` is polled before handing the ILP to
/// the solver.
class DirectEvaluator {
 public:
  explicit DirectEvaluator(const relation::ColumnSource& table,
                           engine::ExecContext options = {});

  /// Parse-compile-and-evaluate convenience entry point.
  Result<EvalResult> Evaluate(const lang::PackageQuery& query) const;

  /// Evaluate a precompiled query (reuse across dataset fractions).
  Result<EvalResult> Evaluate(const translate::CompiledQuery& query) const;

  /// Evaluate over an explicit candidate row subset (used by benches that
  /// sweep dataset fractions). Rows are ids into the evaluator's table; the
  /// base predicate is applied on top of the subset.
  Result<EvalResult> EvaluateOnRows(
      const translate::CompiledQuery& query,
      const std::vector<relation::RowId>& rows) const;

  const relation::ColumnSource& table() const { return *table_; }

 private:
  /// Steps 1+3 over an already-filtered candidate set. `filter_seconds`
  /// (the base-relation scan) is folded into the reported timings.
  Result<EvalResult> SolveCandidates(
      const translate::CompiledQuery& query,
      const std::vector<relation::RowId>& candidates,
      double filter_seconds) const;

  const relation::ColumnSource* table_;
  engine::ExecContext options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_DIRECT_H_
