// Naive SQL self-join package evaluation (Section 2 of the paper).
//
// The paper's Figure 1 baseline expresses a cardinality-c package query as
// a c-way self-join:
//
//   SELECT * FROM R R1, ..., R Rc
//   WHERE R1.pk < R2.pk AND ... AND <base predicates on each Ri>
//     AND <global predicates over R1..Rc aggregates>
//   ORDER BY <objective over R1..Rc>
//
// A relational engine evaluates this by enumerating all C(n, c) ordered
// combinations — exponential in the package cardinality. This evaluator
// reproduces that cost model: it enumerates index-ordered combinations,
// checks the global predicates on each, and keeps the objective-optimal
// one. It exists to regenerate Figure 1, not for practical use.
#ifndef PAQL_CORE_NAIVE_H_
#define PAQL_CORE_NAIVE_H_

#include "core/package.h"
#include "paql/ast.h"

namespace paql::core {

struct NaiveOptions {
  /// Wall-clock budget; <= 0 = unlimited. The SQL formulation quickly takes
  /// hours (the paper measured ~24h at cardinality 7 on 100 tuples), so
  /// benches run it with a small budget and report the timeout.
  double time_limit_s = 0;
};

/// Exhaustive self-join-style evaluator for fixed-cardinality queries with
/// REPEAT 0 (the only case the self-join formulation supports; Section 2).
class NaiveSelfJoinEvaluator {
 public:
  explicit NaiveSelfJoinEvaluator(const relation::Table& table,
                                  NaiveOptions options = {});

  /// Evaluate `query`, which must constrain the package to exactly
  /// `cardinality` tuples (the caller supplies c, mirroring how the SQL
  /// formulation hard-codes the number of self-joins).
  Result<EvalResult> Evaluate(const translate::CompiledQuery& query,
                              int cardinality) const;

  /// Number of combinations the self-join enumerates: C(n, c).
  static double CombinationCount(size_t n, int c);

 private:
  const relation::Table* table_;
  NaiveOptions options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_NAIVE_H_
