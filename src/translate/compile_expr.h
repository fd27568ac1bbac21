// Compilation of PaQL per-tuple expressions into fast evaluators.
//
// Column references are resolved against a schema once; the resulting
// closures evaluate against any table sharing that schema prefix (the
// original relation, a group sub-table, or the representative relation,
// which appends a `gid` column after the original columns).
#ifndef PAQL_TRANSLATE_COMPILE_EXPR_H_
#define PAQL_TRANSLATE_COMPILE_EXPR_H_

#include <functional>

#include "common/status.h"
#include "paql/ast.h"
#include "relation/schema.h"
#include "relation/column_source.h"
#include "relation/table.h"
#include "translate/vector_expr.h"

namespace paql::translate {

/// Per-tuple numeric evaluator. Returns NaN when any referenced column is
/// NULL for the row (SQL three-valued logic: comparisons on NaN are false).
using RowFn =
    std::function<double(const relation::ColumnSource&, relation::RowId)>;

/// Per-tuple predicate evaluator.
using RowPred =
    std::function<bool(const relation::ColumnSource&, relation::RowId)>;

/// Compile a numeric scalar expression. Fails on string-typed operands
/// (validated queries never reach that path).
Result<RowFn> CompileScalar(const lang::ScalarExpr& expr,
                            const relation::Schema& schema);

/// Compile a boolean (WHERE-style) expression. Supports numeric comparisons,
/// string equality/inequality, BETWEEN, AND/OR/NOT, IS [NOT] NULL.
Result<RowPred> CompileBool(const lang::BoolExpr& expr,
                            const relation::Schema& schema);

/// Compile the aggregate argument of `call` into a per-tuple value function:
/// COUNT contributes 1.0 per tuple; other aggregates evaluate their argument
/// expression with NULL treated as 0 (SQL aggregates skip NULLs). The
/// optional subquery filter is compiled into the returned pair's predicate
/// (nullptr-equivalent: always-true).
///
/// Alongside the scalar closures, CompileAggArg compiles the batch twins
/// (vector_expr.h) that every evaluation entry point runs; the scalar pair
/// is the reference they are checked against. Both compilers accept the
/// same expressions, so a batch compilation failure is returned as the
/// error.
struct CompiledAggArg {
  RowFn value;     // per-tuple contribution
  RowPred filter;  // may be empty => always true

  BatchFn batch_value;    // batch twin of `value`
  BatchPred batch_filter; // batch twin of `filter`; empty => always true
};
Result<CompiledAggArg> CompileAggArg(const lang::AggCall& call,
                                     const relation::Schema& schema);

/// SUM of `arg` over every row of `table` passing its filter — the scalar
/// reference loop (one RowFn/RowPred call per row).
double AggregateSumScalar(const relation::ColumnSource& table,
                          const CompiledAggArg& arg);

/// Vectorized twin of AggregateSumScalar, accumulating chunk at a time in
/// the same row order (bit-identical result).
double AggregateSumVectorized(const relation::ColumnSource& table,
                              const CompiledAggArg& arg);

}  // namespace paql::translate

#endif  // PAQL_TRANSLATE_COMPILE_EXPR_H_
