#include "translate/compile_expr.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "translate/string_operand.h"

namespace paql::translate {

using lang::BoolExpr;
using lang::BoolKind;
using lang::CmpOp;
using lang::ScalarExpr;
using lang::ScalarKind;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::ColumnSource;
using relation::Table;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Result<RowFn> CompileScalar(const ScalarExpr& expr, const Schema& schema) {
  switch (expr.kind) {
    case ScalarKind::kColumn: {
      PAQL_ASSIGN_OR_RETURN(size_t col, schema.ResolveColumn(expr.column));
      if (IsStringColumn(schema, col)) {
        return Status::InvalidArgument(
            StrCat("string column '", expr.column,
                   "' in numeric expression"));
      }
      return RowFn([col](const ColumnSource& t, RowId r) {
        return t.IsNull(r, col) ? kNan : t.GetDouble(r, col);
      });
    }
    case ScalarKind::kLiteral: {
      if (!expr.literal.is_numeric()) {
        return Status::InvalidArgument(
            StrCat("non-numeric literal in numeric expression: ",
                   expr.literal.ToString()));
      }
      double v = expr.literal.AsDouble();
      return RowFn([v](const ColumnSource&, RowId) { return v; });
    }
    case ScalarKind::kUnaryMinus: {
      PAQL_ASSIGN_OR_RETURN(RowFn inner, CompileScalar(*expr.lhs, schema));
      return RowFn([inner](const ColumnSource& t, RowId r) { return -inner(t, r); });
    }
    case ScalarKind::kAdd:
    case ScalarKind::kSub:
    case ScalarKind::kMul:
    case ScalarKind::kDiv: {
      PAQL_ASSIGN_OR_RETURN(RowFn lhs, CompileScalar(*expr.lhs, schema));
      PAQL_ASSIGN_OR_RETURN(RowFn rhs, CompileScalar(*expr.rhs, schema));
      switch (expr.kind) {
        case ScalarKind::kAdd:
          return RowFn([lhs, rhs](const ColumnSource& t, RowId r) {
            return lhs(t, r) + rhs(t, r);
          });
        case ScalarKind::kSub:
          return RowFn([lhs, rhs](const ColumnSource& t, RowId r) {
            return lhs(t, r) - rhs(t, r);
          });
        case ScalarKind::kMul:
          return RowFn([lhs, rhs](const ColumnSource& t, RowId r) {
            return lhs(t, r) * rhs(t, r);
          });
        default:
          return RowFn([lhs, rhs](const ColumnSource& t, RowId r) {
            return lhs(t, r) / rhs(t, r);
          });
      }
    }
  }
  return Status::Internal("unreachable scalar kind");
}

Result<RowPred> CompileBool(const BoolExpr& expr, const Schema& schema) {
  switch (expr.kind) {
    case BoolKind::kCmp: {
      // String comparison path (equality only; enforced by the validator).
      if (IsStringExpr(*expr.scalar_lhs, schema) ||
          IsStringExpr(*expr.scalar_rhs, schema)) {
        if (expr.cmp != CmpOp::kEq && expr.cmp != CmpOp::kNe) {
          return Status::Unsupported("string ordering comparison");
        }
        PAQL_ASSIGN_OR_RETURN(StringOperand lhs,
                              CompileStringOperand(*expr.scalar_lhs, schema));
        PAQL_ASSIGN_OR_RETURN(StringOperand rhs,
                              CompileStringOperand(*expr.scalar_rhs, schema));
        bool negate = expr.cmp == CmpOp::kNe;
        return RowPred([lhs, rhs, negate](const ColumnSource& t, RowId r) {
          if (lhs.is_column && t.IsNull(r, lhs.col)) return false;
          if (rhs.is_column && t.IsNull(r, rhs.col)) return false;
          const std::string& a =
              lhs.is_column ? t.GetString(r, lhs.col) : lhs.literal;
          const std::string& b =
              rhs.is_column ? t.GetString(r, rhs.col) : rhs.literal;
          return (a == b) != negate;
        });
      }
      PAQL_ASSIGN_OR_RETURN(RowFn lhs, CompileScalar(*expr.scalar_lhs, schema));
      PAQL_ASSIGN_OR_RETURN(RowFn rhs, CompileScalar(*expr.scalar_rhs, schema));
      CmpOp op = expr.cmp;
      return RowPred([lhs, rhs, op](const ColumnSource& t, RowId r) {
        double a = lhs(t, r), b = rhs(t, r);
        // NaN (NULL) comparisons are false, matching SQL.
        switch (op) {
          case CmpOp::kEq: return a == b;
          case CmpOp::kNe: return a != b && !std::isnan(a) && !std::isnan(b);
          case CmpOp::kLt: return a < b;
          case CmpOp::kLe: return a <= b;
          case CmpOp::kGt: return a > b;
          case CmpOp::kGe: return a >= b;
        }
        return false;
      });
    }
    case BoolKind::kBetween: {
      PAQL_ASSIGN_OR_RETURN(RowFn subject,
                            CompileScalar(*expr.scalar_lhs, schema));
      PAQL_ASSIGN_OR_RETURN(RowFn lo, CompileScalar(*expr.between_lo, schema));
      PAQL_ASSIGN_OR_RETURN(RowFn hi, CompileScalar(*expr.between_hi, schema));
      return RowPred([subject, lo, hi](const ColumnSource& t, RowId r) {
        double v = subject(t, r);
        return v >= lo(t, r) && v <= hi(t, r);
      });
    }
    case BoolKind::kAnd: {
      PAQL_ASSIGN_OR_RETURN(RowPred lhs, CompileBool(*expr.left, schema));
      PAQL_ASSIGN_OR_RETURN(RowPred rhs, CompileBool(*expr.right, schema));
      return RowPred([lhs, rhs](const ColumnSource& t, RowId r) {
        return lhs(t, r) && rhs(t, r);
      });
    }
    case BoolKind::kOr: {
      PAQL_ASSIGN_OR_RETURN(RowPred lhs, CompileBool(*expr.left, schema));
      PAQL_ASSIGN_OR_RETURN(RowPred rhs, CompileBool(*expr.right, schema));
      return RowPred([lhs, rhs](const ColumnSource& t, RowId r) {
        return lhs(t, r) || rhs(t, r);
      });
    }
    case BoolKind::kNot: {
      PAQL_ASSIGN_OR_RETURN(RowPred inner, CompileBool(*expr.left, schema));
      return RowPred(
          [inner](const ColumnSource& t, RowId r) { return !inner(t, r); });
    }
    case BoolKind::kIsNull:
    case BoolKind::kIsNotNull: {
      if (expr.scalar_lhs->kind != ScalarKind::kColumn) {
        return Status::Unsupported(
            "IS NULL is only supported on column references");
      }
      PAQL_ASSIGN_OR_RETURN(size_t col,
                            schema.ResolveColumn(expr.scalar_lhs->column));
      bool want_null = expr.kind == BoolKind::kIsNull;
      return RowPred([col, want_null](const ColumnSource& t, RowId r) {
        return t.IsNull(r, col) == want_null;
      });
    }
  }
  return Status::Internal("unreachable bool kind");
}

Result<CompiledAggArg> CompileAggArg(const lang::AggCall& call,
                                     const Schema& schema) {
  CompiledAggArg out;
  if (call.is_count_star || call.func == relation::AggFunc::kCount) {
    out.value = [](const ColumnSource&, RowId) { return 1.0; };
    out.batch_value = [](const ColumnSource&, const relation::RowSpan& span,
                         relation::NumericBatch* batch) {
      std::fill_n(batch->values.data(), span.len, 1.0);
      batch->ClearNulls();
    };
  } else {
    PAQL_ASSIGN_OR_RETURN(RowFn fn, CompileScalar(*call.arg, schema));
    // SQL aggregates skip NULLs; a NULL argument contributes nothing.
    out.value = [fn](const ColumnSource& t, RowId r) {
      double v = fn(t, r);
      return std::isnan(v) ? 0.0 : v;
    };
    // Batch twin: same NULL-to-zero mapping, lane at a time.
    PAQL_ASSIGN_OR_RETURN(BatchFn inner, CompileScalarBatch(*call.arg, schema));
    out.batch_value = [inner](const ColumnSource& t, const relation::RowSpan& span,
                              relation::NumericBatch* b) {
      inner(t, span, b);
      for (uint32_t i = 0; i < span.len; ++i) {
        if (std::isnan(b->values[i])) b->values[i] = 0.0;
      }
    };
  }
  if (call.filter) {
    PAQL_ASSIGN_OR_RETURN(out.filter, CompileBool(*call.filter, schema));
    PAQL_ASSIGN_OR_RETURN(out.batch_filter,
                          CompileBoolBatch(*call.filter, schema));
  }
  return out;
}

double AggregateSumScalar(const ColumnSource& table, const CompiledAggArg& arg) {
  double total = 0;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (arg.filter && !arg.filter(table, r)) continue;
    total += arg.value(table, r);
  }
  return total;
}

double AggregateSumVectorized(const ColumnSource& table, const CompiledAggArg& arg) {
  double total = 0;
  relation::NumericBatch batch;
  relation::SelectionVector sel;
  const size_t n = table.num_rows();
  for (size_t start = 0; start < n; start += relation::kChunkSize) {
    relation::RowSpan span;
    span.start = static_cast<RowId>(start);
    span.len =
        static_cast<uint32_t>(std::min(relation::kChunkSize, n - start));
    sel.MakeDense(span.len);
    if (arg.batch_filter) arg.batch_filter(table, span, &sel);
    if (sel.empty()) continue;
    arg.batch_value(table, span, &batch);
    for (uint32_t k = 0; k < sel.count; ++k) {
      total += batch.values[sel.idx[k]];
    }
  }
  return total;
}

}  // namespace paql::translate
