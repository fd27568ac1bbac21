// Unit tests for the vectorized batch kernels (translate/vector_expr.h and
// relation/chunk.h): column loads with NULL bitmap edges, arithmetic and
// comparison kernels with NaN (NULL) semantics, selection-vector algebra
// (AND/OR/NOT, empty selections), string comparisons, IS NULL, aggregate
// argument batch twins, and chunk-boundary sizes (1023/1024/1025).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "model_check_util.h"
#include "paql/parser.h"
#include "relation/chunk.h"
#include "translate/compile_expr.h"
#include "translate/compiled_query.h"
#include "translate/vector_expr.h"

namespace paql::translate {
namespace {

using relation::ColumnDef;
using relation::DataType;
using relation::kChunkSize;
using relation::NumericBatch;
using relation::RowId;
using relation::RowSpan;
using relation::Schema;
using relation::SelectionVector;
using relation::Table;
using relation::Value;

/// a DOUBLE, b DOUBLE, i INT64, s STRING — with NULLs sprinkled in.
Table MakeTable(size_t rows, uint64_t seed = 7, double null_p = 0.15) {
  Table t{Schema({{"a", DataType::kDouble},
                  {"b", DataType::kDouble},
                  {"i", DataType::kInt64},
                  {"s", DataType::kString}})};
  Rng rng(seed);
  const char* strings[] = {"red", "green", "blue"};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(4);
    row[0] = rng.Bernoulli(null_p) ? Value::Null()
                                   : Value(rng.Uniform(-10.0, 10.0));
    row[1] = rng.Bernoulli(null_p) ? Value::Null()
                                   : Value(rng.Uniform(-10.0, 10.0));
    row[2] = rng.Bernoulli(null_p) ? Value::Null()
                                   : Value(rng.UniformInt(-100, 100));
    row[3] = rng.Bernoulli(null_p) ? Value::Null()
                                   : Value(strings[rng.UniformInt(0, 2)]);
    t.AppendRowUnchecked(row);
  }
  return t;
}

/// Parse the WHERE clause of a dummy query around `cond`.
lang::PackageQuery ParseWhere(const std::string& cond) {
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R WHERE " + cond);
  PAQL_CHECK_MSG(q.ok(), q.status());
  return std::move(*q);
}

/// Parse the objective aggregate of `MINIMIZE SUM(arg)`.
lang::PackageQuery ParseSum(const std::string& arg) {
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R MINIMIZE SUM(" + arg + ")");
  PAQL_CHECK_MSG(q.ok(), q.status());
  return std::move(*q);
}

/// NaN-aware exact equality (both NaN counts as equal).
void ExpectSameDouble(double expect, double got, size_t i) {
  if (std::isnan(expect)) {
    EXPECT_TRUE(std::isnan(got)) << "lane " << i;
  } else {
    EXPECT_EQ(expect, got) << "lane " << i;
  }
}

/// Evaluate a BatchFn over the whole table (contiguous chunks) and check
/// every lane against the scalar RowFn.
void ExpectBatchMatchesScalar(const Table& t, const RowFn& scalar,
                              const BatchFn& batch) {
  NumericBatch out;
  for (size_t start = 0; start < t.num_rows(); start += kChunkSize) {
    RowSpan span;
    span.start = static_cast<RowId>(start);
    span.len = static_cast<uint32_t>(
        std::min(kChunkSize, t.num_rows() - start));
    batch(t, span, &out);
    for (uint32_t i = 0; i < span.len; ++i) {
      ExpectSameDouble(scalar(t, span.row(i)), out.values[i], start + i);
    }
  }
}

/// Compile `cond` both ways and require identical surviving rows.
void ExpectFilterParity(const Table& t, const std::string& cond) {
  lang::PackageQuery q = ParseWhere(cond);
  auto scalar = CompileBool(*q.where, t.schema());
  ASSERT_TRUE(scalar.ok()) << cond << ": " << scalar.status();
  auto batch = CompileBoolBatch(*q.where, t.schema());
  ASSERT_TRUE(batch.ok()) << cond << ": " << batch.status();
  std::vector<RowId> expect = t.FilterRows(*scalar);
  std::vector<RowId> got = FilterTableVectorized(t, *batch);
  EXPECT_EQ(expect, got) << cond;
}

// ---------------------------------------------------------------------------
// Column loads and the NULL bitmap
// ---------------------------------------------------------------------------

TEST(ChunkTest, LoadNumericChunkMarksNullsAsNaN) {
  Table t{Schema({{"a", DataType::kDouble}})};
  t.AppendRowUnchecked({Value(1.5)});
  t.AppendRowUnchecked({Value::Null()});
  t.AppendRowUnchecked({Value(-2.0)});
  NumericBatch out;
  RowSpan span;
  span.start = 0;
  span.len = 3;
  relation::LoadNumericChunk(t, 0, span, &out);
  EXPECT_EQ(1.5, out.values[0]);
  EXPECT_TRUE(std::isnan(out.values[1]));
  EXPECT_EQ(-2.0, out.values[2]);
  EXPECT_FALSE(out.IsNull(0));
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_FALSE(out.IsNull(2));
  EXPECT_TRUE(out.any_null);
}

TEST(ChunkTest, LoadNumericChunkCoercesInt64) {
  Table t{Schema({{"i", DataType::kInt64}})};
  t.AppendRowUnchecked({Value(int64_t{41})});
  t.AppendRowUnchecked({Value::Null()});
  NumericBatch out;
  RowSpan span;
  span.start = 0;
  span.len = 2;
  relation::LoadNumericChunk(t, 0, span, &out);
  EXPECT_EQ(41.0, out.values[0]);
  EXPECT_TRUE(std::isnan(out.values[1]));
}

TEST(ChunkTest, LazilyGrownBitmapRowsPastEndAreNonNull) {
  // The bitmap only grows when a NULL is appended: rows added after the
  // last NULL lie past its end and must read as non-NULL.
  Table t{Schema({{"a", DataType::kDouble}})};
  t.AppendRowUnchecked({Value::Null()});
  for (int r = 0; r < 5; ++r) t.AppendRowUnchecked({Value(double(r))});
  ASSERT_LT(t.NullBitmap(0).size(), t.num_rows());
  NumericBatch out;
  RowSpan span;
  span.start = 0;
  span.len = 6;
  relation::LoadNumericChunk(t, 0, span, &out);
  EXPECT_TRUE(out.IsNull(0));
  for (uint32_t i = 1; i < 6; ++i) {
    EXPECT_FALSE(out.IsNull(i)) << i;
    EXPECT_EQ(double(i - 1), out.values[i]);
  }
}

TEST(ChunkTest, GatherSpanLoadsArbitraryRows) {
  Table t = MakeTable(100, /*seed=*/3, /*null_p=*/0.0);
  std::vector<RowId> rows = {97, 3, 3, 41};
  NumericBatch out;
  RowSpan span;
  span.rows = rows.data();
  span.len = static_cast<uint32_t>(rows.size());
  relation::LoadNumericChunk(t, 0, span, &out);
  for (uint32_t i = 0; i < span.len; ++i) {
    EXPECT_EQ(t.GetDouble(rows[i], 0), out.values[i]);
  }
}

TEST(ChunkTest, RawLoadReadsStoredZeroForNull) {
  Table t{Schema({{"a", DataType::kDouble}})};
  t.AppendRowUnchecked({Value::Null()});
  NumericBatch out;
  RowSpan span;
  span.start = 0;
  span.len = 1;
  relation::LoadNumericChunkRaw(t, 0, span, &out);
  EXPECT_EQ(0.0, out.values[0]);  // raw storage, no NaN marking
  EXPECT_FALSE(out.any_null);
}

// ---------------------------------------------------------------------------
// Numeric kernels
// ---------------------------------------------------------------------------

TEST(VectorExprTest, ArithmeticKernelsMatchScalar) {
  Table t = MakeTable(3000);
  const char* exprs[] = {
      "R.a", "R.i", "3.25", "-R.a", "R.a + R.b", "R.a - R.i",
      "R.a * R.b", "R.a / R.b", "R.a / 0",
      "(R.a + 2) * (R.b - R.i) / 7 - -R.a",
  };
  for (const char* text : exprs) {
    lang::PackageQuery q = ParseSum(text);
    const lang::ScalarExpr& e = *q.objective->expr->agg->arg;
    auto scalar = CompileScalar(e, t.schema());
    ASSERT_TRUE(scalar.ok()) << text << ": " << scalar.status();
    auto batch = CompileScalarBatch(e, t.schema());
    ASSERT_TRUE(batch.ok()) << text << ": " << batch.status();
    ExpectBatchMatchesScalar(t, *scalar, *batch);
  }
}

TEST(VectorExprTest, StringColumnInNumericExpressionFails) {
  Table t = MakeTable(5);
  lang::PackageQuery q = ParseSum("R.s");
  EXPECT_FALSE(CompileScalarBatch(*q.objective->expr->agg->arg,
                                  t.schema()).ok());
}

// ---------------------------------------------------------------------------
// Predicate kernels
// ---------------------------------------------------------------------------

TEST(VectorExprTest, ComparisonKernelsMatchScalarWithNulls) {
  Table t = MakeTable(3000);
  const char* conds[] = {
      "R.a < R.b",  "R.a <= R.b", "R.a > R.b", "R.a >= R.b",
      "R.a = R.b",  "R.a <> R.b", "R.a < 0",   "R.i >= 10",
      "R.a <> R.a",  // NaN (NULL) lanes must fail <> too
  };
  for (const char* cond : conds) ExpectFilterParity(t, cond);
}

TEST(VectorExprTest, BetweenAndBooleanCombinatorsMatchScalar) {
  Table t = MakeTable(3000);
  const char* conds[] = {
      "R.a BETWEEN -5 AND 5",
      "R.a BETWEEN R.b AND 5",
      "R.a < 0 AND R.b > 0",
      "R.a < 0 OR R.b > 0",
      "NOT R.a < 0",
      "NOT (R.a < 0 OR R.b > 0) AND R.i <= 50",
      "(R.a < -9 OR R.a > 9) OR (R.b BETWEEN -1 AND 1 AND NOT R.i = 0)",
  };
  for (const char* cond : conds) ExpectFilterParity(t, cond);
}

TEST(VectorExprTest, IsNullKernelsMatchScalar) {
  Table t = MakeTable(3000);
  ExpectFilterParity(t, "R.a IS NULL");
  ExpectFilterParity(t, "R.a IS NOT NULL");
  ExpectFilterParity(t, "R.s IS NULL");
  ExpectFilterParity(t, "R.s IS NOT NULL AND R.a IS NULL");
}

TEST(VectorExprTest, StringComparisonsMatchScalar) {
  Table t = MakeTable(3000);
  ExpectFilterParity(t, "R.s = 'green'");
  ExpectFilterParity(t, "R.s <> 'green'");
  ExpectFilterParity(t, "R.s = 'green' OR R.s = 'blue'");
}

TEST(VectorExprTest, EmptySelectionShortCircuits) {
  Table t = MakeTable(10, /*seed=*/5, /*null_p=*/0.0);
  lang::PackageQuery q = ParseWhere("R.a < 1e18 AND R.b < 1e18");
  auto batch = CompileBoolBatch(*q.where, t.schema());
  ASSERT_TRUE(batch.ok());
  SelectionVector sel;
  sel.count = 0;  // nothing selected on input
  RowSpan span;
  span.start = 0;
  span.len = static_cast<uint32_t>(t.num_rows());
  (*batch)(t, span, &sel);
  EXPECT_EQ(0u, sel.count);
}

TEST(VectorExprTest, FilterOnEmptyTable) {
  Table t = MakeTable(0);
  lang::PackageQuery q = ParseWhere("R.a < 0");
  auto batch = CompileBoolBatch(*q.where, t.schema());
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(FilterTableVectorized(t, *batch).empty());
}

TEST(VectorExprTest, FilterRowIdSubsetsPreserveOrderAndDuplicates) {
  Table t = MakeTable(200, /*seed=*/11, /*null_p=*/0.0);
  lang::PackageQuery q = ParseWhere("R.a >= 0");
  auto scalar = CompileBool(*q.where, t.schema());
  auto batch = CompileBoolBatch(*q.where, t.schema());
  ASSERT_TRUE(scalar.ok() && batch.ok());
  std::vector<RowId> rows = {150, 7, 7, 0, 42, 199, 3};
  std::vector<RowId> expect;
  for (RowId r : rows) {
    if ((*scalar)(t, r)) expect.push_back(r);
  }
  EXPECT_EQ(expect, FilterRowsVectorized(t, rows, *batch));
}

// ---------------------------------------------------------------------------
// Chunk boundaries
// ---------------------------------------------------------------------------

TEST(VectorExprTest, ChunkBoundarySizes) {
  for (size_t rows : {size_t{1023}, size_t{1024}, size_t{1025},
                      size_t{2048}, size_t{2049}}) {
    Table t = MakeTable(rows, /*seed=*/rows);
    ExpectFilterParity(t, "R.a * 2 < R.b OR R.i BETWEEN -10 AND 10");

    lang::PackageQuery q = ParseSum("R.a + R.b * 0.5");
    auto arg = CompileAggArg(*q.objective->expr->agg, t.schema());
    ASSERT_TRUE(arg.ok());
    EXPECT_EQ(AggregateSumScalar(t, *arg), AggregateSumVectorized(t, *arg))
        << rows << " rows";
  }
}

// ---------------------------------------------------------------------------
// Aggregate argument batch twins
// ---------------------------------------------------------------------------

TEST(VectorExprTest, CountStarBatchContributesOnePerTuple) {
  Table t = MakeTable(1500);
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) >= 0");
  ASSERT_TRUE(q.ok());
  // COUNT leaves compile through CompileAggArg inside CompiledQuery; test
  // the arg directly via a COUNT call.
  lang::AggCall call;
  call.func = relation::AggFunc::kCount;
  call.is_count_star = true;
  auto arg = CompileAggArg(call, t.schema());
  ASSERT_TRUE(arg.ok());
  EXPECT_EQ(static_cast<double>(t.num_rows()),
            AggregateSumVectorized(t, *arg));
}

TEST(VectorExprTest, SumSkipsNullsLikeScalar) {
  Table t = MakeTable(2100, /*seed=*/9, /*null_p=*/0.5);
  lang::PackageQuery q = ParseSum("R.a");
  auto arg = CompileAggArg(*q.objective->expr->agg, t.schema());
  ASSERT_TRUE(arg.ok());
  EXPECT_EQ(AggregateSumScalar(t, *arg), AggregateSumVectorized(t, *arg));
}

TEST(VectorExprTest, FilteredAggregateMatchesScalar) {
  Table t = MakeTable(2100);
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R SUCH THAT "
      "(SELECT SUM(P.a) FROM P WHERE P.b > 0 AND P.s = 'red') <= 100");
  ASSERT_TRUE(q.ok()) << q.status();
  const lang::AggCall& call = *q->such_that->lhs->agg;
  ASSERT_TRUE(call.filter != nullptr);
  auto arg = CompileAggArg(call, t.schema());
  ASSERT_TRUE(arg.ok());
  EXPECT_EQ(AggregateSumScalar(t, *arg), AggregateSumVectorized(t, *arg));
}

// ---------------------------------------------------------------------------
// CompiledQuery integration: CoeffBatch and the vectorized entry points
// ---------------------------------------------------------------------------

TEST(VectorExprTest, CompiledQueryCoefficientsMatchScalar) {
  Table t = MakeTable(2500);
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R REPEAT 2 "
      "WHERE R.a IS NOT NULL "
      "SUCH THAT COUNT(P.*) BETWEEN 1 AND 30 "
      "AND SUM(P.a * 2 - P.b) <= 50 "
      "AND AVG(P.b) >= -3 "
      "AND MIN(P.i) >= -90 "
      "MAXIMIZE SUM(P.a + P.i)");
  ASSERT_TRUE(q.ok()) << q.status();
  auto cq = CompiledQuery::Compile(*q, t.schema());
  ASSERT_TRUE(cq.ok()) << cq.status();

  // Base rows: reference vs batch scan.
  std::vector<RowId> base = cq->ComputeBaseRows(t);
  EXPECT_EQ(base, cq->ComputeBaseRowsVectorized(t));

  // The batch-built model, column by column against the reference
  // (covers the AVG rewrite and the MIN threshold leaf).
  auto model = cq->BuildModel(t, base);
  ASSERT_TRUE(model.ok()) << model.status();
  ExpectModelMatchesReference(*cq, t, base, *model);

  // Leaf activities over a synthetic package.
  std::vector<RowId> pkg_rows;
  std::vector<int64_t> mults;
  for (size_t k = 0; k < base.size(); k += 7) {
    pkg_rows.push_back(base[k]);
    mults.push_back(static_cast<int64_t>(k % 3));  // includes zeros
  }
  EXPECT_EQ(cq->LeafActivities(t, pkg_rows, mults),
            cq->LeafActivitiesVectorized(t, pkg_rows, mults));
}

TEST(VectorExprTest, QueriesWithoutWhereScanEveryRow) {
  Table t = MakeTable(64);
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) = 2");
  ASSERT_TRUE(q.ok());
  auto cq = CompiledQuery::Compile(*q, t.schema());
  ASSERT_TRUE(cq.ok());
  std::vector<RowId> base = cq->ComputeBaseRowsVectorized(t);
  EXPECT_EQ(t.num_rows(), base.size());
  EXPECT_EQ(base, cq->ComputeBaseRows(t));
}

}  // namespace
}  // namespace paql::translate
