// Randomized AST round-trip property test: generate random (valid) query
// ASTs, print them with lang::ToString, re-parse, and require the printed
// forms to be identical — print∘parse must be the identity on printer
// output. This complements parser_test's fixed-string round trips with
// structural coverage: random FROM lists, nested scalar/global algebra,
// subquery aggregates with filters, AND/OR trees, and BETWEENs.
//
// The same generator also checks the invariant the evaluation entry points
// rely on: the batch compiler (vector_expr.h) accepts exactly the
// expressions the row-at-a-time reference compiler (compile_expr.h)
// accepts, so no compiled query needs a scalar fallback.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "model_check_util.h"
#include "paql/ast.h"
#include "paql/parser.h"
#include "relation/table.h"
#include "translate/compile_expr.h"
#include "translate/compiled_query.h"
#include "translate/vector_expr.h"

namespace paql::lang {
namespace {

/// Bounded random scalar expression over the given column names.
std::unique_ptr<ScalarExpr> RandomScalar(Rng* rng,
                                         const std::vector<std::string>& cols,
                                         const std::string& qualifier,
                                         int depth) {
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    if (rng->Bernoulli(0.5)) {
      return ScalarExpr::Column(
          qualifier,
          cols[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(cols.size()) - 1))]);
    }
    // Integer-valued literals print without scientific notation, keeping
    // the round trip exact.
    return ScalarExpr::Literal(
        relation::Value(static_cast<double>(rng->UniformInt(0, 99))));
  }
  ScalarKind ops[] = {ScalarKind::kAdd, ScalarKind::kSub, ScalarKind::kMul};
  ScalarKind op = ops[rng->UniformInt(0, 2)];
  return ScalarExpr::Binary(op, RandomScalar(rng, cols, qualifier, depth - 1),
                            RandomScalar(rng, cols, qualifier, depth - 1));
}

std::unique_ptr<BoolExpr> RandomBool(Rng* rng,
                                     const std::vector<std::string>& cols,
                                     const std::string& qualifier, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.6)) {
    CmpOp ops[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kLt, CmpOp::kGt, CmpOp::kEq};
    return BoolExpr::Cmp(ops[rng->UniformInt(0, 4)],
                         RandomScalar(rng, cols, qualifier, 1),
                         RandomScalar(rng, cols, qualifier, 1));
  }
  if (rng->Bernoulli(0.3)) {
    return BoolExpr::Between(RandomScalar(rng, cols, qualifier, 1),
                             RandomScalar(rng, cols, qualifier, 0),
                             RandomScalar(rng, cols, qualifier, 0));
  }
  auto l = RandomBool(rng, cols, qualifier, depth - 1);
  auto r = RandomBool(rng, cols, qualifier, depth - 1);
  return rng->Bernoulli(0.5) ? BoolExpr::And(std::move(l), std::move(r))
                             : BoolExpr::Or(std::move(l), std::move(r));
}

std::unique_ptr<GlobalExpr> RandomGlobal(Rng* rng,
                                         const std::vector<std::string>& cols,
                                         const std::string& pkg, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.55)) {
    auto call = std::make_unique<AggCall>();
    int pick = static_cast<int>(rng->UniformInt(0, 2));
    if (pick == 0) {
      call->func = relation::AggFunc::kCount;
      call->is_count_star = true;
    } else {
      call->func = relation::AggFunc::kSum;
      call->arg = RandomScalar(rng, cols, pkg, 1);
      if (pick == 2) {
        call->filter = RandomBool(rng, cols, pkg, 1);
      }
    }
    return GlobalExpr::Agg(std::move(call));
  }
  if (rng->Bernoulli(0.25)) {
    return GlobalExpr::Literal(static_cast<double>(rng->UniformInt(1, 50)));
  }
  GlobalKind ops[] = {GlobalKind::kAdd, GlobalKind::kSub, GlobalKind::kMul};
  return GlobalExpr::Binary(ops[rng->UniformInt(0, 2)],
                            RandomGlobal(rng, cols, pkg, depth - 1),
                            RandomGlobal(rng, cols, pkg, depth - 1));
}

std::unique_ptr<GlobalPredicate> RandomGlobalPred(
    Rng* rng, const std::vector<std::string>& cols, const std::string& pkg,
    int depth) {
  if (depth <= 0 || rng->Bernoulli(0.6)) {
    if (rng->Bernoulli(0.3)) {
      return GlobalPredicate::Between(
          RandomGlobal(rng, cols, pkg, 1),
          GlobalExpr::Literal(static_cast<double>(rng->UniformInt(0, 10))),
          GlobalExpr::Literal(static_cast<double>(rng->UniformInt(11, 99))));
    }
    CmpOp ops[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kEq};
    return GlobalPredicate::Cmp(ops[rng->UniformInt(0, 2)],
                                RandomGlobal(rng, cols, pkg, 1),
                                RandomGlobal(rng, cols, pkg, 1));
  }
  auto l = RandomGlobalPred(rng, cols, pkg, depth - 1);
  auto r = RandomGlobalPred(rng, cols, pkg, depth - 1);
  return rng->Bernoulli(0.5)
             ? GlobalPredicate::And(std::move(l), std::move(r))
             : GlobalPredicate::Or(std::move(l), std::move(r));
}

PackageQuery RandomQuery(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> cols = {"a", "b", "c"};
  PackageQuery q;
  q.package_name = "P";
  q.relation_name = "rel0";
  q.relation_alias = rng.Bernoulli(0.5) ? "R" : "rel0";
  int extra = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 1; i <= extra; ++i) {
    FromItem item;
    item.relation_name = "rel" + std::to_string(i);
    item.alias = rng.Bernoulli(0.5) ? "X" + std::to_string(i)
                                    : item.relation_name;
    q.more_relations.push_back(std::move(item));
  }
  if (rng.Bernoulli(0.6)) q.repeat = rng.UniformInt(0, 3);
  if (rng.Bernoulli(0.7)) {
    q.where = RandomBool(&rng, cols, q.relation_alias, 2);
  }
  if (rng.Bernoulli(0.9)) {
    q.such_that = RandomGlobalPred(&rng, cols, q.package_name, 2);
  }
  if (rng.Bernoulli(0.7)) {
    Objective obj;
    obj.sense = rng.Bernoulli(0.5) ? ObjectiveSense::kMinimize
                                   : ObjectiveSense::kMaximize;
    obj.expr = RandomGlobal(&rng, cols, q.package_name, 2);
    q.objective = std::move(obj);
  }
  return q;
}

class AstFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AstFuzzTest, PrintParsePrintIsIdentity) {
  PackageQuery q = RandomQuery(GetParam());
  std::string printed = ToString(q);
  auto reparsed = ParsePackageQuery(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\nquery was:\n"
                             << printed;
  EXPECT_EQ(printed, ToString(*reparsed));
}

TEST_P(AstFuzzTest, BatchCompilePathNeverCrashesAndAgreesWithScalar) {
  // Push every generated query through the compile path: unsupported
  // shapes (aggregate products, AVG compositions, ...) must be rejected
  // cleanly — never crash the batch compiler — and whatever does compile
  // must build a model whose every column matches the row-at-a-time
  // reference.
  PackageQuery q = RandomQuery(GetParam() + 20000);
  relation::Schema schema({{"a", relation::DataType::kDouble},
                           {"b", relation::DataType::kDouble},
                           {"c", relation::DataType::kDouble}});
  auto cq = translate::CompiledQuery::Compile(q, schema);
  if (!cq.ok()) return;  // outside the compilable fragment; no crash is the test

  relation::Table table{schema};
  Rng rng(GetParam() + 777);
  for (int r = 0; r < 150; ++r) {
    std::vector<relation::Value> row(3);
    for (int col = 0; col < 3; ++col) {
      row[static_cast<size_t>(col)] =
          rng.Bernoulli(0.15)
              ? relation::Value::Null()
              : relation::Value(static_cast<double>(rng.UniformInt(-20, 20)));
    }
    table.AppendRowUnchecked(row);
  }

  std::vector<relation::RowId> base = cq->ComputeBaseRows(table);
  EXPECT_EQ(base, cq->ComputeBaseRowsVectorized(table))
      << "query was:\n" << ToString(q);

  auto model = cq->BuildModel(table, base);
  if (!model.ok()) return;  // e.g. OR under unbounded repetition
  SCOPED_TRACE(ToString(q));
  ExpectModelMatchesReference(*cq, table, base, *model);
}

/// Every aggregate call in a global expression or predicate tree.
void CollectAggCalls(const GlobalExpr& expr,
                     std::vector<const AggCall*>* out) {
  if (expr.kind == GlobalKind::kAgg) out->push_back(expr.agg.get());
  if (expr.lhs) CollectAggCalls(*expr.lhs, out);
  if (expr.rhs) CollectAggCalls(*expr.rhs, out);
}

void CollectAggCalls(const GlobalPredicate& pred,
                     std::vector<const AggCall*>* out) {
  for (const GlobalExpr* e :
       {pred.lhs.get(), pred.rhs.get(), pred.lo.get(), pred.hi.get()}) {
    if (e != nullptr) CollectAggCalls(*e, out);
  }
  if (pred.left) CollectAggCalls(*pred.left, out);
  if (pred.right) CollectAggCalls(*pred.right, out);
}

/// Batch and reference compilation of `expr` agree on success; returns
/// whether they compiled.
bool ExpectSameAcceptance(const BoolExpr& expr,
                          const relation::Schema& schema) {
  auto scalar = translate::CompileBool(expr, schema);
  auto batch = translate::CompileBoolBatch(expr, schema);
  EXPECT_EQ(scalar.ok(), batch.ok())
      << ToString(expr) << "\nreference: " << scalar.status()
      << "\nbatch: " << batch.status();
  return scalar.ok();
}

bool ExpectSameAcceptance(const ScalarExpr& expr,
                          const relation::Schema& schema) {
  auto scalar = translate::CompileScalar(expr, schema);
  auto batch = translate::CompileScalarBatch(expr, schema);
  EXPECT_EQ(scalar.ok(), batch.ok())
      << ToString(expr) << "\nreference: " << scalar.status()
      << "\nbatch: " << batch.status();
  return scalar.ok();
}

TEST_P(AstFuzzTest, BatchCompilerAcceptsExactlyWhatReferenceAccepts) {
  // With STRING columns in the schema, the generated expressions include
  // string ordering comparisons and arithmetic on strings, which both
  // compilers must reject, next to shapes both must accept. Odd seeds make
  // two columns strings, so string-vs-string comparisons occur too.
  PackageQuery q = RandomQuery(GetParam() + 30000);
  const bool two_strings = GetParam() % 2 == 1;
  relation::Schema schema(
      {{"a", relation::DataType::kDouble},
       {"b", two_strings ? relation::DataType::kString
                         : relation::DataType::kInt64},
       {"c", relation::DataType::kString}});
  if (q.where) ExpectSameAcceptance(*q.where, schema);
  std::vector<const AggCall*> calls;
  if (q.such_that) CollectAggCalls(*q.such_that, &calls);
  if (q.objective.has_value()) CollectAggCalls(*q.objective->expr, &calls);
  for (const AggCall* call : calls) {
    if (call->arg) ExpectSameAcceptance(*call->arg, schema);
    if (call->filter) ExpectSameAcceptance(*call->filter, schema);
  }
  // Loose expressions over the same columns, for volume: a string-vs-string
  // ordering comparison is rare in any one query.
  Rng rng(GetParam() + 40000);
  const std::vector<std::string> cols = {"a", "b", "c"};
  for (int i = 0; i < 16; ++i) {
    ExpectSameAcceptance(*RandomBool(&rng, cols, "R", 2), schema);
    ExpectSameAcceptance(*RandomScalar(&rng, cols, "R", 2), schema);
  }
}

TEST(AstFuzzExplicitTest, BatchAndReferenceRejectTheSameShapes) {
  relation::Schema schema({{"a", relation::DataType::kDouble},
                           {"s", relation::DataType::kString}});
  auto col = [](const char* name) { return ScalarExpr::Column("R", name); };
  auto num = [](double v) { return ScalarExpr::Literal(relation::Value(v)); };
  auto str = [](const char* v) {
    return ScalarExpr::Literal(relation::Value(v));
  };

  // A string ordering comparison.
  EXPECT_FALSE(
      ExpectSameAcceptance(*BoolExpr::Cmp(CmpOp::kLt, col("s"), str("m")),
                           schema));
  // IS NULL over an expression rather than a column.
  BoolExpr is_null;
  is_null.kind = BoolKind::kIsNull;
  is_null.scalar_lhs =
      ScalarExpr::Binary(ScalarKind::kAdd, col("a"), num(1));
  EXPECT_FALSE(ExpectSameAcceptance(is_null, schema));
  // Arithmetic on a string, alone and inside a comparison.
  auto string_sum = ScalarExpr::Binary(ScalarKind::kAdd, col("s"), num(1));
  EXPECT_FALSE(ExpectSameAcceptance(*string_sum, schema));
  EXPECT_FALSE(ExpectSameAcceptance(
      *BoolExpr::Cmp(CmpOp::kGt, std::move(string_sum), num(0)), schema));

  // Controls both accept: string equality and IS NULL on a column.
  EXPECT_TRUE(
      ExpectSameAcceptance(*BoolExpr::Cmp(CmpOp::kEq, col("s"), str("m")),
                           schema));
  BoolExpr column_is_null;
  column_is_null.kind = BoolKind::kIsNull;
  column_is_null.scalar_lhs = col("s");
  EXPECT_TRUE(ExpectSameAcceptance(column_is_null, schema));
}

TEST_P(AstFuzzTest, CloneIsDeepAndPrintsIdentically) {
  PackageQuery q = RandomQuery(GetParam() + 10000);
  PackageQuery copy = q.Clone();
  EXPECT_EQ(ToString(q), ToString(copy));
  // Mutating the copy must not affect the original.
  copy.package_name = "Q2";
  copy.more_relations.clear();
  copy.where.reset();
  EXPECT_NE(ToString(q), ToString(copy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AstFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace paql::lang
