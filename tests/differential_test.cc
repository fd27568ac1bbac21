// Differential testing of the evaluation pipelines on randomly generated
// PaQL queries:
//
//   (a) batch kernels vs the row-at-a-time reference — base-relation
//       filtering, every column of the batch-built ILP, and leaf
//       activities must agree BIT FOR BIT with ComputeBaseRows,
//       LeafActivities and ObjectiveValue on random tables with NULLs (the
//       batch kernels replay the scalar closures' exact floating-point
//       operation order);
//   (b) DIRECT vs NAIVE — on tiny instances the whole-problem ILP and the
//       exhaustive self-join enumeration must agree on feasibility and on
//       the optimal objective value.
//
//   (c) warm vs cold solver — with BranchAndBoundOptions::warm_start on and
//       off, the DIRECT, SKETCHREFINE, and top-k paths must agree on
//       feasibility and objective value: the dual-simplex warm start is an
//       accelerator, not a different algorithm.
//
// Every case runs under a SCOPED_TRACE carrying the reproducing seed and
// the generated query text, so a failure prints everything needed to
// replay it.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/simd.h"
#include "common/str_util.h"
#include "core/direct.h"
#include "core/naive.h"
#include "core/ratio_objective.h"
#include "core/sketch_refine.h"
#include "core/topk.h"
#include "model_check_util.h"
#include "paql/ast.h"
#include "paql/parser.h"
#include "partition/partitioner.h"
#include "relation/table.h"
#include "translate/compiled_query.h"

namespace paql {
namespace {

using core::DirectEvaluator;
using core::NaiveSelfJoinEvaluator;
using engine::ExecContext;
using lang::AggCall;
using lang::BoolExpr;
using lang::CmpOp;
using lang::GlobalExpr;
using lang::GlobalPredicate;
using lang::PackageQuery;
using lang::ScalarExpr;
using lang::ScalarKind;
using relation::ColumnDef;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::Value;
using translate::CompiledQuery;

constexpr const char* kNumericCols[] = {"a", "b", "i"};
constexpr const char* kColors[] = {"red", "green", "blue"};

/// a DOUBLE, b DOUBLE, i INT64, s STRING with NULLs.
Table RandomTable(Rng* rng, size_t rows, double null_p) {
  Table t{Schema({{"a", DataType::kDouble},
                  {"b", DataType::kDouble},
                  {"i", DataType::kInt64},
                  {"s", DataType::kString}})};
  t.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(4);
    row[0] = rng->Bernoulli(null_p) ? Value::Null()
                                    : Value(rng->Uniform(-10.0, 10.0));
    row[1] = rng->Bernoulli(null_p) ? Value::Null()
                                    : Value(rng->Uniform(-10.0, 10.0));
    row[2] = rng->Bernoulli(null_p) ? Value::Null()
                                    : Value(rng->UniformInt(-20, 20));
    row[3] = rng->Bernoulli(null_p)
                 ? Value::Null()
                 : Value(kColors[rng->UniformInt(0, 2)]);
    t.AppendRowUnchecked(row);
  }
  return t;
}

std::unique_ptr<ScalarExpr> RandomScalar(Rng* rng, const std::string& qual,
                                         int depth) {
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    if (rng->Bernoulli(0.65)) {
      return ScalarExpr::Column(qual, kNumericCols[rng->UniformInt(0, 2)]);
    }
    return ScalarExpr::Literal(
        Value(static_cast<double>(rng->UniformInt(-9, 9))));
  }
  ScalarKind ops[] = {ScalarKind::kAdd, ScalarKind::kSub, ScalarKind::kMul};
  return ScalarExpr::Binary(ops[rng->UniformInt(0, 2)],
                            RandomScalar(rng, qual, depth - 1),
                            RandomScalar(rng, qual, depth - 1));
}

std::unique_ptr<BoolExpr> RandomWhere(Rng* rng, const std::string& qual,
                                      int depth) {
  if (depth <= 0 || rng->Bernoulli(0.55)) {
    int pick = static_cast<int>(rng->UniformInt(0, 9));
    if (pick == 0) {
      // String equality / inequality.
      auto lhs = ScalarExpr::Column(qual, "s");
      auto rhs = ScalarExpr::Literal(Value(kColors[rng->UniformInt(0, 2)]));
      return BoolExpr::Cmp(rng->Bernoulli(0.5) ? CmpOp::kEq : CmpOp::kNe,
                           std::move(lhs), std::move(rhs));
    }
    if (pick == 1) {
      // IS [NOT] NULL on any column (including the string one).
      const char* cols[] = {"a", "b", "i", "s"};
      auto e = std::make_unique<BoolExpr>();
      e->kind = rng->Bernoulli(0.5) ? lang::BoolKind::kIsNull
                                    : lang::BoolKind::kIsNotNull;
      e->scalar_lhs = ScalarExpr::Column(qual, cols[rng->UniformInt(0, 3)]);
      return e;
    }
    if (pick == 2) {
      double lo = static_cast<double>(rng->UniformInt(-9, 0));
      double hi = static_cast<double>(rng->UniformInt(0, 9));
      return BoolExpr::Between(RandomScalar(rng, qual, 1),
                               ScalarExpr::Literal(Value(lo)),
                               ScalarExpr::Literal(Value(hi)));
    }
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                   CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
    return BoolExpr::Cmp(ops[rng->UniformInt(0, 5)],
                         RandomScalar(rng, qual, 1),
                         RandomScalar(rng, qual, 1));
  }
  auto l = RandomWhere(rng, qual, depth - 1);
  auto r = RandomWhere(rng, qual, depth - 1);
  switch (rng->UniformInt(0, 2)) {
    case 0: return BoolExpr::And(std::move(l), std::move(r));
    case 1: return BoolExpr::Or(std::move(l), std::move(r));
    default: return BoolExpr::Not(std::move(l));
  }
}

std::unique_ptr<GlobalExpr> CountStar() {
  auto call = std::make_unique<AggCall>();
  call->func = relation::AggFunc::kCount;
  call->is_count_star = true;
  return GlobalExpr::Agg(std::move(call));
}

std::unique_ptr<GlobalExpr> SumOf(Rng* rng, const std::string& pkg,
                                  bool with_filter) {
  auto call = std::make_unique<AggCall>();
  call->func = relation::AggFunc::kSum;
  call->arg = RandomScalar(rng, pkg, 2);
  if (with_filter) call->filter = RandomWhere(rng, pkg, 1);
  return GlobalExpr::Agg(std::move(call));
}

std::unique_ptr<GlobalPredicate> RandomSuchThat(Rng* rng,
                                                const std::string& pkg,
                                                int depth) {
  if (depth <= 0 || rng->Bernoulli(0.55)) {
    if (rng->Bernoulli(0.4)) {
      int64_t lo = rng->UniformInt(0, 4);
      return GlobalPredicate::Between(
          CountStar(), GlobalExpr::Literal(static_cast<double>(lo)),
          GlobalExpr::Literal(static_cast<double>(lo + rng->UniformInt(1, 8))));
    }
    CmpOp ops[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kEq};
    return GlobalPredicate::Cmp(
        ops[rng->UniformInt(0, 2)], SumOf(rng, pkg, rng->Bernoulli(0.3)),
        GlobalExpr::Literal(static_cast<double>(rng->UniformInt(-50, 50))));
  }
  auto l = RandomSuchThat(rng, pkg, depth - 1);
  auto r = RandomSuchThat(rng, pkg, depth - 1);
  return rng->Bernoulli(0.6) ? GlobalPredicate::And(std::move(l), std::move(r))
                             : GlobalPredicate::Or(std::move(l), std::move(r));
}

/// An AVG, MIN or MAX comparison against a constant, optionally over a
/// subquery filter: the aggregates the translator rewrites, AVG(e) cmp v
/// into per-tuple coefficients e_i - v and MIN/MAX into threshold-count
/// leaves.
std::unique_ptr<GlobalPredicate> RandomRewrittenLeaf(Rng* rng,
                                                     const std::string& pkg) {
  auto call = std::make_unique<AggCall>();
  relation::AggFunc funcs[] = {relation::AggFunc::kAvg,
                               relation::AggFunc::kMin,
                               relation::AggFunc::kMax};
  call->func = funcs[rng->UniformInt(0, 2)];
  call->arg = RandomScalar(rng, pkg, 1);
  if (rng->Bernoulli(0.3)) call->filter = RandomWhere(rng, pkg, 1);
  CmpOp ops[] = {CmpOp::kLe, CmpOp::kLt, CmpOp::kGe, CmpOp::kGt, CmpOp::kEq};
  return GlobalPredicate::Cmp(
      ops[rng->UniformInt(0, 4)], GlobalExpr::Agg(std::move(call)),
      GlobalExpr::Literal(static_cast<double>(rng->UniformInt(-9, 9))));
}

/// A random query in the linear fragment (always compiles).
PackageQuery RandomQueryA(Rng* rng) {
  PackageQuery q;
  q.package_name = "P";
  q.relation_name = "R";
  q.relation_alias = "R";
  if (rng->Bernoulli(0.7)) q.repeat = rng->UniformInt(0, 2);
  if (rng->Bernoulli(0.8)) q.where = RandomWhere(rng, "R", 2);
  q.such_that = RandomSuchThat(rng, "P", 2);
  if (rng->Bernoulli(0.7)) {
    lang::Objective obj;
    obj.sense = rng->Bernoulli(0.5) ? lang::ObjectiveSense::kMinimize
                                    : lang::ObjectiveSense::kMaximize;
    obj.expr = SumOf(rng, "P", false);
    q.objective = std::move(obj);
  }
  return q;
}

/// Fixed-cardinality REPEAT 0 query for the DIRECT-vs-NAIVE check.
PackageQuery RandomQueryB(Rng* rng, int cardinality) {
  PackageQuery q;
  q.package_name = "P";
  q.relation_name = "R";
  q.relation_alias = "R";
  q.repeat = 0;
  if (rng->Bernoulli(0.4)) q.where = RandomWhere(rng, "R", 1);
  auto count_eq = GlobalPredicate::Cmp(
      CmpOp::kEq, CountStar(),
      GlobalExpr::Literal(static_cast<double>(cardinality)));
  if (rng->Bernoulli(0.5)) {
    auto sum_bound = GlobalPredicate::Cmp(
        rng->Bernoulli(0.5) ? CmpOp::kLe : CmpOp::kGe, SumOf(rng, "P", false),
        GlobalExpr::Literal(static_cast<double>(rng->UniformInt(-30, 30))));
    q.such_that =
        GlobalPredicate::And(std::move(count_eq), std::move(sum_bound));
  } else {
    q.such_that = std::move(count_eq);
  }
  if (rng->Bernoulli(0.8)) {
    lang::Objective obj;
    obj.sense = rng->Bernoulli(0.5) ? lang::ObjectiveSense::kMinimize
                                    : lang::ObjectiveSense::kMaximize;
    obj.expr = SumOf(rng, "P", false);
    q.objective = std::move(obj);
  }
  return q;
}

/// Exact model equality (variables, objective, rows).
void ExpectSameModel(const lp::Model& scalar, const lp::Model& vectorized) {
  ASSERT_EQ(scalar.num_vars(), vectorized.num_vars());
  EXPECT_EQ(scalar.obj(), vectorized.obj());
  EXPECT_EQ(scalar.ub(), vectorized.ub());
  ASSERT_EQ(scalar.num_rows(), vectorized.num_rows());
  for (int i = 0; i < scalar.num_rows(); ++i) {
    const lp::RowDef& a = scalar.rows()[i];
    const lp::RowDef& b = vectorized.rows()[i];
    EXPECT_EQ(a.vars, b.vars) << "row " << i << " (" << a.name << ")";
    EXPECT_EQ(a.coefs, b.coefs) << "row " << i << " (" << a.name << ")";
    EXPECT_EQ(a.lo, b.lo) << "row " << i;
    EXPECT_EQ(a.hi, b.hi) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// (a) batch kernels vs the row-at-a-time reference, bit for bit
// ---------------------------------------------------------------------------

TEST(DifferentialTest, BatchModelMatchesReferenceOn200RandomQueries) {
  constexpr int kQueries = 200;
  int models_built = 0;
  int or_free_models = 0;
  int rewritten_leaf_models = 0;
  int nonempty_bases = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 2654435761u);
    Table table =
        RandomTable(&rng, 200 + static_cast<size_t>(rng.UniformInt(0, 400)),
                    /*null_p=*/0.2);
    PackageQuery query = RandomQueryA(&rng);
    const bool rewritten = rng.Bernoulli(0.5);
    if (rewritten) {
      query.such_that = GlobalPredicate::And(std::move(query.such_that),
                                             RandomRewrittenLeaf(&rng, "P"));
    }
    SCOPED_TRACE(StrCat("seed ", seed, "\nquery:\n", lang::ToString(query)));

    auto cq = CompiledQuery::Compile(query, table.schema());
    ASSERT_TRUE(cq.ok()) << cq.status();

    // Base relation: identical row sets, over the whole table and over an
    // unordered subset with repeats.
    std::vector<RowId> base = cq->ComputeBaseRows(table);
    ASSERT_EQ(base, cq->ComputeBaseRowsVectorized(table));
    std::vector<RowId> subset;
    for (RowId r = static_cast<RowId>(table.num_rows()); r-- > 0;) {
      if (r % 3 != 0) subset.push_back(r);
      if (r % 7 == 0) subset.push_back(r);
    }
    std::vector<RowId> accepted;
    for (RowId r : subset) {
      if (cq->BaseAccepts(table, r)) accepted.push_back(r);
    }
    ASSERT_EQ(accepted, cq->FilterBaseRows(table, subset));

    // Every column of the one batch-built model carries the reference
    // coefficients of its tuple. (Unbounded-repetition queries with OR
    // predicates have no big-M model.)
    auto model = cq->BuildModel(table, base);
    if (model.ok()) {
      ExpectModelMatchesReference(*cq, table, base, *model);
      ++models_built;
      if (cq->CanUpdateOffsets()) ++or_free_models;
      if (rewritten) ++rewritten_leaf_models;
    } else {
      EXPECT_EQ(model.status().code(), StatusCode::kUnsupported)
          << model.status();
    }
    if (!base.empty()) ++nonempty_bases;

    // Leaf activities over a pseudo-random package drawn from the base.
    std::vector<RowId> pkg;
    std::vector<int64_t> mults;
    for (size_t k = 0; k < base.size(); k += 5) {
      pkg.push_back(base[k]);
      mults.push_back(rng.UniformInt(0, 3));
    }
    ASSERT_EQ(cq->LeafActivities(table, pkg, mults),
              cq->LeafActivitiesVectorized(table, pkg, mults));
  }
  // Guard against the generator drifting into vacuity.
  EXPECT_GE(models_built, kQueries / 2);
  EXPECT_GE(or_free_models, kQueries / 4);
  EXPECT_GE(rewritten_leaf_models, kQueries / 5);
  EXPECT_GE(nonempty_bases, kQueries / 2);
}

// ---------------------------------------------------------------------------
// (a') SIMD vs forced-scalar kernels, bit for bit
// ---------------------------------------------------------------------------

TEST(DifferentialTest, SimdMatchesForcedScalarOn200RandomQueries) {
  // The simd.h kernels (predicate compaction, arithmetic, reductions,
  // coefficient fills, block decode) claim bit-identity with their scalar
  // fallbacks. Run the batch kernels twice — SIMD dispatch active,
  // then runtime-forced scalar — and require identical base rows, models,
  // and leaf activities. On a machine whose build already resolves to the
  // scalar level (PAQL_NO_SIMD) both runs are the same code path and the
  // sweep passes trivially; the CI no-SIMD job covers that configuration.
  struct ForceScalarGuard {
    ~ForceScalarGuard() { simd::ForceScalar(false); }
  } guard;
  constexpr int kQueries = 200;
  int models_built = 0;
  int nonempty_bases = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 1099511628211u + 7);
    Table table =
        RandomTable(&rng, 200 + static_cast<size_t>(rng.UniformInt(0, 400)),
                    /*null_p=*/0.2);
    PackageQuery query = RandomQueryA(&rng);
    SCOPED_TRACE(StrCat("seed ", seed, " simd level ",
                        simd::LevelName(simd::ActiveLevel()), "\nquery:\n",
                        lang::ToString(query)));

    auto cq = CompiledQuery::Compile(query, table.schema());
    ASSERT_TRUE(cq.ok()) << cq.status();

    simd::ForceScalar(false);
    std::vector<RowId> base_simd = cq->ComputeBaseRowsVectorized(table);
    auto m_simd = cq->BuildModel(table, base_simd);

    simd::ForceScalar(true);
    std::vector<RowId> base_scalar = cq->ComputeBaseRowsVectorized(table);
    auto m_scalar = cq->BuildModel(table, base_scalar);
    simd::ForceScalar(false);

    ASSERT_EQ(base_simd, base_scalar);
    ASSERT_EQ(m_simd.ok(), m_scalar.ok())
        << m_simd.status() << " vs " << m_scalar.status();
    if (m_simd.ok()) {
      ExpectSameModel(*m_scalar, *m_simd);
      ++models_built;
    }
    if (!base_simd.empty()) ++nonempty_bases;

    // Leaf activities over a pseudo-random package drawn from the base.
    std::vector<RowId> pkg;
    std::vector<int64_t> mults;
    for (size_t k = 0; k < base_simd.size(); k += 5) {
      pkg.push_back(base_simd[k]);
      mults.push_back(rng.UniformInt(0, 3));
    }
    auto act_simd = cq->LeafActivitiesVectorized(table, pkg, mults);
    simd::ForceScalar(true);
    auto act_scalar = cq->LeafActivitiesVectorized(table, pkg, mults);
    simd::ForceScalar(false);
    ASSERT_EQ(act_simd, act_scalar);
  }
  // Guard against the generator drifting into vacuity.
  EXPECT_GE(models_built, kQueries / 2);
  EXPECT_GE(nonempty_bases, kQueries / 2);
}

// ---------------------------------------------------------------------------
// (b) DIRECT vs NAIVE on tiny instances
// ---------------------------------------------------------------------------

TEST(DifferentialTest, DirectMatchesNaiveOn200TinyInstances) {
  constexpr int kQueries = 200;
  int feasible = 0;
  int infeasible = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 40503u + 11);
    Table table = RandomTable(
        &rng, 8 + static_cast<size_t>(rng.UniformInt(0, 6)), /*null_p=*/0.1);
    int cardinality = static_cast<int>(rng.UniformInt(1, 3));
    PackageQuery query = RandomQueryB(&rng, cardinality);
    SCOPED_TRACE(StrCat("seed ", seed, " cardinality ", cardinality,
                        "\nquery:\n", lang::ToString(query)));

    auto cq = CompiledQuery::Compile(query, table.schema());
    ASSERT_TRUE(cq.ok()) << cq.status();

    NaiveSelfJoinEvaluator naive(table);
    auto naive_result = naive.Evaluate(*cq, cardinality);

    DirectEvaluator direct(table);
    auto direct_result = direct.Evaluate(*cq);

    // The two evaluators must agree on feasibility...
    if (!naive_result.ok()) {
      ASSERT_TRUE(naive_result.status().IsInfeasible())
          << naive_result.status();
      EXPECT_FALSE(direct_result.ok());
      if (!direct_result.ok()) {
        EXPECT_TRUE(direct_result.status().IsInfeasible())
            << direct_result.status();
      }
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(direct_result.ok()) << direct_result.status();
    ++feasible;

    // ... and, when an objective is present, on the optimal value.
    if (query.objective.has_value()) {
      double n = naive_result->objective;
      double d = direct_result->objective;
      EXPECT_LE(std::abs(n - d), 1e-6 * (1.0 + std::abs(n)))
          << "naive " << n << " vs direct " << d;
    }
  }
  // Both outcomes must actually occur, or the harness proves nothing.
  EXPECT_GE(feasible, 25);
  EXPECT_GE(infeasible, 5);
}

// ---------------------------------------------------------------------------
// (c) warm vs cold solver across DIRECT, SKETCHREFINE, and top-k
// ---------------------------------------------------------------------------

/// Assert two evaluation outcomes agree: same feasibility, and (when both
/// succeeded) valid packages with the same objective value.
void ExpectSameOutcome(const CompiledQuery& cq, const Table& table,
                       const Result<core::EvalResult>& warm,
                       const Result<core::EvalResult>& cold, int* feasible,
                       int* infeasible) {
  if (!cold.ok()) {
    ASSERT_TRUE(cold.status().IsInfeasible()) << cold.status();
    EXPECT_FALSE(warm.ok());
    if (!warm.ok()) {
      EXPECT_TRUE(warm.status().IsInfeasible()) << warm.status();
    }
    ++*infeasible;
    return;
  }
  ASSERT_TRUE(warm.ok()) << warm.status();
  ++*feasible;
  EXPECT_TRUE(core::ValidatePackage(cq, table, warm->package).ok());
  EXPECT_TRUE(core::ValidatePackage(cq, table, cold->package).ok());
  EXPECT_LE(std::abs(warm->objective - cold->objective),
            1e-6 * (1.0 + std::abs(cold->objective)))
      << "warm " << warm->objective << " vs cold " << cold->objective;
  // The kill switch must actually kill: a cold run may never take the
  // dual-simplex path.
  EXPECT_EQ(cold->stats.warm_lp_solves, 0);
  EXPECT_EQ(cold->stats.warm_model_reuses, 0);
}

TEST(DifferentialTest, WarmMatchesColdOn200RandomQueries) {
  constexpr int kQueries = 200;
  int feasible = 0, infeasible = 0;
  int64_t total_warm_lp_solves = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 6364136223u + 1442695040u);
    // Rotate the evaluation path: DIRECT, SKETCHREFINE, and top-k exercise
    // the node-level warm start; RATIO exercises basis reuse across
    // Dinkelbach iterations, the one caller whose restored basis has
    // *changed objective coefficients* (the dual-feasibility repair path).
    enum { kDirect, kSketchRefine, kTopK, kRatio } arm =
        static_cast<decltype(kDirect)>(seed % 4);

    size_t rows = arm == kSketchRefine
                      ? 150 + static_cast<size_t>(rng.UniformInt(0, 150))
                      : 30 + static_cast<size_t>(rng.UniformInt(0, 50));
    Table table = RandomTable(&rng, rows, /*null_p=*/0.1);
    int cardinality = static_cast<int>(rng.UniformInt(1, 3));
    PackageQuery query = RandomQueryB(&rng, cardinality);
    if (arm == kTopK && !query.objective.has_value()) {
      lang::Objective obj;  // enumeration requires a ranking objective
      obj.sense = lang::ObjectiveSense::kMinimize;
      obj.expr = SumOf(&rng, "P", false);
      query.objective = std::move(obj);
    }
    if (arm == kRatio) {
      auto call = std::make_unique<AggCall>();
      call->func = relation::AggFunc::kAvg;
      call->arg = RandomScalar(&rng, "P", 2);
      lang::Objective obj;
      obj.sense = rng.Bernoulli(0.5) ? lang::ObjectiveSense::kMinimize
                                     : lang::ObjectiveSense::kMaximize;
      obj.expr = GlobalExpr::Agg(std::move(call));
      query.objective = std::move(obj);
    }
    SCOPED_TRACE(StrCat("seed ", seed, " arm ", static_cast<int>(arm),
                        " rows ", rows, "\nquery:\n", lang::ToString(query)));

    // The compiled artifact validates packages; AVG objectives have no
    // linear translation, so the ratio arm compiles the constraints only
    // (exactly what RatioObjectiveEvaluator itself does).
    PackageQuery validate_query = query.Clone();
    if (arm == kRatio) validate_query.objective.reset();
    auto cq = CompiledQuery::Compile(validate_query, table.schema());
    ASSERT_TRUE(cq.ok()) << cq.status();

    switch (arm) {
      case kDirect: {
        ExecContext warm_opts, cold_opts;
        cold_opts.branch_and_bound.warm_start = false;
        auto warm = DirectEvaluator(table, warm_opts).Evaluate(*cq);
        auto cold = DirectEvaluator(table, cold_opts).Evaluate(*cq);
        ExpectSameOutcome(*cq, table, warm, cold, &feasible, &infeasible);
        if (warm.ok()) total_warm_lp_solves += warm->stats.warm_lp_solves;
        break;
      }
      case kSketchRefine: {
        partition::PartitionOptions popts;
        popts.attributes = {"a", "b", "i"};
        popts.size_threshold = 32;
        auto partitioning = partition::PartitionTable(table, popts);
        ASSERT_TRUE(partitioning.ok()) << partitioning.status();
        core::SketchRefineOptions warm_opts, cold_opts;
        cold_opts.branch_and_bound.warm_start = false;
        auto warm = core::SketchRefineEvaluator(table, *partitioning,
                                                warm_opts)
                        .Evaluate(*cq);
        auto cold = core::SketchRefineEvaluator(table, *partitioning,
                                                cold_opts)
                        .Evaluate(*cq);
        ExpectSameOutcome(*cq, table, warm, cold, &feasible, &infeasible);
        if (warm.ok()) total_warm_lp_solves += warm->stats.warm_lp_solves;
        break;
      }
      case kRatio: {
        ExecContext warm_opts, cold_opts;
        cold_opts.branch_and_bound.warm_start = false;
        auto warm =
            core::RatioObjectiveEvaluator(table, warm_opts).Evaluate(query);
        auto cold =
            core::RatioObjectiveEvaluator(table, cold_opts).Evaluate(query);
        ExpectSameOutcome(*cq, table, warm, cold, &feasible, &infeasible);
        if (warm.ok()) total_warm_lp_solves += warm->stats.warm_lp_solves;
        break;
      }
      case kTopK: {
        core::TopKOptions warm_opts, cold_opts;
        warm_opts.k = cold_opts.k = 3;
        cold_opts.branch_and_bound.warm_start = false;
        auto warm = core::EnumerateTopPackages(table, *cq, warm_opts);
        auto cold = core::EnumerateTopPackages(table, *cq, cold_opts);
        if (!cold.ok()) {
          ASSERT_TRUE(cold.status().IsInfeasible()) << cold.status();
          EXPECT_FALSE(warm.ok());
          ++infeasible;
          break;
        }
        ASSERT_TRUE(warm.ok()) << warm.status();
        ++feasible;
        ASSERT_EQ(warm->size(), cold->size());
        for (size_t i = 0; i < warm->size(); ++i) {
          const auto& w = (*warm)[i];
          const auto& c = (*cold)[i];
          EXPECT_TRUE(core::ValidatePackage(*cq, table, w.package).ok());
          EXPECT_LE(std::abs(w.objective - c.objective),
                    1e-6 * (1.0 + std::abs(c.objective)))
              << "rank " << i << ": warm " << w.objective << " vs cold "
              << c.objective;
          EXPECT_EQ(c.stats.warm_lp_solves, 0);
          total_warm_lp_solves += w.stats.warm_lp_solves;
        }
        break;
      }
    }
  }
  // Vacuity guards: both outcomes must occur, and the warm path must have
  // actually engaged the dual simplex somewhere in the sweep.
  EXPECT_GE(feasible, 25);
  EXPECT_GE(infeasible, 5);
  EXPECT_GT(total_warm_lp_solves, 0);
}

// One more warm-vs-cold input, fixed so that SKETCHREFINE provably takes
// the paths the random sweep reaches only by chance: several refined
// groups, greedy backtracking, and (warm) revisits of a group's cached
// model. An exact COUNT and a two-sided SUM window over integer data make
// some refine queries infeasible. Cold runs rebuild every refine model;
// warm runs re-target the cached one. Both must return the same package.
TEST(DifferentialTest, WarmMatchesColdOnABacktrackingSketchRefine) {
  Rng rng(188 * 7919);
  Table table{Schema({{"v", DataType::kDouble}, {"w", DataType::kDouble}})};
  int n = static_cast<int>(rng.UniformInt(20, 90));
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = static_cast<double>(rng.UniformInt(1, 60));
    double w = static_cast<double>(rng.UniformInt(1, 9));
    ASSERT_TRUE(table.AppendRow({Value(v[i]), Value(w)}).ok());
  }
  // The window is centred on the sum of k random distinct rows, so DIRECT
  // is feasible; slack 2 leaves some room around it.
  int k = static_cast<int>(rng.UniformInt(3, 8));
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  double target = 0;
  for (int i = 0; i < k; ++i) target += v[order[i]];
  auto query = lang::ParsePackageQuery(StrCat(
      "SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT COUNT(P.*) = ", k,
      " AND SUM(P.v) BETWEEN ", target - 2, " AND ", target + 2,
      " MAXIMIZE SUM(P.w)"));
  ASSERT_TRUE(query.ok()) << query.status();
  auto cq = CompiledQuery::Compile(*query, table.schema());
  ASSERT_TRUE(cq.ok()) << cq.status();
  SCOPED_TRACE(lang::ToString(*query));

  partition::PartitionOptions popts;
  popts.attributes = {"v", "w"};
  popts.size_threshold = static_cast<size_t>(n) / 6 + 1;
  auto partitioning = partition::PartitionTable(table, popts);
  ASSERT_TRUE(partitioning.ok()) << partitioning.status();

  core::SketchRefineOptions warm_opts, cold_opts;
  cold_opts.branch_and_bound.warm_start = false;
  auto warm = core::SketchRefineEvaluator(table, *partitioning, warm_opts)
                  .Evaluate(*cq);
  auto cold = core::SketchRefineEvaluator(table, *partitioning, cold_opts)
                  .Evaluate(*cq);
  int feasible = 0, infeasible = 0;
  ExpectSameOutcome(*cq, table, warm, cold, &feasible, &infeasible);
  ASSERT_EQ(feasible, 1);
  EXPECT_EQ(warm->package.rows, cold->package.rows);
  EXPECT_EQ(warm->package.multiplicity, cold->package.multiplicity);
  // Vacuity guards: the instance must exercise what it is here for.
  EXPECT_GT(warm->stats.groups_refined, 1);
  EXPECT_GT(warm->stats.backtracks, 0);
  EXPECT_GT(cold->stats.backtracks, 0);
  EXPECT_GT(warm->stats.warm_model_reuses, 0);
}

// ---------------------------------------------------------------------------
// (d) partial pricing (+ presolve + reduced-cost fixing) vs full Dantzig
// ---------------------------------------------------------------------------

/// Assert the sparse-core run and the full-Dantzig baseline agree: same
/// feasibility and, when both succeeded, valid packages with the same
/// objective. The baseline must never have touched the sparse-core paths.
void ExpectSamePricingOutcome(const CompiledQuery& cq, const Table& table,
                              const Result<core::EvalResult>& partial,
                              const Result<core::EvalResult>& full,
                              int* feasible, int* infeasible) {
  if (!full.ok()) {
    ASSERT_TRUE(full.status().IsInfeasible()) << full.status();
    EXPECT_FALSE(partial.ok());
    if (!partial.ok()) {
      EXPECT_TRUE(partial.status().IsInfeasible()) << partial.status();
    }
    ++*infeasible;
    return;
  }
  ASSERT_TRUE(partial.ok()) << partial.status();
  ++*feasible;
  EXPECT_TRUE(core::ValidatePackage(cq, table, partial->package).ok());
  EXPECT_TRUE(core::ValidatePackage(cq, table, full->package).ok());
  EXPECT_LE(std::abs(partial->objective - full->objective),
            1e-6 * (1.0 + std::abs(full->objective)))
      << "partial " << partial->objective << " vs full " << full->objective;
  // The baseline must run the pre-sparse path exactly: no candidate
  // pricing, no presolve reductions, no reduced-cost fixing.
  EXPECT_EQ(full->stats.pricing_candidate_hits, 0);
  EXPECT_EQ(full->stats.rc_fixed_vars, 0);
  EXPECT_EQ(full->stats.presolve_fixed_vars, 0);
}

/// The solver without its sparse core: full Dantzig pricing, no presolve,
/// no reduced-cost fixing. The solver-level options stay as the reference
/// these sweeps compare the default solver against.
void UseFullDantzigSolver(engine::ExecContext* exec) {
  exec->branch_and_bound.simplex.partial_pricing = false;
  exec->branch_and_bound.presolve = false;
  exec->branch_and_bound.reduced_cost_fixing = false;
}

TEST(DifferentialTest, PartialPricingMatchesFullDantzigOn200RandomQueries) {
  constexpr int kQueries = 200;
  int feasible = 0, infeasible = 0;
  int64_t total_candidate_hits = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 2862933555u + 3037000493u);
    // Rotate the evaluation path, as in the warm-vs-cold sweep: DIRECT and
    // top-k exercise whole-problem solves, SKETCHREFINE the per-group
    // subproblem solves. Tables are sized so the candidate list actually
    // engages (it needs >= 64 columns).
    enum { kDirect, kSketchRefine, kTopK } arm =
        static_cast<decltype(kDirect)>(seed % 3);
    size_t rows = arm == kSketchRefine
                      ? 150 + static_cast<size_t>(rng.UniformInt(0, 150))
                      : 100 + static_cast<size_t>(rng.UniformInt(0, 100));
    Table table = RandomTable(&rng, rows, /*null_p=*/0.1);
    int cardinality = static_cast<int>(rng.UniformInt(1, 3));
    PackageQuery query = RandomQueryB(&rng, cardinality);
    if (arm == kTopK && !query.objective.has_value()) {
      lang::Objective obj;  // enumeration requires a ranking objective
      obj.sense = lang::ObjectiveSense::kMinimize;
      obj.expr = SumOf(&rng, "P", false);
      query.objective = std::move(obj);
    }
    SCOPED_TRACE(StrCat("seed ", seed, " arm ", static_cast<int>(arm),
                        " rows ", rows, "\nquery:\n", lang::ToString(query)));

    auto cq = CompiledQuery::Compile(query, table.schema());
    ASSERT_TRUE(cq.ok()) << cq.status();

    switch (arm) {
      case kDirect: {
        ExecContext partial_opts, full_opts;
        UseFullDantzigSolver(&full_opts);
        auto partial = DirectEvaluator(table, partial_opts).Evaluate(*cq);
        auto full = DirectEvaluator(table, full_opts).Evaluate(*cq);
        ExpectSamePricingOutcome(*cq, table, partial, full, &feasible,
                                 &infeasible);
        if (partial.ok()) {
          total_candidate_hits += partial->stats.pricing_candidate_hits;
        }
        break;
      }
      case kSketchRefine: {
        partition::PartitionOptions popts;
        popts.attributes = {"a", "b", "i"};
        popts.size_threshold = 48;
        auto partitioning = partition::PartitionTable(table, popts);
        ASSERT_TRUE(partitioning.ok()) << partitioning.status();
        core::SketchRefineOptions partial_opts, full_opts;
        UseFullDantzigSolver(&full_opts);
        auto partial = core::SketchRefineEvaluator(table, *partitioning,
                                                   partial_opts)
                           .Evaluate(*cq);
        auto full = core::SketchRefineEvaluator(table, *partitioning,
                                                full_opts)
                        .Evaluate(*cq);
        ExpectSamePricingOutcome(*cq, table, partial, full, &feasible,
                                 &infeasible);
        if (partial.ok()) {
          total_candidate_hits += partial->stats.pricing_candidate_hits;
        }
        break;
      }
      case kTopK: {
        core::TopKOptions partial_opts, full_opts;
        partial_opts.k = full_opts.k = 3;
        UseFullDantzigSolver(&full_opts);
        auto partial = core::EnumerateTopPackages(table, *cq, partial_opts);
        auto full = core::EnumerateTopPackages(table, *cq, full_opts);
        if (!full.ok()) {
          ASSERT_TRUE(full.status().IsInfeasible()) << full.status();
          EXPECT_FALSE(partial.ok());
          ++infeasible;
          break;
        }
        ASSERT_TRUE(partial.ok()) << partial.status();
        ++feasible;
        ASSERT_EQ(partial->size(), full->size());
        for (size_t i = 0; i < partial->size(); ++i) {
          const auto& p = (*partial)[i];
          const auto& f = (*full)[i];
          EXPECT_TRUE(core::ValidatePackage(*cq, table, p.package).ok());
          EXPECT_LE(std::abs(p.objective - f.objective),
                    1e-6 * (1.0 + std::abs(f.objective)))
              << "rank " << i << ": partial " << p.objective << " vs full "
              << f.objective;
          EXPECT_EQ(f.stats.pricing_candidate_hits, 0);
          EXPECT_EQ(f.stats.rc_fixed_vars, 0);
          total_candidate_hits += p.stats.pricing_candidate_hits;
        }
        break;
      }
    }
  }
  // Vacuity guards: both outcomes must occur, and the candidate list must
  // have priced real pivots somewhere in the sweep.
  EXPECT_GE(feasible, 25);
  EXPECT_GE(infeasible, 5);
  EXPECT_GT(total_candidate_hits, 0);
}

// ---------------------------------------------------------------------------
// (e) threads = N vs threads = 1 (the morsel-driven parallel layer)
// ---------------------------------------------------------------------------

/// Assert the parallel run and the serial baseline agree: same
/// feasibility and, when both succeeded, valid packages with the same
/// objective. The serial baseline must never have engaged the concurrent
/// branch-and-bound.
void ExpectSameParallelOutcome(const CompiledQuery& cq, const Table& table,
                               const Result<core::EvalResult>& parallel,
                               const Result<core::EvalResult>& serial,
                               int* feasible, int* infeasible) {
  if (!serial.ok()) {
    ASSERT_TRUE(serial.status().IsInfeasible()) << serial.status();
    EXPECT_FALSE(parallel.ok());
    if (!parallel.ok()) {
      EXPECT_TRUE(parallel.status().IsInfeasible()) << parallel.status();
    }
    ++*infeasible;
    return;
  }
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ++*feasible;
  EXPECT_TRUE(core::ValidatePackage(cq, table, parallel->package).ok());
  EXPECT_TRUE(core::ValidatePackage(cq, table, serial->package).ok());
  EXPECT_LE(std::abs(parallel->objective - serial->objective),
            1e-6 * (1.0 + std::abs(serial->objective)))
      << "threads=4 " << parallel->objective << " vs threads=1 "
      << serial->objective;
  EXPECT_EQ(serial->stats.parallel_bnb_nodes, 0);
}

TEST(DifferentialTest, ThreadsMatchSerialOn200RandomQueries) {
  constexpr int kQueries = 200;
  int feasible = 0, infeasible = 0;
  int64_t total_parallel_nodes = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 1181783497u + 622729787u);
    // Rotate the evaluation path: DIRECT and top-k exercise the parallel
    // whole-problem solve + parallel base scan, SKETCHREFINE the parallel
    // partitioning statistics and per-group subproblems. Tables carry
    // >= 64 candidate columns so the concurrent search actually engages.
    enum { kDirect, kSketchRefine, kTopK } arm =
        static_cast<decltype(kDirect)>(seed % 3);
    size_t rows = arm == kSketchRefine
                      ? 150 + static_cast<size_t>(rng.UniformInt(0, 150))
                      : 100 + static_cast<size_t>(rng.UniformInt(0, 100));
    Table table = RandomTable(&rng, rows, /*null_p=*/0.1);
    int cardinality = static_cast<int>(rng.UniformInt(1, 3));
    PackageQuery query = RandomQueryB(&rng, cardinality);
    if (arm == kTopK && !query.objective.has_value()) {
      lang::Objective obj;  // enumeration requires a ranking objective
      obj.sense = lang::ObjectiveSense::kMinimize;
      obj.expr = SumOf(&rng, "P", false);
      query.objective = std::move(obj);
    }
    SCOPED_TRACE(StrCat("seed ", seed, " arm ", static_cast<int>(arm),
                        " rows ", rows, "\nquery:\n", lang::ToString(query)));

    auto cq = CompiledQuery::Compile(query, table.schema());
    ASSERT_TRUE(cq.ok()) << cq.status();

    switch (arm) {
      case kDirect: {
        ExecContext parallel_opts, serial_opts;
        parallel_opts.threads = 4;
        serial_opts.threads = 1;
        auto parallel = DirectEvaluator(table, parallel_opts).Evaluate(*cq);
        auto serial = DirectEvaluator(table, serial_opts).Evaluate(*cq);
        ExpectSameParallelOutcome(*cq, table, parallel, serial, &feasible,
                                  &infeasible);
        if (parallel.ok()) {
          total_parallel_nodes += parallel->stats.parallel_bnb_nodes;
        }
        break;
      }
      case kSketchRefine: {
        partition::PartitionOptions popts;
        popts.attributes = {"a", "b", "i"};
        popts.size_threshold = 48;
        popts.threads = 4;
        auto partitioning = partition::PartitionTable(table, popts);
        ASSERT_TRUE(partitioning.ok()) << partitioning.status();
        // The parallel-built partitioning must equal a serial build
        // (checked in depth by parallel_exec_test; the gid spot check
        // here keeps the sweep honest).
        partition::PartitionOptions serial_popts = popts;
        serial_popts.threads = 1;
        auto serial_partitioning =
            partition::PartitionTable(table, serial_popts);
        ASSERT_TRUE(serial_partitioning.ok());
        ASSERT_EQ(partitioning->gid, serial_partitioning->gid);
        core::SketchRefineOptions parallel_opts, serial_opts;
        parallel_opts.threads = 4;
        serial_opts.threads = 1;
        auto parallel = core::SketchRefineEvaluator(table, *partitioning,
                                                    parallel_opts)
                            .Evaluate(*cq);
        auto serial = core::SketchRefineEvaluator(table, *partitioning,
                                                  serial_opts)
                          .Evaluate(*cq);
        ExpectSameParallelOutcome(*cq, table, parallel, serial, &feasible,
                                  &infeasible);
        if (parallel.ok()) {
          total_parallel_nodes += parallel->stats.parallel_bnb_nodes;
        }
        break;
      }
      case kTopK: {
        core::TopKOptions parallel_opts, serial_opts;
        parallel_opts.k = serial_opts.k = 3;
        parallel_opts.threads = 4;
        serial_opts.threads = 1;
        auto parallel = core::EnumerateTopPackages(table, *cq, parallel_opts);
        auto serial = core::EnumerateTopPackages(table, *cq, serial_opts);
        if (!serial.ok()) {
          ASSERT_TRUE(serial.status().IsInfeasible()) << serial.status();
          EXPECT_FALSE(parallel.ok());
          ++infeasible;
          break;
        }
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        ++feasible;
        // Ranks past the first may legitimately diverge: when optima are
        // tied, the concurrent search can return a different (equally
        // optimal) rank-1 package, and the exclusion cut it induces
        // reshapes the rank-2+ space. The rank-1 objective, though, is
        // the problem optimum and must match.
        ASSERT_GE(parallel->size(), 1u);
        ASSERT_GE(serial->size(), 1u);
        EXPECT_LE(std::abs((*parallel)[0].objective - (*serial)[0].objective),
                  1e-6 * (1.0 + std::abs((*serial)[0].objective)))
            << "threads=4 " << (*parallel)[0].objective << " vs threads=1 "
            << (*serial)[0].objective;
        for (size_t i = 0; i < parallel->size(); ++i) {
          const auto& p = (*parallel)[i];
          EXPECT_TRUE(core::ValidatePackage(*cq, table, p.package).ok());
          total_parallel_nodes += p.stats.parallel_bnb_nodes;
        }
        for (size_t i = 0; i < serial->size(); ++i) {
          EXPECT_EQ((*serial)[i].stats.parallel_bnb_nodes, 0);
        }
        break;
      }
    }
  }
  // Vacuity guards: both outcomes must occur, and the concurrent search
  // must actually have explored nodes somewhere in the sweep.
  EXPECT_GE(feasible, 25);
  EXPECT_GE(infeasible, 5);
  EXPECT_GT(total_parallel_nodes, 0);
}

}  // namespace
}  // namespace paql
