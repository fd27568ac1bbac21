#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/direct.h"
#include "core/naive.h"
#include "core/package.h"
#include "core/sketch_refine.h"
#include "paql/parser.h"

namespace paql::core {
namespace {

using lang::ParsePackageQuery;
using partition::PartitionOptions;
using partition::PartitionTable;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::Value;

Table MakeItems(int n, uint64_t seed) {
  Table t{Schema({{"id", DataType::kInt64},
                  {"cost", DataType::kDouble},
                  {"gain", DataType::kDouble},
                  {"cat", DataType::kString}})};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double cost = rng.Uniform(1.0, 10.0);
    double gain = cost * rng.Uniform(0.5, 2.0);
    EXPECT_TRUE(t.AppendRow({Value(i), Value(cost), Value(gain),
                             Value(i % 3 == 0 ? "a" : "b")})
                    .ok());
  }
  return t;
}

translate::CompiledQuery MustCompile(const std::string& text,
                                     const Table& table) {
  auto q = ParsePackageQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  auto cq = translate::CompiledQuery::Compile(*q, table.schema());
  EXPECT_TRUE(cq.ok()) << cq.status();
  return std::move(*cq);
}

constexpr const char* kKnapsack = R"(
    SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
    SUCH THAT COUNT(P.*) = 5 AND SUM(P.cost) <= 25
    MAXIMIZE SUM(P.gain))";

TEST(PackageTest, TotalCountAndMaterialize) {
  Table t = MakeItems(4, 1);
  Package p;
  p.rows = {2, 0};
  p.multiplicity = {3, 1};
  EXPECT_EQ(p.TotalCount(), 4);
  Table m = p.Materialize(t);
  ASSERT_EQ(m.num_rows(), 4u);
  EXPECT_EQ(m.GetInt64(0, 0), 2);
  EXPECT_EQ(m.GetInt64(2, 0), 2);
  EXPECT_EQ(m.GetInt64(3, 0), 0);
}

TEST(PackageTest, NormalizeSortsByRow) {
  Package p;
  p.rows = {5, 1, 3};
  p.multiplicity = {1, 2, 3};
  p.Normalize();
  EXPECT_EQ(p.rows, (std::vector<RowId>{1, 3, 5}));
  EXPECT_EQ(p.multiplicity, (std::vector<int64_t>{2, 3, 1}));
}

TEST(PackageTest, ValidatePackageChecks) {
  Table t = MakeItems(10, 2);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      WHERE R.cat = 'a'
      SUCH THAT COUNT(P.*) = 2)",
                        t);
  Package good;
  good.rows = {0, 3};  // both cat 'a' (ids divisible by 3)
  good.multiplicity = {1, 1};
  EXPECT_TRUE(ValidatePackage(cq, t, good).ok());

  Package bad_base = good;
  bad_base.rows = {0, 1};  // id 1 is cat 'b'
  EXPECT_FALSE(ValidatePackage(cq, t, bad_base).ok());

  Package bad_repeat = good;
  bad_repeat.multiplicity = {2, 1};  // REPEAT 0 allows one copy
  EXPECT_FALSE(ValidatePackage(cq, t, bad_repeat).ok());

  Package bad_count = good;
  bad_count.rows = {0, 3, 6};
  bad_count.multiplicity = {1, 1, 1};
  EXPECT_TRUE(ValidatePackage(cq, t, bad_count).IsInfeasible());
}

TEST(DirectTest, SolvesKnapsackQuery) {
  Table t = MakeItems(50, 3);
  DirectEvaluator direct(t);
  auto cq = MustCompile(kKnapsack, t);
  auto r = direct.Evaluate(cq);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->package.TotalCount(), 5);
  EXPECT_TRUE(ValidatePackage(cq, t, r->package).ok());
  EXPECT_GT(r->stats.ilp_solves, 0);
  EXPECT_NEAR(r->objective,
              cq.ObjectiveValue(t, r->package.rows, r->package.multiplicity),
              1e-9);
}

TEST(DirectTest, InfeasibleQueryReported) {
  Table t = MakeItems(5, 4);
  DirectEvaluator direct(t);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 10)",
                        t);
  auto r = direct.Evaluate(cq);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

TEST(DirectTest, BudgetFailureSurfaced) {
  Table t = MakeItems(60, 5);
  engine::ExecContext options;
  options.limits.max_nodes = 1;
  options.branch_and_bound.enable_rounding_heuristic = false;
  options.branch_and_bound.enable_diving_heuristic = false;
  DirectEvaluator direct(t, options);
  // An equality-sum query whose LP relaxation is fractional.
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 5 AND SUM(P.cost) BETWEEN 20.111 AND 20.112
      MAXIMIZE SUM(P.gain))",
                        t);
  auto r = direct.Evaluate(cq);
  if (!r.ok()) {  // budget failure is the expected outcome
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  }
}

TEST(DirectTest, RepeatAllowsMultiples) {
  Table t = MakeItems(3, 6);
  DirectEvaluator direct(t);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 2
      SUCH THAT COUNT(P.*) = 6
      MINIMIZE SUM(P.cost))",
                        t);
  auto r = direct.Evaluate(cq);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->package.TotalCount(), 6);
  int64_t max_mult = 0;
  for (int64_t mult : r->package.multiplicity) {
    max_mult = std::max(max_mult, mult);
  }
  EXPECT_LE(max_mult, 3);  // REPEAT 2 allows up to 3 copies
  EXPECT_TRUE(ValidatePackage(cq, t, r->package).ok());
}

// --- SketchRefine ---

struct SrSetup {
  Table table;
  partition::Partitioning partitioning;
};

SrSetup MakeSetup(int n, uint64_t seed, size_t tau) {
  SrSetup setup;
  setup.table = MakeItems(n, seed);
  PartitionOptions options;
  options.attributes = {"cost", "gain"};
  options.size_threshold = tau;
  auto p = PartitionTable(setup.table, options);
  EXPECT_TRUE(p.ok()) << p.status();
  setup.partitioning = std::move(*p);
  return setup;
}

TEST(SketchRefineTest, ProducesFeasiblePackage) {
  SrSetup s = MakeSetup(200, 7, 20);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(kKnapsack, s.table);
  auto r = sr.Evaluate(cq);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(ValidatePackage(cq, s.table, r->package).ok());
  EXPECT_EQ(r->package.TotalCount(), 5);
  EXPECT_GT(r->stats.groups_refined, 0);
}

TEST(SketchRefineTest, ObjectiveCloseToDirect) {
  SrSetup s = MakeSetup(300, 8, 30);
  DirectEvaluator direct(s.table);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(kKnapsack, s.table);
  auto d = direct.Evaluate(cq);
  auto a = sr.Evaluate(cq);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(a.ok()) << a.status();
  // Maximization: approximation ratio Direct/SketchRefine >= 1, and should
  // be small on smooth random data.
  double ratio = d->objective / a->objective;
  EXPECT_GE(ratio, 1.0 - 1e-9);
  EXPECT_LE(ratio, 2.0);
}

TEST(SketchRefineTest, MinimizationQuery) {
  SrSetup s = MakeSetup(150, 9, 25);
  DirectEvaluator direct(s.table);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 4 AND SUM(P.gain) >= 20
      MINIMIZE SUM(P.cost))",
                        s.table);
  auto d = direct.Evaluate(cq);
  auto a = sr.Evaluate(cq);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(ValidatePackage(cq, s.table, a->package).ok());
  EXPECT_GE(a->objective, d->objective - 1e-9);  // DIRECT is optimal
}

TEST(SketchRefineTest, BasePredicateRestrictsGroups) {
  SrSetup s = MakeSetup(120, 10, 15);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      WHERE R.cat = 'a'
      SUCH THAT COUNT(P.*) = 3
      MINIMIZE SUM(P.cost))",
                        s.table);
  auto r = sr.Evaluate(cq);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(ValidatePackage(cq, s.table, r->package).ok());
}

TEST(SketchRefineTest, InfeasibleQueryReported) {
  SrSetup s = MakeSetup(30, 11, 10);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 100)",
                        s.table);
  auto r = sr.Evaluate(cq);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

TEST(SketchRefineTest, RepeatQueries) {
  SrSetup s = MakeSetup(60, 12, 12);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 1
      SUCH THAT COUNT(P.*) = 8 AND SUM(P.cost) <= 30
      MINIMIZE SUM(P.cost))",
                        s.table);
  auto r = sr.Evaluate(cq);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(ValidatePackage(cq, s.table, r->package).ok());
  EXPECT_EQ(r->package.TotalCount(), 8);
}

TEST(SketchRefineTest, UnboundedRepetition) {
  SrSetup s = MakeSetup(40, 13, 10);
  SketchRefineEvaluator sr(s.table, s.partitioning);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R
      SUCH THAT COUNT(P.*) = 12
      MINIMIZE SUM(P.cost))",
                        s.table);
  auto r = sr.Evaluate(cq);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->package.TotalCount(), 12);
  // With unbounded repetition the optimum repeats the cheapest tuple.
  EXPECT_TRUE(ValidatePackage(cq, s.table, r->package).ok());
}

TEST(SketchRefineTest, ApproximationBoundHolds) {
  // Theorem 3: with a radius-limited partitioning derived from epsilon, the
  // objective is within (1 +/- eps)^6 of DIRECT. Use positive data bounded
  // away from zero so the conservative omega derivation applies.
  Table t{Schema({{"v", DataType::kDouble}, {"w", DataType::kDouble}})};
  Rng rng(15);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.Uniform(5.0, 10.0)),
                             Value(rng.Uniform(5.0, 10.0))})
                    .ok());
  }
  double eps = 0.25;
  auto omega =
      partition::RadiusLimitForEpsilon(t, {"v", "w"}, eps, /*maximize=*/true);
  ASSERT_TRUE(omega.ok());
  PartitionOptions popts;
  popts.attributes = {"v", "w"};
  popts.size_threshold = 40;
  popts.radius_limit = *omega;
  auto part = PartitionTable(t, popts);
  ASSERT_TRUE(part.ok());

  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM T R REPEAT 0
      SUCH THAT COUNT(P.*) = 6 AND SUM(P.w) <= 50
      MAXIMIZE SUM(P.v))",
                        t);
  DirectEvaluator direct(t);
  SketchRefineEvaluator sr(t, *part);
  auto d = direct.Evaluate(cq);
  auto a = sr.Evaluate(cq);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(a.ok()) << a.status();
  double bound = std::pow(1.0 - eps, 6) * d->objective;
  EXPECT_GE(a->objective, bound - 1e-9);
  EXPECT_LE(a->objective, d->objective + 1e-9);  // DIRECT is optimal
}

TEST(SketchRefineTest, TimeLimitBoundsTheWholeRun) {
  // 100k rows in groups of at most 2,000; COUNT = 40,000 spreads the sketch
  // package over 20+ groups, so the run is a long chain of refine solves,
  // each much shorter than the run.
  Table t{Schema({{"x", DataType::kDouble}, {"w", DataType::kDouble}})};
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(rng.Uniform(0, 100)), Value(rng.Uniform(1, 10))})
            .ok());
  }
  PartitionOptions popts;
  popts.attributes = {"x", "w"};
  popts.size_threshold = 2000;
  auto part = PartitionTable(t, popts);
  ASSERT_TRUE(part.ok()) << part.status();
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM T R REPEAT 0
      SUCH THAT COUNT(P.*) = 40000 AND SUM(P.w) <= 200000
      MAXIMIZE SUM(P.x))",
                        t);
  SketchRefineOptions options;
  options.threads = 1;
  Stopwatch unlimited_watch;
  auto full = SketchRefineEvaluator(t, *part, options).Evaluate(cq);
  const double unlimited_s = unlimited_watch.ElapsedSeconds();
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_GE(full->stats.ilp_solves, 20);

  // With 20+ similar solves, a quarter of the run is longer than any one
  // of them, so a limit applied to each solve separately would let the
  // query run about four limits long. The limit covers the whole run: it
  // must stop soon after one limit (or finish, if this run is faster).
  options.limits.time_limit_s = unlimited_s / 4;
  Stopwatch limited_watch;
  auto limited = SketchRefineEvaluator(t, *part, options).Evaluate(cq);
  const double limited_s = limited_watch.ElapsedSeconds();
  if (!limited.ok()) {
    EXPECT_TRUE(limited.status().IsResourceExhausted()) << limited.status();
  }
  EXPECT_LE(limited_s, 2 * options.limits.time_limit_s)
      << "unlimited run " << unlimited_s << " s";
}

// --- Naive self-join evaluator ---

TEST(NaiveTest, MatchesDirectOnSmallData) {
  Table t = MakeItems(12, 16);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 18
      MAXIMIZE SUM(P.gain))",
                        t);
  DirectEvaluator direct(t);
  NaiveSelfJoinEvaluator naive(t);
  auto d = direct.Evaluate(cq);
  auto nv = naive.Evaluate(cq, 3);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(nv.ok()) << nv.status();
  EXPECT_NEAR(d->objective, nv->objective, 1e-9);
}

TEST(NaiveTest, RejectsRepeatQueries) {
  Table t = MakeItems(5, 17);
  auto cq = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Items R SUCH THAT COUNT(P.*) = 2", t);
  NaiveSelfJoinEvaluator naive(t);
  auto r = naive.Evaluate(cq, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(NaiveTest, TimeLimitReported) {
  Table t = MakeItems(80, 18);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 6 AND SUM(P.cost) <= 1
      MINIMIZE SUM(P.cost))",
                        t);
  NaiveOptions options;
  options.time_limit_s = 1e-4;
  NaiveSelfJoinEvaluator naive(t, options);
  auto r = naive.Evaluate(cq, 6);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(NaiveTest, CombinationCount) {
  EXPECT_DOUBLE_EQ(NaiveSelfJoinEvaluator::CombinationCount(5, 2), 10.0);
  EXPECT_NEAR(NaiveSelfJoinEvaluator::CombinationCount(100, 7), 1.6008e10,
              1e7);
}

TEST(NaiveTest, InfeasibleDetected) {
  Table t = MakeItems(6, 19);
  auto cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 2 AND SUM(P.cost) <= 0)",
                        t);
  NaiveSelfJoinEvaluator naive(t);
  auto r = naive.Evaluate(cq, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

// --- Property: Direct vs SketchRefine vs Naive agree on feasibility, and
// SketchRefine never beats Direct (modulo solver exactness). ---

class EngineAgreementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineAgreementTest, FeasibleAndOrdered) {
  unsigned seed = GetParam();
  Table t = MakeItems(80, seed);
  PartitionOptions popts;
  popts.attributes = {"cost", "gain"};
  popts.size_threshold = 10 + seed % 20;
  auto part = PartitionTable(t, popts);
  ASSERT_TRUE(part.ok());

  Rng rng(seed * 977);
  int count = static_cast<int>(rng.UniformInt(2, 6));
  double budget = rng.Uniform(15.0, 45.0);
  std::string text = paql::StrCat(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 SUCH THAT COUNT(P.*) = ",
      count, " AND SUM(P.cost) <= ", budget, " MAXIMIZE SUM(P.gain)");
  auto cq = MustCompile(text, t);

  DirectEvaluator direct(t);
  SketchRefineEvaluator sr(t, *part);
  auto d = direct.Evaluate(cq);
  auto a = sr.Evaluate(cq);
  ASSERT_TRUE(d.ok()) << d.status();  // these instances are feasible
  if (!a.ok()) {
    // False infeasibility is permitted by Theorem 4 but should be rare.
    EXPECT_TRUE(a.status().IsInfeasible()) << a.status();
    return;
  }
  EXPECT_TRUE(ValidatePackage(cq, t, a->package).ok());
  EXPECT_LE(a->objective, d->objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementTest,
                         ::testing::Range(1u, 21u));

}  // namespace
}  // namespace paql::core
