#include "core/ratio_objective.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/package.h"
#include "paql/parser.h"
#include "translate/compiled_query.h"

namespace paql::core {
namespace {

using lang::ParsePackageQuery;
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
    double cost = std::floor(rng.Uniform(1.0, 10.0));
    double gain = std::floor(cost * rng.Uniform(0.5, 2.0));
    EXPECT_TRUE(t.AppendRow({Value(i), Value(cost), Value(gain),
                             Value(i % 2 == 0 ? "a" : "b")})
                    .ok());
  }
  return t;
}

/// Brute-force best AVG(cost) over REPEAT-0 subsets satisfying the query's
/// constraints (ignores the query's own objective; evaluates the given
/// ratio columns). Returns nullopt when infeasible.
std::optional<double> BruteForceBestAvg(const lang::PackageQuery& query,
                                        const Table& t, bool maximize,
                                        int value_col) {
  lang::PackageQuery constraints = query.Clone();
  constraints.objective.reset();
  auto cq = translate::CompiledQuery::Compile(constraints, t.schema());
  EXPECT_TRUE(cq.ok()) << cq.status();
  int n = static_cast<int>(t.num_rows());
  EXPECT_LE(n, 16);
  std::optional<double> best;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Package p;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        p.rows.push_back(static_cast<RowId>(i));
        p.multiplicity.push_back(1);
      }
    }
    if (!ValidatePackage(*cq, t, p).ok()) continue;
    double sum = 0, cnt = 0;
    for (RowId r : p.rows) {
      sum += t.GetDouble(r, static_cast<size_t>(value_col));
      cnt += 1;
    }
    double avg = sum / cnt;
    if (!best.has_value() || (maximize ? avg > *best : avg < *best)) {
      best = avg;
    }
  }
  return best;
}

void CheckRatioAgainstBruteForce(const std::string& text, const Table& t,
                                 int value_col) {
  SCOPED_TRACE(text);
  auto q = ParsePackageQuery(text);
  ASSERT_TRUE(q.ok()) << q.status();
  bool maximize =
      q->objective->sense == lang::ObjectiveSense::kMaximize;
  std::optional<double> best =
      BruteForceBestAvg(*q, t, maximize, value_col);
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  if (!best.has_value()) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInfeasible()) << r.status();
    return;
  }
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->objective, *best, 1e-6);
  EXPECT_FALSE(r->package.rows.empty());
}

TEST(RatioObjectiveTest, MinimizeAvgCostUnderCardinality) {
  Table t = MakeItems(12, 1);
  CheckRatioAgainstBruteForce(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 3 MINIMIZE AVG(P.cost)",
      t, 1);
}

TEST(RatioObjectiveTest, MaximizeAvgGainUnderBudget) {
  Table t = MakeItems(12, 2);
  CheckRatioAgainstBruteForce(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT SUM(P.cost) <= 18 AND COUNT(P.*) >= 2 "
      "MAXIMIZE AVG(P.gain)",
      t, 2);
}

TEST(RatioObjectiveTest, CardinalityRangeChoosesBestDenominator) {
  // With COUNT between 2 and 5, minimizing AVG trades off adding cheap
  // tuples against diluting with mid-priced ones — the classic case where
  // a fixed-denominator heuristic goes wrong.
  Table t = MakeItems(12, 3);
  CheckRatioAgainstBruteForce(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) BETWEEN 2 AND 5 MINIMIZE AVG(P.cost)",
      t, 1);
}

TEST(RatioObjectiveTest, WhereClauseFiltersCandidates) {
  Table t = MakeItems(12, 4);
  CheckRatioAgainstBruteForce(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "WHERE R.cat = 'a' "
      "SUCH THAT COUNT(P.*) = 2 MINIMIZE AVG(P.cost)",
      t, 1);
}

TEST(RatioObjectiveTest, InfeasibleConstraintsReported) {
  Table t = MakeItems(6, 5);
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 0 MINIMIZE AVG(P.cost)");
  ASSERT_TRUE(q.ok());
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

TEST(RatioObjectiveTest, RejectsLinearObjectives) {
  Table t = MakeItems(6, 6);
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.cost)");
  ASSERT_TRUE(q.ok());
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RatioObjectiveTest, EmptyPackageNeverReturned) {
  // Without constraints the minimum-AVG package is the single cheapest
  // tuple; the empty package (undefined AVG) must not win.
  Table t = MakeItems(10, 7);
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 MINIMIZE AVG(P.cost)");
  ASSERT_TRUE(q.ok());
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->package.TotalCount(), 1);
  double min_cost = 1e18;
  for (RowId i = 0; i < t.num_rows(); ++i) {
    min_cost = std::min(min_cost, t.GetDouble(i, 1));
  }
  EXPECT_NEAR(r->objective, min_cost, 1e-9);
}

TEST(RatioObjectiveTest, StatsCountInnerSolves) {
  Table t = MakeItems(12, 8);
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) BETWEEN 2 AND 4 MINIMIZE AVG(P.cost)");
  ASSERT_TRUE(q.ok());
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GE(r->stats.ilp_solves, 1);
  EXPECT_LE(r->stats.ilp_solves, 64);
}

TEST(RatioObjectiveTest, RepeatQueriesCountMultiplicities) {
  // With REPEAT 1 the cheapest tuple can be taken twice; AVG over the
  // multiset counts both copies, so the optimal plan duplicates it.
  Table t = MakeItems(8, 9);
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 1 "
      "SUCH THAT COUNT(P.*) = 2 MINIMIZE AVG(P.cost)");
  ASSERT_TRUE(q.ok());
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  ASSERT_TRUE(r.ok()) << r.status();
  double min_cost = 1e18;
  for (RowId i = 0; i < t.num_rows(); ++i) {
    min_cost = std::min(min_cost, t.GetDouble(i, 1));
  }
  EXPECT_NEAR(r->objective, min_cost, 1e-9);
  EXPECT_EQ(r->package.TotalCount(), 2);
  ASSERT_EQ(r->package.rows.size(), 1u);  // one tuple, multiplicity 2
  EXPECT_EQ(r->package.multiplicity[0], 2);
}

TEST(RatioObjectiveTest, FilteredAvgIgnoresNonMatchingTuples) {
  // AVG over a filtered subquery: only 'a'-category tuples count toward
  // the ratio; the package may still contain 'b' tuples for the COUNT.
  Table t = MakeItems(12, 10);
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 4 "
      "MINIMIZE (SELECT AVG(cost) FROM P WHERE P.cat = 'a')");
  ASSERT_TRUE(q.ok());
  RatioObjectiveEvaluator ratio(t);
  auto r = ratio.Evaluate(*q);
  ASSERT_TRUE(r.ok()) << r.status();
  // The objective equals the AVG over the selected 'a' tuples only.
  double sum = 0, cnt = 0;
  for (size_t i = 0; i < r->package.rows.size(); ++i) {
    RowId row = r->package.rows[i];
    if (t.GetString(row, 3) == "a") {
      sum += t.GetDouble(row, 1) *
             static_cast<double>(r->package.multiplicity[i]);
      cnt += static_cast<double>(r->package.multiplicity[i]);
    }
  }
  ASSERT_GT(cnt, 0);
  EXPECT_NEAR(r->objective, sum / cnt, 1e-9);
  // The cheapest 'a' tuple alone achieves the global minimum ratio.
  double min_a = 1e18;
  for (RowId i = 0; i < t.num_rows(); ++i) {
    if (t.GetString(i, 3) == "a") {
      min_a = std::min(min_a, t.GetDouble(i, 1));
    }
  }
  EXPECT_NEAR(r->objective, min_a, 1e-9);
}

TEST(RatioObjectiveTest, TimeLimitBoundsAllIterations) {
  // 400 items under a knapsack row: three Dinkelbach iterations, the first
  // two each well under a third of the run.
  Table t{Schema({{"w", DataType::kDouble}, {"gain", DataType::kDouble}})};
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const double w = std::floor(rng.Uniform(1, 100));
    const double gain =
        std::floor(w * rng.Uniform(0.5, 1.5) + rng.Uniform(0, 20));
    ASSERT_TRUE(t.AppendRow({Value(w), Value(gain)}).ok());
  }
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT "
      "COUNT(P.*) BETWEEN 30 AND 60 AND SUM(P.w) <= 1500 "
      "MAXIMIZE AVG(P.gain)");
  ASSERT_TRUE(q.ok()) << q.status();
  engine::ExecContext options;
  options.threads = 1;
  Stopwatch unlimited_watch;
  auto full = RatioObjectiveEvaluator(t, options).Evaluate(*q);
  const double unlimited_s = unlimited_watch.ElapsedSeconds();
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_GE(full->stats.ilp_solves, 3);

  // A limit applied to each solve separately lets the first two
  // iterations finish and then gives the last one a whole limit more, so
  // the query runs about 1.6 limits long. The limit covers all
  // iterations: the run must stop soon after one limit (or finish, if
  // this run is faster).
  options.limits.time_limit_s = unlimited_s / 3;
  Stopwatch limited_watch;
  auto limited = RatioObjectiveEvaluator(t, options).Evaluate(*q);
  const double limited_s = limited_watch.ElapsedSeconds();
  if (!limited.ok()) {
    EXPECT_TRUE(limited.status().IsResourceExhausted()) << limited.status();
  }
  EXPECT_LE(limited_s, 1.25 * options.limits.time_limit_s)
      << "unlimited run " << unlimited_s << " s";
}

class RatioSeedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RatioSeedTest, DinkelbachMatchesBruteForce) {
  unsigned seed = GetParam();
  Table t = MakeItems(11, seed * 97 + 13);
  Rng rng(seed * 7 + 1);
  int lo = static_cast<int>(rng.UniformInt(1, 3));
  int hi = lo + static_cast<int>(rng.UniformInt(0, 3));
  bool maximize = rng.UniformInt(0, 1) == 1;
  CheckRatioAgainstBruteForce(
      StrCat("SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 SUCH THAT "
             "COUNT(P.*) BETWEEN ",
             lo, " AND ", hi, maximize ? " MAXIMIZE" : " MINIMIZE",
             " AVG(P.", maximize ? "gain" : "cost", ")"),
      t, maximize ? 2 : 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RatioSeedTest, ::testing::Range(1u, 17u));

}  // namespace
}  // namespace paql::core
