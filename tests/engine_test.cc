// End-to-end tests for the paql::Engine facade: one declarative PaQL
// statement in, the system — not the caller — picks the strategy.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/package.h"
#include "paql/parser.h"

namespace paql {
namespace {

using relation::DataType;
using relation::Schema;
using relation::Table;
using relation::Value;

/// The paper's Example 1 relation (the meal planner), optionally padded
/// with `decoys` extra non-gluten-free rows whose numeric values are far
/// from the real recipes. The decoys push the row count over a small
/// planner threshold (forcing the SKETCHREFINE regime) without entering
/// the base relation, so the workload's optimum is unchanged — and the
/// real recipes cluster into their own partition group, which REFINE then
/// solves exactly.
Table MakeRecipes(int decoys = 0) {
  Table recipes{Schema({{"name", DataType::kString},
                        {"gluten", DataType::kString},
                        {"kcal", DataType::kDouble},
                        {"saturated_fat", DataType::kDouble}})};
  struct Recipe {
    const char* name;
    const char* gluten;
    double kcal, fat;
  };
  const Recipe kRecipes[] = {
      {"lentil soup", "free", 0.55, 1.2},
      {"grilled salmon", "free", 0.80, 3.1},
      {"pasta carbonara", "full", 1.10, 12.4},
      {"rice bowl", "free", 0.95, 2.0},
      {"quinoa salad", "free", 0.60, 0.9},
      {"steak frites", "free", 1.20, 9.5},
      {"bread pudding", "full", 0.85, 6.2},
      {"fruit parfait", "free", 0.45, 2.5},
      {"omelette", "free", 0.70, 4.8},
      {"tofu stir fry", "free", 0.75, 1.6},
  };
  for (const Recipe& r : kRecipes) {
    EXPECT_TRUE(recipes
                    .AppendRow({Value(r.name), Value(r.gluten),
                                Value(r.kcal), Value(r.fat)})
                    .ok());
  }
  for (int d = 0; d < decoys; ++d) {
    EXPECT_TRUE(recipes
                    .AppendRow({Value("decoy"), Value("full"),
                                Value(100.0 + d % 17), Value(80.0 + d % 13)})
                    .ok());
  }
  return recipes;
}

/// Example 1 (paper §2.1): three gluten-free meals, 2.0-2.5 total kcal
/// (in thousands), minimize saturated fat. Optimum on the data above:
/// lentil soup + quinoa salad + rice bowl = 4.1 g.
constexpr const char* kExample1 = R"(
    SELECT PACKAGE(R) AS P
    FROM Recipes R REPEAT 0
    WHERE R.gluten = 'free'
    SUCH THAT COUNT(P.*) = 3 AND
              SUM(P.kcal) BETWEEN 2.0 AND 2.5
    MINIMIZE SUM(P.saturated_fat))";
constexpr double kExample1Optimum = 4.1;

/// Validate a result package against the query it answered (for an AVG
/// objective, against its constraints).
void ExpectFeasible(const QueryResult& result, const char* paql) {
  auto parsed = lang::ParsePackageQuery(paql);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto cq = engine::CompiledQuery::Compile(*parsed, result.table->schema());
  ASSERT_TRUE(cq.ok()) << cq.status();
  Status valid =
      core::ValidatePackage(cq->ilp, *result.table, result.package);
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(EngineTest, Example1ThroughTheFacade) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = session->Execute(kExample1);
  ASSERT_TRUE(result.ok()) << result.status();

  // 10 rows, far below the default threshold: the planner picks DIRECT.
  EXPECT_EQ(result->plan.strategy, engine::Strategy::kDirect);
  EXPECT_NEAR(result->objective, kExample1Optimum, 1e-9);
  EXPECT_EQ(result->package.TotalCount(), 3);
  ExpectFeasible(*result, kExample1);

  // The materialized answer has the input schema.
  Table plan = result->Materialize();
  EXPECT_EQ(plan.num_rows(), 3u);
  EXPECT_EQ(plan.schema().num_columns(), 4u);
}

TEST(EngineTest, PlannerPicksSketchRefineAboveThresholdSameAnswer) {
  // 300 rows with a 100-row threshold: SKETCHREFINE. The decoys never
  // pass WHERE, so the base relation — and the exact optimum — are those
  // of Example 1, and the approximate strategy must find an
  // identically-valued feasible package.
  EngineOptions options;
  options.planner.direct_row_threshold = 100;
  auto session = Engine::Open(MakeRecipes(290), "Recipes", options);
  ASSERT_TRUE(session.ok()) << session.status();

  auto result = session->Execute(kExample1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.strategy, engine::Strategy::kSketchRefine);
  EXPECT_GT(result->plan.partition_groups, 0u);
  EXPECT_FALSE(result->plan.partitioning_reused);
  ExpectFeasible(*result, kExample1);
  EXPECT_NEAR(result->objective, kExample1Optimum, 1e-9);

  // Same session, explicit override: DIRECT on the same 300 rows agrees.
  session->options().planner.force = engine::Strategy::kDirect;
  auto direct = session->Execute(kExample1);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(direct->plan.strategy, engine::Strategy::kDirect);
  EXPECT_NEAR(direct->objective, result->objective, 1e-9);
}

TEST(EngineTest, ExplicitOverrideWinsOverThreshold) {
  EngineOptions options;
  options.planner.direct_row_threshold = 100;
  options.planner.force = engine::Strategy::kDirect;
  auto session = Engine::Open(MakeRecipes(290), "Recipes", options);
  ASSERT_TRUE(session.ok());
  auto result = session->Execute(kExample1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.strategy, engine::Strategy::kDirect);
}

TEST(EngineTest, EveryPlannableStrategyReturnsAValidPackage) {
  // Execute maps each plan onto one core evaluator call. Force every
  // strategy the planner can return and validate the package it answers.
  EngineOptions options;
  options.planner.direct_row_threshold = 100;
  auto session = Engine::Open(MakeRecipes(290), "Recipes", options);
  ASSERT_TRUE(session.ok()) << session.status();
  for (engine::Strategy strategy :
       {engine::Strategy::kDirect, engine::Strategy::kSketchRefine,
        engine::Strategy::kLpRounding}) {
    SCOPED_TRACE(engine::StrategyName(strategy));
    session->options().planner.force = strategy;
    auto result = session->Execute(kExample1);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->plan.strategy, strategy);
    EXPECT_EQ(result->package.TotalCount(), 3);
    ExpectFeasible(*result, kExample1);
  }

  // RATIO_OBJECTIVE answers the AVG objective the other strategies cannot.
  constexpr const char* kAvg = R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      WHERE R.gluten = 'free'
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) >= 2.0
      MINIMIZE AVG(P.saturated_fat))";
  session->options().planner.force = engine::Strategy::kRatioObjective;
  auto ratio = session->Execute(kAvg);
  ASSERT_TRUE(ratio.ok()) << ratio.status();
  EXPECT_EQ(ratio->plan.strategy, engine::Strategy::kRatioObjective);
  EXPECT_EQ(ratio->package.TotalCount(), 3);
  ExpectFeasible(*ratio, kAvg);
}

TEST(EngineTest, PartitioningIsCachedAcrossQueries) {
  EngineOptions options;
  options.planner.direct_row_threshold = 100;
  auto session = Engine::Open(MakeRecipes(290), "Recipes", options);
  ASSERT_TRUE(session.ok());

  auto first = session->Execute(kExample1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan.partitioning_reused);

  auto second = session->Execute(kExample1);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->plan.partitioning_reused);
  EXPECT_EQ(second->plan.partition_groups, first->plan.partition_groups);
}

TEST(EngineTest, RatioObjectiveRoutesToDinkelbach) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok());
  auto result = session->Execute(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) >= 2.0
      MINIMIZE AVG(P.saturated_fat))");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.strategy, engine::Strategy::kRatioObjective);
  EXPECT_EQ(result->package.TotalCount(), 3);
  // The reported objective is the achieved AVG of the answer package.
  double sum = 0;
  Table answer = result->Materialize();
  for (relation::RowId r = 0; r < answer.num_rows(); ++r) {
    sum += answer.GetDouble(r, 3);
  }
  EXPECT_NEAR(result->objective, sum / 3.0, 1e-9);
}

TEST(EngineTest, TopKEnumeratesDistinctPackages) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok());
  auto results = session->ExecuteTopK(kExample1, /*k=*/3);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_GE(results->size(), 2u);
  ASSERT_LE(results->size(), 3u);
  // Best first, and the best matches Execute's answer.
  EXPECT_NEAR((*results)[0].objective, kExample1Optimum, 1e-9);
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_GE((*results)[i].objective, (*results)[i - 1].objective);
  }
  EXPECT_EQ((*results)[0].plan.shape.topk, 3u);
}

TEST(EngineTest, MultiRelationFromMaterializesJoin) {
  Table items{Schema({{"id", DataType::kInt64},
                      {"cat_id", DataType::kInt64},
                      {"cost", DataType::kDouble}})};
  Table cats{Schema({{"cat_id", DataType::kInt64},
                     {"bonus", DataType::kDouble}})};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        items.AppendRow({Value(i), Value(i % 2), Value(1.0 + i)}).ok());
  }
  ASSERT_TRUE(cats.AppendRow({Value(0), Value(10.0)}).ok());
  ASSERT_TRUE(cats.AppendRow({Value(1), Value(20.0)}).ok());

  auto session = Engine::Open(std::move(items), "items");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->AddTable("cats", std::move(cats)).ok());
  EXPECT_EQ(session->table_names(),
            (std::vector<std::string>{"cats", "items"}));

  auto result = session->Execute(R"(
      SELECT PACKAGE(I) AS P
      FROM items I REPEAT 0, cats C
      WHERE I.cat_id = C.cat_id
      SUCH THAT COUNT(P.*) = 2
      MAXIMIZE SUM(P.bonus))");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->plan.shape.joined_from);
  EXPECT_EQ(result->package.TotalCount(), 2);
  EXPECT_NEAR(result->objective, 40.0, 1e-9);  // two bonus-20 rows

  // Re-executing the same statement reuses the materialized join (the
  // session's size-1 join cache): same table object, same answer.
  auto again = session->Execute(R"(
      SELECT PACKAGE(I) AS P
      FROM items I REPEAT 0, cats C
      WHERE I.cat_id = C.cat_id
      SUCH THAT COUNT(P.*) = 2
      MAXIMIZE SUM(P.bonus))");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->table.get(), result->table.get());
  EXPECT_NEAR(again->objective, 40.0, 1e-9);
}

TEST(EngineTest, ExplainReportsPlanWithoutSolving) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok());
  auto report = session->Explain(kExample1);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->find("strategy: DIRECT"), std::string::npos) << *report;

  EngineOptions options;
  options.planner.direct_row_threshold = 100;
  auto big = Engine::Open(MakeRecipes(290), "Recipes", options);
  ASSERT_TRUE(big.ok());
  auto big_report = big->Explain(kExample1);
  ASSERT_TRUE(big_report.ok()) << big_report.status();
  EXPECT_NE(big_report->find("strategy: SKETCHREFINE"), std::string::npos)
      << *big_report;
}

TEST(EngineTest, DumpLpWritesAModel) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok());
  std::ostringstream os;
  ASSERT_TRUE(session->DumpLp(kExample1, os).ok());
  EXPECT_FALSE(os.str().empty());
}

TEST(EngineTest, TimingsAndStatsAreFilled) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok());
  auto result = session->Execute(kExample1);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->timings.total_seconds, 0);
  EXPECT_GE(result->timings.evaluate_seconds, 0);
  EXPECT_GE(result->stats.ilp_solves, 1);
}

TEST(EngineTest, ErrorsSurfaceCleanly) {
  auto session = Engine::Open(MakeRecipes());
  ASSERT_TRUE(session.ok());

  // Parse error.
  EXPECT_EQ(session->Execute("SELECT NONSENSE").status().code(),
            StatusCode::kParseError);

  // Unknown relation in a multi-relation FROM.
  auto join = session->Execute(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R, nonexistent X REPEAT 0
      SUCH THAT COUNT(P.*) = 1)");
  EXPECT_FALSE(join.ok());

  // Infeasible query reports kInfeasible, not a crash.
  auto infeasible = session->Execute(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) <= 0.5)");
  EXPECT_TRUE(infeasible.status().IsInfeasible());

  // Duplicate table registration is rejected.
  EXPECT_FALSE(session->AddTable("R", MakeRecipes()).ok());
}

TEST(EngineTest, SingleTableSessionAnswersAnyRelationName) {
  // Registered under "R" but queried as "FROM Recipes": the single-table
  // fallback binds it anyway, so the paper's queries run as written.
  auto session = Engine::Open(MakeRecipes(), "R");
  ASSERT_TRUE(session.ok());
  auto result = session->Execute(kExample1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->objective, kExample1Optimum, 1e-9);
}

}  // namespace
}  // namespace paql
