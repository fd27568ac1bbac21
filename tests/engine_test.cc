// End-to-end tests for the paql::Engine facade: one declarative PaQL
// statement in, the system — not the caller — picks the strategy.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <regex>

#include "common/str_util.h"
#include "core/package.h"
#include "paql/parser.h"
#include "relation/block_store.h"

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
       {engine::Strategy::kDirect, engine::Strategy::kSketchRefine}) {
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

// A partitioning built for the statement reports what the build cost next
// to "built": its wall time and the blocks it decoded. Over a block store,
// each of the two numeric columns (one block each) is decoded once. A
// partitioning served from the registry says "cached" instead.
TEST(EngineTest, ExplainReportsPartitionBuildCost) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "paql_engine_recipes.pqb")
          .string();
  ASSERT_TRUE(relation::WriteBlockStore(MakeRecipes(290), path).ok());
  EngineOptions options;
  options.planner.direct_row_threshold = 100;
  auto session = Engine::OpenDisk(path, options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Explain(kExample1);
  ASSERT_TRUE(report.ok()) << report.status();
  std::smatch built;
  ASSERT_TRUE(std::regex_search(
      *report, built,
      std::regex(R"(\(built in ([0-9.e+-]+) ms, ([0-9]+) block reads\))")))
      << *report;
  EXPECT_GT(std::stod(built[1]), 0.0);
  EXPECT_EQ(built[2], "2") << *report;
  // Both numeric columns are partitioning attributes, filled by the build.
  EXPECT_NE(report->find("representatives: 2 of 2 columns\n"),
            std::string::npos)
      << *report;
  auto again = session->Explain(kExample1);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_NE(again->find("(cached)"), std::string::npos) << *again;

  // Partitioned on saturated_fat alone, the build reads one block and
  // leaves kcal unfilled; the first run fills it (one block read) and a
  // second finds it filled.
  EngineOptions one_attribute = options;
  one_attribute.planner.partition_attributes = {"saturated_fat"};
  auto lazy = Engine::OpenDisk(path, one_attribute);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  auto planned = lazy->Explain(kExample1);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_NE(planned->find("1 block reads)\nrepresentatives: 1 of 2 columns\n"),
            std::string::npos)
      << *planned;
  auto first = lazy->Execute(kExample1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_NEAR(first->objective, kExample1Optimum, 1e-9);
  EXPECT_NE(first->plan.Explain().find(
                "representatives: 2 of 2 columns (1 filled on demand, 1 "
                "block reads)\n"),
            std::string::npos)
      << first->plan.Explain();
  auto second = lazy->Execute(kExample1);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(second->plan.Explain().find("representatives: 2 of 2 columns\n"),
            std::string::npos)
      << second->plan.Explain();
  std::remove(path.c_str());

  // An in-memory table decodes nothing.
  auto in_memory = Engine::Open(MakeRecipes(290), "Recipes", options);
  ASSERT_TRUE(in_memory.ok());
  auto executed = in_memory->Execute(kExample1);
  ASSERT_TRUE(executed.ok()) << executed.status();
  EXPECT_NE(executed->plan.Explain().find(" ms, 0 block reads)"),
            std::string::npos)
      << executed->plan.Explain();
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

TEST(EngineTest, RootCutStatsReachExplain) {
  // Two of five items under a budget: the root LP is fractional and the
  // budget row yields cover cuts.
  Table items{Schema({{"a", DataType::kDouble}, {"b", DataType::kDouble}})};
  for (auto [a, b] : {std::pair{1.0, 2.0}, {2.0, 3.0}, {3.0, 1.0},
                      {4.0, 5.0}, {2.0, 2.0}}) {
    ASSERT_TRUE(items.AppendRow({Value(a), Value(b)}).ok());
  }
  constexpr const char* kQuery =
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 2 AND SUM(P.b) <= 5 MAXIMIZE SUM(P.a)";
  auto session = Engine::Open(std::move(items), "Items");
  ASSERT_TRUE(session.ok()) << session.status();
  auto planned = session->Explain(kQuery);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(planned->find("root cuts:"), std::string::npos) << *planned;

  for (int run = 0; run < 2; ++run) {  // the second run hits the cache
    auto result = session->Execute(kQuery);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_NEAR(result->objective, 5.0, 1e-9);
    const core::EvalStats& stats = result->stats;
    EXPECT_GT(stats.cuts_added, 0);
    EXPECT_GT(stats.cut_rounds, 0);
    EXPECT_GT(stats.cut_seconds, 0);
    EXPECT_LE(stats.cut_seconds, stats.solve_seconds);
    std::string report = result->plan.Explain();
    EXPECT_NE(report.find(StrCat("root cuts: ", stats.cuts_added,
                                 " added in ", stats.cut_rounds, " rounds")),
              std::string::npos)
        << report;
  }
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
