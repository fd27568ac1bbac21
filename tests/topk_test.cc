// Tests for top-k package enumeration (core/topk.h).
#include "core/topk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/direct.h"
#include "paql/parser.h"

namespace paql::core {
namespace {

using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::Value;

lang::PackageQuery Parse(const std::string& text) {
  auto q = lang::ParsePackageQuery(text);
  PAQL_CHECK_MSG(q.ok(), q.status().ToString());
  return std::move(*q);
}

translate::CompiledQuery Compile(const Table& t, const std::string& text) {
  auto cq = translate::CompiledQuery::Compile(Parse(text), t.schema());
  PAQL_CHECK_MSG(cq.ok(), cq.status().ToString());
  return std::move(*cq);
}

Table GainTable(int n, uint64_t seed) {
  Table t{Schema({{"cost", DataType::kDouble}, {"gain", DataType::kDouble}})};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    PAQL_CHECK(
        t.AppendRow({Value(rng.Uniform(1, 5)), Value(rng.Uniform(1, 10))})
            .ok());
  }
  return t;
}

std::set<RowId> SupportOf(const Package& p) {
  return {p.rows.begin(), p.rows.end()};
}

const char* kPickTwo =
    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
    "SUCH THAT COUNT(P.*) = 2 "
    "MAXIMIZE SUM(P.gain)";

TEST(TopKTest, ReturnsDistinctPackagesBestFirst) {
  Table t = GainTable(12, 1);
  auto cq = Compile(t, kPickTwo);
  TopKOptions opts;
  opts.k = 5;
  auto results = EnumerateTopPackages(t, cq, opts);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 5u);
  std::set<std::set<RowId>> supports;
  for (size_t i = 0; i < results->size(); ++i) {
    const EvalResult& r = (*results)[i];
    EXPECT_TRUE(ValidatePackage(cq, t, r.package).ok());
    supports.insert(SupportOf(r.package));
    if (i > 0) {
      EXPECT_LE(r.objective, (*results)[i - 1].objective + 1e-9)
          << "objectives must be non-increasing";
    }
  }
  EXPECT_EQ(supports.size(), 5u) << "packages must be pairwise distinct";
}

TEST(TopKTest, FirstPackageMatchesDirect) {
  Table t = GainTable(20, 2);
  auto cq = Compile(t, kPickTwo);
  auto results = EnumerateTopPackages(t, cq);
  ASSERT_TRUE(results.ok());
  DirectEvaluator direct(t);
  auto exact = direct.Evaluate(cq);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(results->front().objective, exact->objective, 1e-9);
}

TEST(TopKTest, ExactEnumerationOfTinySpace) {
  // 3 tuples, packages of size 2: exactly C(3,2) = 3 packages exist.
  Table t{Schema({{"gain", DataType::kDouble}})};
  for (double g : {1.0, 2.0, 3.0}) {
    PAQL_CHECK(t.AppendRow({Value(g)}).ok());
  }
  auto cq = Compile(t,
                    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                    "SUCH THAT COUNT(P.*) = 2 "
                    "MAXIMIZE SUM(P.gain)");
  TopKOptions opts;
  opts.k = 10;  // ask for more than exist
  auto results = EnumerateTopPackages(t, cq, opts);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_DOUBLE_EQ((*results)[0].objective, 5.0);  // {2, 3}
  EXPECT_DOUBLE_EQ((*results)[1].objective, 4.0);  // {1, 3}
  EXPECT_DOUBLE_EQ((*results)[2].objective, 3.0);  // {1, 2}
}

TEST(TopKTest, MinDifferenceForcesDiversity) {
  Table t = GainTable(14, 3);
  auto cq = Compile(t,
                    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                    "SUCH THAT COUNT(P.*) = 4 "
                    "MAXIMIZE SUM(P.gain)");
  TopKOptions opts;
  opts.k = 3;
  opts.min_difference = 4;  // at least 4 tuple swaps between any two
  auto results = EnumerateTopPackages(t, cq, opts);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_GE(results->size(), 2u);
  for (size_t i = 0; i < results->size(); ++i) {
    for (size_t j = i + 1; j < results->size(); ++j) {
      std::set<RowId> a = SupportOf((*results)[i].package);
      std::set<RowId> b = SupportOf((*results)[j].package);
      std::vector<RowId> sym;
      std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                    std::back_inserter(sym));
      EXPECT_GE(static_cast<int64_t>(sym.size()), opts.min_difference);
    }
  }
}

TEST(TopKTest, RejectsRepetitionQueries) {
  Table t = GainTable(5, 4);
  auto cq = Compile(t,
                    "SELECT PACKAGE(R) AS P FROM R REPEAT 2 "
                    "SUCH THAT COUNT(P.*) = 2 "
                    "MAXIMIZE SUM(P.gain)");
  auto results = EnumerateTopPackages(t, cq);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kUnsupported);
}

TEST(TopKTest, RejectsObjectivelessQueries) {
  Table t = GainTable(5, 5);
  auto cq = Compile(t,
                    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                    "SUCH THAT COUNT(P.*) = 2");
  auto results = EnumerateTopPackages(t, cq);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kUnsupported);
}

TEST(TopKTest, InfeasibleQueryReportsInfeasible) {
  Table t = GainTable(3, 6);
  auto cq = Compile(t,
                    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                    "SUCH THAT COUNT(P.*) = 10 "
                    "MAXIMIZE SUM(P.gain)");
  auto results = EnumerateTopPackages(t, cq);
  ASSERT_FALSE(results.ok());
  EXPECT_TRUE(results.status().IsInfeasible());
}

TEST(TopKTest, ValidatesOptions) {
  Table t = GainTable(5, 7);
  auto cq = Compile(t, kPickTwo);
  TopKOptions opts;
  opts.k = 0;
  EXPECT_FALSE(EnumerateTopPackages(t, cq, opts).ok());
  opts.k = 2;
  opts.min_difference = 0;
  EXPECT_FALSE(EnumerateTopPackages(t, cq, opts).ok());
}

// Property: across seeds, the enumeration is sound (feasible, distinct,
// ordered) and complete for its prefix (the i-th package is the optimum
// among packages excluded-distinct from the first i-1).
class TopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKPropertyTest, SoundAndOrdered) {
  Table t = GainTable(10, GetParam());
  auto cq = Compile(t, kPickTwo);
  TopKOptions opts;
  opts.k = 4;
  auto results = EnumerateTopPackages(t, cq, opts);
  ASSERT_TRUE(results.ok()) << results.status();
  std::set<std::set<RowId>> seen;
  double prev = std::numeric_limits<double>::infinity();
  for (const EvalResult& r : *results) {
    EXPECT_TRUE(ValidatePackage(cq, t, r.package).ok());
    EXPECT_LE(r.objective, prev + 1e-9);
    prev = r.objective;
    EXPECT_TRUE(seen.insert(SupportOf(r.package)).second);
  }
}

TEST(TopKTest, TimeLimitBoundsTheWholeEnumeration) {
  // Twenty rounds over 300 items under a knapsack row: each round's solve
  // is a small share of the run.
  Table t{Schema({{"w", DataType::kDouble}, {"gain", DataType::kDouble}})};
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double w = std::floor(rng.Uniform(1, 100));
    const double gain =
        std::floor(w * rng.Uniform(0.5, 1.5) + rng.Uniform(0, 20));
    ASSERT_TRUE(t.AppendRow({Value(w), Value(gain)}).ok());
  }
  auto cq = Compile(t,
                    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                    "SUCH THAT COUNT(P.*) = 25 AND SUM(P.w) <= 150 "
                    "MAXIMIZE SUM(P.gain)");
  TopKOptions opts;
  opts.k = 20;
  opts.threads = 1;
  Stopwatch unlimited_watch;
  auto full = EnumerateTopPackages(t, cq, opts);
  const double unlimited_s = unlimited_watch.ElapsedSeconds();
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->size(), 20u);

  // A quarter of the run is longer than any one round, so a limit applied
  // to each solve separately would let the enumeration run about four
  // limits long. The limit covers all rounds: it must stop soon after one
  // limit (or finish, if this run is faster).
  opts.limits.time_limit_s = unlimited_s / 4;
  Stopwatch limited_watch;
  auto limited = EnumerateTopPackages(t, cq, opts);
  const double limited_s = limited_watch.ElapsedSeconds();
  if (!limited.ok()) {
    EXPECT_TRUE(limited.status().IsResourceExhausted()) << limited.status();
  }
  EXPECT_LE(limited_s, 2 * opts.limits.time_limit_s)
      << "unlimited run " << unlimited_s << " s";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKPropertyTest,
                         ::testing::Range<uint64_t>(20, 35));

}  // namespace
}  // namespace paql::core
