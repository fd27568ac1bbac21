#include "ilp/cuts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "ilp/branch_and_bound.h"
#include "lp/model.h"

namespace paql::ilp {
namespace {

using lp::Model;
using lp::RowDef;

/// 0/1 knapsack: max sum v_j x_j s.t. sum w_j x_j <= cap.
Model MakeKnapsack(const std::vector<double>& w, const std::vector<double>& v,
                   double cap) {
  Model m;
  for (size_t j = 0; j < w.size(); ++j) {
    m.AddVariable(0, 1, v[j], /*is_integer=*/true);
  }
  RowDef row;
  for (size_t j = 0; j < w.size(); ++j) {
    row.vars.push_back(static_cast<int>(j));
    row.coefs.push_back(w[j]);
  }
  row.hi = cap;
  EXPECT_TRUE(m.AddRow(std::move(row)).ok());
  m.set_sense(lp::Sense::kMaximize);
  return m;
}

double RowActivity(const RowDef& row, const std::vector<double>& x) {
  double a = 0;
  for (size_t k = 0; k < row.vars.size(); ++k) {
    a += row.coefs[k] * x[row.vars[k]];
  }
  return a;
}

/// Exhaustively verify a cut admits every feasible 0/1 point of `model`.
void ExpectCutValidForAllBinaryPoints(const Model& model, const Cut& cut) {
  int n = model.num_vars();
  ASSERT_LE(n, 20) << "exhaustive check needs small n";
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) x[static_cast<size_t>(j)] = (mask >> j) & 1;
    if (!model.IsFeasible(x, 1e-9)) continue;
    double act = RowActivity(cut.row, x);
    EXPECT_LE(act, cut.row.hi + 1e-9)
        << "cut " << cut.row.name << " cuts off feasible point mask=" << mask;
    EXPECT_GE(act, cut.row.lo - 1e-9);
  }
}

TEST(CoverCutTest, ClassicFractionalKnapsackIsCut) {
  // Three equal items, capacity fits two: LP optimum is x = (1,1,.5)-ish and
  // the cover {1,2,3} gives x1+x2+x3 <= 2.
  Model m = MakeKnapsack({4, 4, 4}, {1, 1, 1}, 10);
  std::vector<double> x = {1.0, 1.0, 0.5};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  const Cut& cut = cuts[0];
  EXPECT_NEAR(cut.row.hi, 2.0, 1e-12);
  EXPECT_EQ(cut.row.vars.size(), 3u);
  EXPECT_NEAR(cut.violation, 0.5, 1e-9);
  ExpectCutValidForAllBinaryPoints(m, cut);
}

TEST(CoverCutTest, NoCutWhenPointIsInteger) {
  Model m = MakeKnapsack({4, 4, 4}, {1, 1, 1}, 10);
  std::vector<double> x = {1.0, 1.0, 0.0};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  EXPECT_TRUE(cuts.empty());
}

TEST(CoverCutTest, NoCoverWhenEverythingFits) {
  Model m = MakeKnapsack({1, 1, 1}, {1, 1, 1}, 10);
  std::vector<double> x = {0.9, 0.9, 0.9};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  EXPECT_TRUE(cuts.empty());
}

TEST(CoverCutTest, NegativeCoefficientsComplemented) {
  // -3x1 - 3x2 - 3x3 >= -7  ==  3x1 + 3x2 + 3x3 <= 7: cover of any 3.
  Model m;
  for (int j = 0; j < 3; ++j) m.AddVariable(0, 1, 1, true);
  RowDef row;
  row.vars = {0, 1, 2};
  row.coefs = {-3, -3, -3};
  row.lo = -7;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  m.set_sense(lp::Sense::kMaximize);
  std::vector<double> x = {1.0, 0.8, 0.8};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  ExpectCutValidForAllBinaryPoints(m, cuts[0]);
  // x1+x2+x3 <= 2 separates (1, .8, .8).
  EXPECT_GT(cuts[0].violation, 0.5);
}

TEST(CoverCutTest, NonBinaryVariablesShiftCapacity) {
  // y in [1,2] integer uses at least 5 of the capacity; the binary part
  // has effective capacity 10 - 5 = 5, so {x1,x2} (4+4 > 5) is a cover.
  Model m;
  int x1 = m.AddVariable(0, 1, 1, true);
  int x2 = m.AddVariable(0, 1, 1, true);
  int y = m.AddVariable(1, 2, 1, true);
  RowDef row;
  row.vars = {x1, x2, y};
  row.coefs = {4, 4, 5};
  row.hi = 10;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  m.set_sense(lp::Sense::kMaximize);
  std::vector<double> frac = {0.9, 0.7, 1.0};
  auto cuts = SeparateCoverCuts(m, frac, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  EXPECT_NEAR(cuts[0].row.hi, 1.0, 1e-12);  // x1 + x2 <= 1
  // Validity against all integer points including y.
  for (int b1 = 0; b1 <= 1; ++b1) {
    for (int b2 = 0; b2 <= 1; ++b2) {
      for (int yv = 1; yv <= 2; ++yv) {
        std::vector<double> pt = {double(b1), double(b2), double(yv)};
        if (!m.IsFeasible(pt, 1e-9)) continue;
        EXPECT_LE(RowActivity(cuts[0].row, pt), cuts[0].row.hi + 1e-9);
      }
    }
  }
}

TEST(CoverCutTest, ExtendedCoverLiftsHeavyOutsiders) {
  // Items 8,5,5 with capacity 9: cover {5,5} -> x2+x3 <= 1; item 1 (weight
  // 8 >= 5) lifts in: x1+x2+x3 <= 1.
  Model m = MakeKnapsack({8, 5, 5}, {1, 1, 1}, 9);
  std::vector<double> x = {0.1, 0.95, 0.95};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  const Cut& cut = cuts[0];
  EXPECT_EQ(cut.row.vars.size(), 3u);
  EXPECT_NEAR(cut.row.hi, 1.0, 1e-12);
  ExpectCutValidForAllBinaryPoints(m, cut);
}

TEST(CgCutTest, OddCountBoundRoundsDown) {
  // x1 + x2 + x3 <= 3 with x binary has no slack, but over a row
  // 2x1 + 2x2 + 2x3 <= 5 the 1/2-CG round gives x1+x2+x3 <= 2.
  Model m = MakeKnapsack({2, 2, 2}, {1, 1, 1}, 5);
  std::vector<double> x = {0.9, 0.9, 0.7};
  auto cuts = SeparateCgCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  EXPECT_NEAR(cuts[0].row.hi, 2.0, 1e-12);
  ExpectCutValidForAllBinaryPoints(m, cuts[0]);
}

TEST(CgCutTest, SkipsFractionalCoefficients) {
  Model m = MakeKnapsack({2.5, 2, 2}, {1, 1, 1}, 5);
  std::vector<double> x = {0.9, 0.9, 0.7};
  auto cuts = SeparateCgCuts(m, x, CutOptions{});
  EXPECT_TRUE(cuts.empty());
}

TEST(CgCutTest, SkipsContinuousVariables) {
  Model m;
  m.AddVariable(0, 1, 1, /*is_integer=*/false);
  m.AddVariable(0, 1, 1, true);
  RowDef row;
  row.vars = {0, 1};
  row.coefs = {2, 2};
  row.hi = 3;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  std::vector<double> x = {0.9, 0.9};
  EXPECT_TRUE(SeparateCgCuts(m, x, CutOptions{}).empty());
}

TEST(SeparateCutsTest, DeduplicatesAndCaps) {
  Model m = MakeKnapsack({4, 4, 4}, {1, 1, 1}, 10);
  std::vector<double> x = {1.0, 1.0, 0.5};
  CutOptions options;
  options.max_cuts_per_round = 1;
  auto cuts = SeparateCuts(m, x, options);
  EXPECT_EQ(cuts.size(), 1u);
}

TEST(SeparateCutsTest, FamilySwitchesRespected) {
  Model m = MakeKnapsack({2, 2, 2}, {1, 1, 1}, 5);
  std::vector<double> x = {1.0, 1.0, 0.5};
  CutOptions no_cover;
  no_cover.cover_cuts = false;
  for (const Cut& c : SeparateCuts(m, x, no_cover)) {
    EXPECT_EQ(c.row.name.substr(0, 2), "cg");
  }
  CutOptions no_cg;
  no_cg.cg_cuts = false;
  for (const Cut& c : SeparateCuts(m, x, no_cg)) {
    EXPECT_EQ(c.row.name.substr(0, 5), "cover");
  }
}

TEST(SeparateCutsTest, MergesReorderedTermsKeepsDifferentCoefsAndBounds) {
  // CG rounds of four rows over the same three binaries, at x = 0.9:
  //   2x0 + 2x1 + 2x2 <= 5  ->  x0 + x1 + x2 <= 2
  //   2x2 + 2x1 + 2x0 <= 5  ->  the same cut, terms in another order
  //   2x0 + 2x1 + 2x2 <= 3  ->  x0 + x1 + x2 <= 1   (bound differs)
  //   4x0 + 2x1 + 2x2 <= 5  ->  2x0 + x1 + x2 <= 2  (coefficient differs)
  Model m;
  for (int j = 0; j < 3; ++j) m.AddVariable(0, 1, 1, true);
  auto add_row = [&](std::vector<int> vars, std::vector<double> coefs,
                     double hi) {
    RowDef row;
    row.vars = std::move(vars);
    row.coefs = std::move(coefs);
    row.hi = hi;
    ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  };
  add_row({0, 1, 2}, {2, 2, 2}, 5);
  add_row({2, 1, 0}, {2, 2, 2}, 5);
  add_row({0, 1, 2}, {2, 2, 2}, 3);
  add_row({0, 1, 2}, {4, 2, 2}, 5);
  std::vector<double> x = {0.9, 0.9, 0.9};
  CutOptions cg_only;
  cg_only.cover_cuts = false;
  auto separated = SeparateCgCuts(m, x, cg_only);
  ASSERT_EQ(separated.size(), 4u);
  ASSERT_NE(separated[0].row.vars, separated[1].row.vars);

  auto cuts = SeparateCuts(m, x, cg_only);
  ASSERT_EQ(cuts.size(), 3u);
  std::vector<std::pair<double, double>> hi_and_x0_coef;
  for (const Cut& cut : cuts) {
    auto at = std::find(cut.row.vars.begin(), cut.row.vars.end(), 0);
    ASSERT_NE(at, cut.row.vars.end());
    hi_and_x0_coef.emplace_back(cut.row.hi,
                                cut.row.coefs[at - cut.row.vars.begin()]);
  }
  std::sort(hi_and_x0_coef.begin(), hi_and_x0_coef.end());
  EXPECT_EQ(hi_and_x0_coef,
            (std::vector<std::pair<double, double>>{{1, 1}, {2, 1}, {2, 2}}));
}

TEST(SeparateCutsTest, MergesCoverCutsWhoseLiftedTermsComeInAnotherOrder) {
  // Cover {x0, x1, x2} (5+5+5 > 10) lifts x3 and x4 (weights 6, 7 >= 5).
  // The lifted terms follow each row's item order, so the two rows give
  // the same cut with its terms in different orders.
  Model m;
  for (int j = 0; j < 5; ++j) m.AddVariable(0, 1, 1, true);
  RowDef forward;
  forward.vars = {0, 1, 2, 3, 4};
  forward.coefs = {5, 5, 5, 6, 7};
  forward.hi = 10;
  RowDef backward;
  backward.vars = {4, 3, 2, 1, 0};
  backward.coefs = {7, 6, 5, 5, 5};
  backward.hi = 10;
  ASSERT_TRUE(m.AddRow(std::move(forward)).ok());
  ASSERT_TRUE(m.AddRow(std::move(backward)).ok());
  std::vector<double> x = {0.9, 0.9, 0.9, 0.0, 0.0};
  CutOptions cover_only;
  cover_only.cg_cuts = false;
  auto separated = SeparateCoverCuts(m, x, cover_only);
  ASSERT_EQ(separated.size(), 2u);
  EXPECT_EQ(separated[0].row.vars.size(), 5u);
  ASSERT_NE(separated[0].row.vars, separated[1].row.vars);
  auto cuts = SeparateCuts(m, x, cover_only);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_NEAR(cuts[0].row.hi, 2.0, 1e-12);
}

/// True when `members` (indices into w) is a minimal cover of capacity
/// `cap`: over capacity, and back within it without any one member.
bool IsMinimalCover(const std::vector<double>& w,
                    const std::vector<int>& members, double cap) {
  double total = 0;
  for (int j : members) total += w[static_cast<size_t>(j)];
  if (total <= cap) return false;
  for (int j : members) {
    if (total - w[static_cast<size_t>(j)] > cap) return false;
  }
  return true;
}

class CoverMinimalityTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoverMinimalityTest, EveryCoverCutComesFromAMinimalCover) {
  // A cover cut over a plain knapsack row reads sum_{C u E} x_j <= |C| - 1:
  // C is a cover, E the lifted items, each at least as heavy as every
  // member of C. Search every subset of the cut's support for such a C
  // that is minimal. Every weight fits the capacity on its own, so every
  // cover of two or more items can be minimal.
  Rng rng(GetParam() * 977 + 3);
  int n = 6 + static_cast<int>(rng.UniformInt(0, 10));  // <= 16 items
  std::vector<double> w(static_cast<size_t>(n)), v(static_cast<size_t>(n));
  double total = 0, heaviest = 0;
  for (int j = 0; j < n; ++j) {
    w[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 15.0));
    v[static_cast<size_t>(j)] = 1;
    total += w[static_cast<size_t>(j)];
    heaviest = std::max(heaviest, w[static_cast<size_t>(j)]);
  }
  double cap = std::max(heaviest, std::floor(total * rng.Uniform(0.2, 0.6)));
  Model m = MakeKnapsack(w, v, cap);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> x(static_cast<size_t>(n));
    for (auto& xi : x) {
      xi = rng.Uniform(0.0, 1.0) < 0.3 ? 1.0 : rng.Uniform(0.0, 1.0);
    }
    for (const Cut& cut : SeparateCoverCuts(m, x, CutOptions{})) {
      ExpectCutValidForAllBinaryPoints(m, cut);
      const std::vector<int>& support = cut.row.vars;
      for (double c : cut.row.coefs) ASSERT_EQ(c, 1.0);
      const size_t cover_size = static_cast<size_t>(cut.row.hi) + 1;
      ASSERT_LE(cover_size, support.size());
      bool found = false;
      for (uint32_t mask = 0; mask < (1u << support.size()) && !found;
           ++mask) {
        if (static_cast<size_t>(std::popcount(mask)) != cover_size) continue;
        std::vector<int> members;
        double max_member = 0;
        for (size_t k = 0; k < support.size(); ++k) {
          if ((mask >> k) & 1) {
            members.push_back(support[k]);
            max_member =
                std::max(max_member, w[static_cast<size_t>(support[k])]);
          }
        }
        if (!IsMinimalCover(w, members, cap)) continue;
        bool lifted_heavy = true;
        for (size_t k = 0; k < support.size(); ++k) {
          if (!((mask >> k) & 1)) {
            lifted_heavy = lifted_heavy &&
                           w[static_cast<size_t>(support[k])] >=
                               max_member - 1e-12;
          }
        }
        found = lifted_heavy;
      }
      EXPECT_TRUE(found) << "cut " << cut.row.name << " with "
                         << support.size() << " terms <= " << cut.row.hi
                         << " has no minimal cover behind it (seed "
                         << GetParam() << ", trial " << trial << ")";
    }
  }
}

TEST_P(CoverMinimalityTest, SeparationIsDeterministic) {
  Rng rng(GetParam() * 31 + 7);
  int n = 40 + static_cast<int>(rng.UniformInt(0, 40));
  Model m;
  m.set_sense(lp::Sense::kMaximize);
  for (int j = 0; j < n; ++j) m.AddVariable(0, 1, 1, true);
  for (int r = 0; r < 4; ++r) {
    RowDef row;
    double total = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.5) continue;
      row.vars.push_back(j);
      // Few distinct weights and fractions: plenty of ties to break.
      double a = std::floor(rng.Uniform(1.0, 4.0));
      row.coefs.push_back(rng.Uniform(0.0, 1.0) < 0.3 ? -a : a);
      total += a;
    }
    row.lo = r % 2 == 0 ? -lp::kInf : std::floor(total * 0.1);
    row.hi = std::floor(total * 0.3);
    ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  }
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& xi : x) xi = std::floor(rng.Uniform(0.0, 5.0)) / 4.0;
  auto first = SeparateCuts(m, x, CutOptions{});
  auto second = SeparateCuts(m, x, CutOptions{});
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].row.vars, second[i].row.vars);
    EXPECT_EQ(first[i].row.coefs, second[i].row.coefs);
    EXPECT_EQ(first[i].row.lo, second[i].row.lo);
    EXPECT_EQ(first[i].row.hi, second[i].row.hi);
    EXPECT_EQ(first[i].row.name, second[i].row.name);
    EXPECT_EQ(first[i].violation, second[i].violation);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverMinimalityTest, ::testing::Range(1u, 25u));

TEST(CoverCutScaleTest, CountFormOf200kItemsSeparatesWellUnderASecond) {
  // COUNT(P.*) = 10 over 200k binaries: unit weights on both sides. The
  // >= side complements every item into one cover of n - 9 members, so
  // per-member work that grows with the cover is quadratic here.
  constexpr int kItems = 200000;
  Model m;
  RowDef row;
  for (int j = 0; j < kItems; ++j) {
    m.AddVariable(0, 1, 1, true);
    row.vars.push_back(j);
    row.coefs.push_back(1.0);
  }
  row.lo = row.hi = 10;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  Rng rng(5);
  std::vector<double> x(static_cast<size_t>(kItems));
  for (auto& xi : x) xi = rng.Uniform(0.0, 2.0 * 10 / kItems);
  Stopwatch watch;
  auto cuts = SeparateCuts(m, x, CutOptions{});
  double seconds = watch.ElapsedSeconds();
  // About 0.15 s optimized; unoptimized and sanitizer builds get more room.
  // A quadratic pass takes over 6 s optimized.
#ifdef NDEBUG
  EXPECT_LT(seconds, 1.0);
#else
  EXPECT_LT(seconds, 5.0);
#endif
  for (const Cut& cut : cuts) EXPECT_GT(cut.violation, 0);
}

// --- Property: cuts never change the ILP optimum. ---

class CutSeedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CutSeedTest, CutsPreserveKnapsackOptimum) {
  Rng rng(GetParam());
  int n = 10 + static_cast<int>(rng.UniformInt(0, 6));
  std::vector<double> w(static_cast<size_t>(n)), v(static_cast<size_t>(n));
  double total = 0;
  for (int j = 0; j < n; ++j) {
    w[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 20.0));
    v[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 30.0));
    total += w[static_cast<size_t>(j)];
  }
  double cap = std::floor(total * rng.Uniform(0.3, 0.7));
  Model m = MakeKnapsack(w, v, cap);

  BranchAndBoundOptions with, without;
  with.cuts.enable = true;
  without.cuts.enable = false;
  auto a = SolveIlp(m, SolverLimits{}, with);
  auto b = SolveIlp(m, SolverLimits{}, without);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  EXPECT_TRUE(m.IsFeasible(a->x, 1e-6));
}

TEST_P(CutSeedTest, SeparatedCutsAreValidEverywhere) {
  Rng rng(GetParam() * 131);
  int n = 8 + static_cast<int>(rng.UniformInt(0, 5));
  std::vector<double> w(static_cast<size_t>(n)), v(static_cast<size_t>(n));
  double total = 0;
  for (int j = 0; j < n; ++j) {
    w[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 15.0));
    v[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 9.0));
    total += w[static_cast<size_t>(j)];
  }
  Model m = MakeKnapsack(w, v, std::floor(total * 0.5));
  // Separate at a random fractional point; every returned cut must admit
  // every feasible integer point.
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& xi : x) xi = rng.Uniform(0.0, 1.0);
  for (const Cut& cut : SeparateCuts(m, x, CutOptions{})) {
    ExpectCutValidForAllBinaryPoints(m, cut);
  }
}

TEST_P(CutSeedTest, CutsPreserveGeneralIntegerOptimum) {
  // REPEAT K queries give general-integer variables: cover cuts must skip
  // them (complementing is only valid for binaries) but CG cuts apply, and
  // the optimum must be unchanged either way.
  Rng rng(GetParam() * 7 + 11);
  Model m;
  m.set_sense(lp::Sense::kMaximize);
  int n = 6 + static_cast<int>(rng.UniformInt(0, 4));
  RowDef cap;
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0, 3, std::floor(rng.Uniform(1.0, 12.0)), true);
    cap.vars.push_back(j);
    cap.coefs.push_back(std::floor(rng.Uniform(1.0, 7.0)));
  }
  cap.hi = std::floor(rng.Uniform(10.0, 25.0));
  ASSERT_TRUE(m.AddRow(std::move(cap)).ok());

  BranchAndBoundOptions with, without;
  with.cuts.enable = true;
  without.cuts.enable = false;
  auto a = SolveIlp(m, SolverLimits{}, with);
  auto b = SolveIlp(m, SolverLimits{}, without);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  EXPECT_TRUE(m.IsFeasible(a->x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutSeedTest, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace paql::ilp
