#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/stopwatch.h"
#include "lp/model.h"
#include "lp/presolve.h"
#include "lp/simplex.h"
#include "lp/sparse_matrix.h"

namespace paql::lp {
namespace {

LpResult Solve(const Model& model) {
  SimplexSolver solver(model);
  return solver.Solve(Deadline(10.0));
}

TEST(ModelTest, BuildAndValidate) {
  Model m;
  int x = m.AddVariable(0, 10, 1.0, false);
  int y = m.AddVariable(0, kInf, 2.0, true);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 1);
  EXPECT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, 0, 5, "r"}).ok());
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_EQ(m.num_integer_vars(), 1);
  EXPECT_FALSE(m.AddRow({{7}, {1.0}, 0, 1, "bad var"}).ok());
  EXPECT_FALSE(m.AddRow({{x}, {1.0, 2.0}, 0, 1, "bad arity"}).ok());
  EXPECT_FALSE(m.AddRow({{x}, {1.0}, 3, 1, "crossed"}).ok());
}

TEST(ModelTest, FeasibilityCheck) {
  Model m;
  int x = m.AddVariable(0, 4, 1.0, true);
  ASSERT_TRUE(m.AddRow({{x}, {2.0}, 2, 6, ""}).ok());
  EXPECT_TRUE(m.IsFeasible({2.0}));
  EXPECT_FALSE(m.IsFeasible({0.0}));   // row violated
  EXPECT_FALSE(m.IsFeasible({5.0}));   // bound violated
  EXPECT_FALSE(m.IsFeasible({1.5}));   // not integral
  EXPECT_FALSE(m.IsFeasible({1.0, 2.0}));  // wrong arity
}

TEST(ModelTest, ObjectiveValue) {
  Model m;
  m.AddVariable(0, 1, 3.0, false);
  m.AddVariable(0, 1, -1.0, false);
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({2.0, 4.0}), 2.0);
}

TEST(SimplexTest, SingleVariableMax) {
  Model m;
  m.set_sense(Sense::kMaximize);
  int x = m.AddVariable(0, 7, 3.0, false);
  ASSERT_TRUE(m.AddRow({{x}, {1.0}, -kInf, 5, ""}).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 15.0, 1e-9);
  EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(SimplexTest, ClassicTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (x,y >= 0).
  // Optimum: x=2, y=6, obj=36 (textbook Wyndor Glass problem).
  Model m;
  m.set_sense(Sense::kMaximize);
  int x = m.AddVariable(0, kInf, 3.0, false);
  int y = m.AddVariable(0, kInf, 5.0, false);
  ASSERT_TRUE(m.AddRow({{x}, {1.0}, -kInf, 4, ""}).ok());
  ASSERT_TRUE(m.AddRow({{y}, {2.0}, -kInf, 12, ""}).ok());
  ASSERT_TRUE(m.AddRow({{x, y}, {3.0, 2.0}, -kInf, 18, ""}).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 6.0, 1e-7);
}

TEST(SimplexTest, EqualityRowNeedsPhase1) {
  // min x + y s.t. x + y = 10, x <= 4  => x=4, y=6 is NOT optimal;
  // optimum is any point with x+y=10; objective 10 everywhere on the row.
  Model m;
  int x = m.AddVariable(0, 4, 1.0, false);
  int y = m.AddVariable(0, kInf, 1.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, 10, 10, "eq"}).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-7);
  EXPECT_NEAR(r.x[0] + r.x[1], 10.0, 1e-7);
}

TEST(SimplexTest, RangeRow) {
  // min x s.t. 2 <= x + y <= 4, y <= 1  =>  x >= 1 (y at 1), obj = 1.
  Model m;
  int x = m.AddVariable(0, kInf, 1.0, false);
  int y = m.AddVariable(0, 1, 0.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, 2, 4, "range"}).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

TEST(SimplexTest, InfeasibleDetected) {
  Model m;
  int x = m.AddVariable(0, 1, 1.0, false);
  ASSERT_TRUE(m.AddRow({{x}, {1.0}, 5, 9, ""}).ok());
  LpResult r = Solve(m);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, ConflictingRowsInfeasible) {
  Model m;
  int x = m.AddVariable(0, kInf, 0.0, false);
  int y = m.AddVariable(0, kInf, 0.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, -kInf, 1, ""}).ok());
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, 3, kInf, ""}).ok());
  EXPECT_EQ(Solve(m).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Model m;
  m.set_sense(Sense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0, false);
  int y = m.AddVariable(0, kInf, 0.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, -1.0}, -kInf, 1, ""}).ok());
  EXPECT_EQ(Solve(m).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, NoRowsJustBounds) {
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(1, 3, 2.0, false);
  m.AddVariable(-2, 5, -1.0, false);
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2 * 3 + (-1) * (-2), 1e-9);
}

TEST(SimplexTest, FreeVariable) {
  // min x + 2y, y free, x >= 0, s.t. x + y = 3, y <= 10 via row.
  Model m;
  int x = m.AddVariable(0, kInf, 1.0, false);
  int y = m.AddVariable(-kInf, kInf, 2.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, 3, 3, ""}).ok());
  ASSERT_TRUE(m.AddRow({{y}, {1.0}, -5, kInf, ""}).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Pushing y down to -5 and x up to 8: obj = 8 - 10 = -2.
  EXPECT_NEAR(r.objective, -2.0, 1e-7);
  EXPECT_NEAR(r.x[1], -5.0, 1e-7);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y with x,y in [-3, -1], x + y >= -5.
  Model m;
  int x = m.AddVariable(-3, -1, 1.0, false);
  int y = m.AddVariable(-3, -1, 1.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, -5, kInf, ""}).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-7);
}

TEST(SimplexTest, ManyColumnsFewRowsKnapsackRelaxation) {
  // Fractional knapsack with known greedy solution.
  // Items: value v_j = j+1, weight w_j = 1, capacity 3.5, x_j in [0,1].
  // Optimal: take the 3 most valuable fully + half of the next.
  const int kN = 100;
  Model m;
  m.set_sense(Sense::kMaximize);
  RowDef row;
  for (int j = 0; j < kN; ++j) {
    m.AddVariable(0, 1, j + 1.0, false);
    row.vars.push_back(j);
    row.coefs.push_back(1.0);
  }
  row.lo = -kInf;
  row.hi = 3.5;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  double expect = 100 + 99 + 98 + 0.5 * 97;
  EXPECT_NEAR(r.objective, expect, 1e-6);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Many redundant constraints meeting at the same vertex.
  Model m;
  m.set_sense(Sense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0, false);
  int y = m.AddVariable(0, kInf, 1.0, false);
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(m.AddRow({{x, y}, {1.0 + k * 0.0, 1.0}, -kInf, 2, ""}).ok());
  }
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST(SimplexTest, WarmStartAfterBoundChange) {
  Model m;
  m.set_sense(Sense::kMaximize);
  int x = m.AddVariable(0, 10, 1.0, false);
  int y = m.AddVariable(0, 10, 1.0, false);
  ASSERT_TRUE(m.AddRow({{x, y}, {1.0, 1.0}, -kInf, 12, ""}).ok());
  SimplexSolver solver(m);
  LpResult r1 = solver.Solve(Deadline(10));
  ASSERT_EQ(r1.status, LpStatus::kOptimal);
  EXPECT_NEAR(r1.objective, 12.0, 1e-7);
  // Tighten x <= 3 and re-solve from the previous basis.
  solver.SetVarBounds(x, 0, 3);
  LpResult r2 = solver.Solve(Deadline(10));
  ASSERT_EQ(r2.status, LpStatus::kOptimal);
  EXPECT_NEAR(r2.objective, 3 + 9, 1e-7);
  // Fix x exactly.
  solver.SetVarBounds(x, 2, 2);
  LpResult r3 = solver.Solve(Deadline(10));
  ASSERT_EQ(r3.status, LpStatus::kOptimal);
  EXPECT_NEAR(r3.x[0], 2.0, 1e-7);
  // Restore.
  solver.ResetVarBounds();
  LpResult r4 = solver.Solve(Deadline(10));
  ASSERT_EQ(r4.status, LpStatus::kOptimal);
  EXPECT_NEAR(r4.objective, 12.0, 1e-7);
}

TEST(SimplexTest, TimeLimitReported) {
  Model m;
  int x = m.AddVariable(0, 1, 1.0, false);
  ASSERT_TRUE(m.AddRow({{x}, {1.0}, 0, 1, ""}).ok());
  SimplexSolver solver(m);
  Deadline expired(1e-12);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  LpResult r = solver.Solve(expired);
  EXPECT_EQ(r.status, LpStatus::kTimeLimit);
}

TEST(SimplexTest, ApproximateBytesScalesWithColumns) {
  Model small, big;
  for (int j = 0; j < 10; ++j) small.AddVariable(0, 1, 1, false);
  for (int j = 0; j < 1000; ++j) big.AddVariable(0, 1, 1, false);
  RowDef r1{{0}, {1.0}, 0, 1, ""}, r2{{0}, {1.0}, 0, 1, ""};
  ASSERT_TRUE(small.AddRow(r1).ok());
  ASSERT_TRUE(big.AddRow(r2).ok());
  SimplexSolver s_small(small), s_big(big);
  EXPECT_GT(s_big.ApproximateBytes(), s_small.ApproximateBytes());
}

// --- Property test: LP optimum dominates random feasible points. ---

struct RandomLpCase {
  unsigned seed;
};

class LpDominanceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LpDominanceTest, OptimumDominatesSampledFeasiblePoints) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_int_distribution<int> nvars(2, 6), nrows(1, 3);

  int n = nvars(rng), k = nrows(rng);
  Model m;
  m.set_sense(Sense::kMaximize);
  for (int j = 0; j < n; ++j) m.AddVariable(0, 2.0, coef(rng), false);
  for (int i = 0; i < k; ++i) {
    RowDef row;
    for (int j = 0; j < n; ++j) {
      row.vars.push_back(j);
      row.coefs.push_back(coef(rng));
    }
    row.lo = -kInf;
    row.hi = 2.0 + std::abs(coef(rng));  // always allows x = 0
    ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  }
  LpResult r = Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);  // x = 0 is feasible
  ASSERT_TRUE(m.IsFeasible(r.x, 1e-6));

  // Sample random points; every feasible one must not beat the optimum.
  std::uniform_real_distribution<double> point(0.0, 2.0);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = point(rng);
    if (m.IsFeasible(x, 1e-9)) {
      EXPECT_LE(m.ObjectiveValue(x), r.objective + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, LpDominanceTest,
                         ::testing::Range(1u, 26u));

// ---------------------------------------------------------------------------
// Warm starting: basis snapshot/restore and dual-simplex re-optimization
// ---------------------------------------------------------------------------

/// A small knapsack-shaped LP: maximize sum of values under a capacity row.
Model MakeKnapsackLp(int n, uint64_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(1.0, 10.0), weight(1.0, 5.0);
  Model m;
  m.set_sense(Sense::kMaximize);
  RowDef cap;
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0, 1, value(rng), false);
    cap.vars.push_back(j);
    cap.coefs.push_back(weight(rng));
  }
  cap.lo = -kInf;
  cap.hi = static_cast<double>(n);
  EXPECT_TRUE(m.AddRow(std::move(cap)).ok());
  return m;
}

TEST(SimplexWarmStartTest, DualReoptimizationAfterBoundChangeMatchesCold) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Model m = MakeKnapsackLp(30, seed);
    SimplexSolver warm(m);
    LpResult first = warm.Solve(Deadline(10.0));
    ASSERT_EQ(first.status, LpStatus::kOptimal);
    EXPECT_FALSE(first.used_dual);  // nothing to warm-start from

    // Branch-and-bound-style bound tightenings, re-optimized warm; a cold
    // solver over the same bounds is the reference.
    std::mt19937 rng(seed * 77);
    std::uniform_int_distribution<int> pick(0, m.num_vars() - 1);
    bool prev_optimal = true;
    for (int step = 0; step < 10; ++step) {
      int var = pick(rng);
      double fix = step % 2 == 0 ? 0.0 : 1.0;
      warm.SetVarBounds(var, fix, fix);
      LpResult w = warm.Solve(Deadline(10.0));

      SimplexSolver cold_solver(m);
      for (int j = 0; j < m.num_vars(); ++j) {
        cold_solver.SetVarBounds(j, warm.var_lb(j), warm.var_ub(j));
      }
      LpResult c = cold_solver.Solve(Deadline(10.0));
      ASSERT_EQ(w.status, c.status) << "seed " << seed << " step " << step;
      if (w.status == LpStatus::kOptimal) {
        EXPECT_NEAR(w.objective, c.objective,
                    1e-7 * (1.0 + std::abs(c.objective)))
            << "seed " << seed << " step " << step;
        // A bound change on an optimal basis keeps it dual feasible, so the
        // dual phase must engage. (After an infeasible step the basis may
        // legitimately fall back to the primal phases.)
        if (prev_optimal) EXPECT_TRUE(w.used_dual) << "step " << step;
      }
      prev_optimal = w.status == LpStatus::kOptimal;
    }
  }
}

TEST(SimplexWarmStartTest, SnapshotRestoreRoundTrip) {
  Model m = MakeKnapsackLp(20, 5);
  SimplexSolver solver(m);
  LpResult base = solver.Solve(Deadline(10.0));
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  Basis snapshot = solver.SnapshotBasis();
  ASSERT_TRUE(snapshot.valid);

  // Wander off: fix a few variables and re-solve.
  solver.SetVarBounds(0, 1, 1);
  solver.SetVarBounds(1, 0, 0);
  ASSERT_EQ(solver.Solve(Deadline(10.0)).status, LpStatus::kOptimal);

  // Restore bounds + basis: the original optimum comes back immediately.
  solver.ResetVarBounds();
  ASSERT_TRUE(solver.RestoreBasis(snapshot));
  LpResult again = solver.Solve(Deadline(10.0));
  ASSERT_EQ(again.status, LpStatus::kOptimal);
  EXPECT_NEAR(again.objective, base.objective, 1e-9);
  EXPECT_LE(again.iterations, base.iterations);

  // A snapshot can seed a brand-new solver over the same model.
  SimplexSolver fresh(m);
  ASSERT_TRUE(fresh.RestoreBasis(snapshot));
  LpResult seeded = fresh.Solve(Deadline(10.0));
  ASSERT_EQ(seeded.status, LpStatus::kOptimal);
  EXPECT_NEAR(seeded.objective, base.objective, 1e-9);
}

TEST(SimplexWarmStartTest, RestoreRejectsIncompatibleBasis) {
  Model small = MakeKnapsackLp(5, 1);
  Model big = MakeKnapsackLp(9, 1);
  SimplexSolver solver(small);
  ASSERT_EQ(solver.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
  Basis snapshot = solver.SnapshotBasis();

  SimplexSolver other(big);
  EXPECT_FALSE(other.RestoreBasis(snapshot));  // dimension mismatch
  Basis invalid;
  EXPECT_FALSE(other.RestoreBasis(invalid));   // never solved
  // The rejected restores must not poison the solver.
  EXPECT_EQ(other.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
}

TEST(SimplexWarmStartTest, WarmInfeasibleMatchesCold) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Model m = MakeKnapsackLp(12, seed);
    // A COUNT-style equality row makes over-tightening infeasible.
    RowDef count;
    for (int j = 0; j < m.num_vars(); ++j) {
      count.vars.push_back(j);
      count.coefs.push_back(1.0);
    }
    count.lo = count.hi = 3.0;
    ASSERT_TRUE(m.AddRow(std::move(count)).ok());

    SimplexSolver warm(m);
    ASSERT_EQ(warm.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
    // Fix too many variables to 1: COUNT = 3 becomes unsatisfiable.
    for (int j = 0; j < 5; ++j) warm.SetVarBounds(j, 1, 1);
    LpResult w = warm.Solve(Deadline(10.0));

    SimplexSolver cold(m);
    for (int j = 0; j < 5; ++j) cold.SetVarBounds(j, 1, 1);
    LpResult c = cold.Solve(Deadline(10.0));
    EXPECT_EQ(w.status, c.status) << "seed " << seed;
    EXPECT_EQ(w.status, LpStatus::kInfeasible) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Sparse-column storage (CSC) and the attached-view fast path
// ---------------------------------------------------------------------------

TEST(SparseMatrixTest, FromModelMatchesRows) {
  Model m;
  for (int j = 0; j < 5; ++j) m.AddVariable(0, 1, 1.0, false);
  ASSERT_TRUE(m.AddRow({{0, 2, 4}, {1.0, -2.0, 3.0}, 0, 5, "a"}).ok());
  ASSERT_TRUE(m.AddRow({{1, 2}, {4.0, 5.0}, -kInf, 7, "b"}).ok());
  SparseMatrix csc = SparseMatrix::FromModel(m);
  EXPECT_EQ(csc.num_rows(), 2);
  EXPECT_EQ(csc.num_cols(), 5);
  EXPECT_EQ(csc.num_nonzeros(), 5u);
  // Column 2 appears in both rows, ascending row order.
  ASSERT_EQ(csc.end(2) - csc.begin(2), 2u);
  EXPECT_EQ(csc.entry_row(csc.begin(2)), 0);
  EXPECT_DOUBLE_EQ(csc.entry_value(csc.begin(2)), -2.0);
  EXPECT_EQ(csc.entry_row(csc.begin(2) + 1), 1);
  EXPECT_DOUBLE_EQ(csc.entry_value(csc.begin(2) + 1), 5.0);
  // Column 3 is empty.
  EXPECT_EQ(csc.begin(3), csc.end(3));
  // Dots walk only nonzeros but agree with the dense product.
  double y[2] = {2.0, -1.0};
  EXPECT_DOUBLE_EQ(csc.ColumnDot(y, 2), 2.0 * -2.0 + -1.0 * 5.0);
  EXPECT_DOUBLE_EQ(csc.ColumnDot(y, 3), 0.0);
}

TEST(SparseMatrixTest, AttachedColumnsSurviveSetRowBoundsNotAddRow) {
  Model m;
  for (int j = 0; j < 3; ++j) m.AddVariable(0, 1, 1.0, false);
  ASSERT_TRUE(m.AddRow({{0, 1, 2}, {1.0, 1.0, 1.0}, 0, 2, ""}).ok());
  m.AttachColumns(SparseMatrix::FromModel(m));
  ASSERT_NE(m.attached_columns(), nullptr);
  ASSERT_TRUE(m.SetRowBounds(0, 1, 2).ok());
  EXPECT_NE(m.attached_columns(), nullptr);  // bounds live in RowDef
  ASSERT_TRUE(m.AddRow({{0}, {1.0}, 0, 1, ""}).ok());
  EXPECT_EQ(m.attached_columns(), nullptr);  // rows changed: view invalid
}

// ---------------------------------------------------------------------------
// Presolve / postsolve round trips
// ---------------------------------------------------------------------------

TEST(PresolveTest, EmptyColumnsFixAtObjectiveBestBound) {
  Model m;
  m.set_sense(Sense::kMaximize);
  int used = m.AddVariable(0, 4, 1.0, false);
  m.AddVariable(0, 3, 2.0, false);   // empty, maximize pulls to ub
  m.AddVariable(-1, 3, -2.0, false); // empty, maximize pulls to lb
  m.AddVariable(0, kInf, 0.0, false);  // empty, no pull: lands on lb
  ASSERT_TRUE(m.AddRow({{used}, {1.0}, -kInf, 2, ""}).ok());
  PresolveInfo info;
  Model reduced = PresolveModel(m, {}, &info);
  ASSERT_FALSE(info.infeasible);
  EXPECT_EQ(info.vars_fixed, 3);
  ASSERT_EQ(reduced.num_vars(), 1);
  SimplexSolver solver(reduced);
  LpResult r = solver.Solve(Deadline(10.0));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  std::vector<double> full = PostsolveSolution(info, r.x);
  ASSERT_EQ(full.size(), 4u);
  EXPECT_DOUBLE_EQ(full[0], 2.0);
  EXPECT_DOUBLE_EQ(full[1], 3.0);   // at ub
  EXPECT_DOUBLE_EQ(full[2], -1.0);  // at lb
  EXPECT_DOUBLE_EQ(full[3], 0.0);
  EXPECT_TRUE(m.IsFeasible(full));
  EXPECT_NEAR(m.ObjectiveValue(full), 2 + 6 + 2, 1e-9);
}

TEST(PresolveTest, EmptyIntegerColumnsRoundInward) {
  // An empty integer column pulled to a fractional bound must round
  // *inward* (ub = 2.5 fixes at 2, never round(2.5) = 3), and an integer
  // box containing no integer at all proves infeasibility.
  Model m;
  m.set_sense(Sense::kMaximize);
  int used = m.AddVariable(0, 1, 1.0, true);
  m.AddVariable(0, 2.5, 1.0, true);    // empty, pulled to fractional ub
  m.AddVariable(-1.5, 4, -1.0, true);  // empty, pulled to fractional lb
  ASSERT_TRUE(m.AddRow({{used}, {1.0}, -kInf, 1, ""}).ok());
  PresolveInfo info;
  Model reduced = PresolveModel(m, {}, &info);
  ASSERT_FALSE(info.infeasible);
  std::vector<double> full =
      PostsolveSolution(info, std::vector<double>(
                                  static_cast<size_t>(reduced.num_vars()), 1.0));
  EXPECT_DOUBLE_EQ(full[1], 2.0);   // floor(2.5), inside the box
  EXPECT_DOUBLE_EQ(full[2], -1.0);  // ceil(-1.5), inside the box
  EXPECT_TRUE(m.IsFeasible(full));

  Model empty_box;
  empty_box.set_sense(Sense::kMaximize);
  empty_box.AddVariable(2.2, 2.8, 1.0, true);  // no integer in [2.2, 2.8]
  PresolveInfo empty_info;
  PresolveModel(empty_box, {}, &empty_info);
  EXPECT_TRUE(empty_info.infeasible);
}

TEST(PresolveTest, ForcedRowPinsParticipants) {
  // x + y >= 4 with x,y in [0,2]: the maximum activity equals the lower
  // bound, so both variables pin at their upper bounds.
  Model m;
  m.AddVariable(0, 2, 1.0, false);
  m.AddVariable(0, 2, 1.0, false);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 4, kInf, ""}).ok());
  PresolveInfo info;
  Model reduced = PresolveModel(m, {}, &info);
  ASSERT_FALSE(info.infeasible);
  EXPECT_EQ(info.vars_fixed, 2);
  EXPECT_EQ(reduced.num_vars(), 0);
  std::vector<double> full = PostsolveSolution(info, {});
  EXPECT_DOUBLE_EQ(full[0], 2.0);
  EXPECT_DOUBLE_EQ(full[1], 2.0);
  EXPECT_TRUE(m.IsFeasible(full));
}

TEST(PresolveTest, SingletonRowTightensIntegerBounds) {
  // 2x <= 7 over integer x in [0, 10]: presolve rounds the implied bound
  // down to 3 and drops the now-redundant row.
  Model m;
  m.AddVariable(0, 10, -1.0, true);
  ASSERT_TRUE(m.AddRow({{0}, {2.0}, -kInf, 7, ""}).ok());
  PresolveInfo info;
  Model reduced = PresolveModel(m, {}, &info);
  ASSERT_FALSE(info.infeasible);
  ASSERT_EQ(reduced.num_vars(), 1);
  EXPECT_DOUBLE_EQ(reduced.ub()[0], 3.0);
  EXPECT_GT(info.bounds_tightened, 0);
  EXPECT_EQ(info.rows_dropped, 1);
  EXPECT_EQ(reduced.num_rows(), 0);
}

TEST(PresolveTest, ProvablyViolatedRowIsInfeasible) {
  Model m;
  m.AddVariable(0, 1, 1.0, false);
  m.AddVariable(0, 1, 1.0, false);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 5, kInf, ""}).ok());
  PresolveInfo info;
  PresolveModel(m, {}, &info);
  EXPECT_TRUE(info.infeasible);
}

class PresolveRoundTripTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PresolveRoundTripTest, PresolvedSolveMatchesDirectSolve) {
  // Random bounded LPs with deliberately removable structure: some columns
  // appear in no row, some rows are loose enough to be redundant, some
  // tight enough to force. The presolved solve + postsolve must agree with
  // solving the original model directly.
  std::mt19937 rng(GetParam() * 7919u + 3);
  std::uniform_int_distribution<int> nvars(3, 9), nrows(1, 4);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::bernoulli_distribution in_row(0.6), maximize(0.5);

  int n = nvars(rng), k = nrows(rng);
  Model m;
  m.set_sense(maximize(rng) ? Sense::kMaximize : Sense::kMinimize);
  for (int j = 0; j < n; ++j) m.AddVariable(0, 2.0, coef(rng), false);
  for (int i = 0; i < k; ++i) {
    RowDef row;
    for (int j = 0; j < n; ++j) {
      if (!in_row(rng)) continue;
      row.vars.push_back(j);
      row.coefs.push_back(coef(rng));
    }
    row.lo = -kInf;
    row.hi = 1.0 + std::abs(coef(rng));  // always allows x = 0
    ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  }

  SimplexSolver direct(m);
  LpResult expected = direct.Solve(Deadline(10.0));
  ASSERT_EQ(expected.status, LpStatus::kOptimal);  // x = 0 is feasible

  PresolveInfo info;
  Model reduced = PresolveModel(m, {}, &info);
  ASSERT_FALSE(info.infeasible);
  std::vector<double> full;
  if (info.identity) {
    // Nothing reducible: the caller solves the original model.
    SimplexSolver solver(m);
    LpResult r = solver.Solve(Deadline(10.0));
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    full = r.x;
  } else if (reduced.num_vars() == 0) {
    full = PostsolveSolution(info, {});
  } else {
    SimplexSolver solver(reduced);
    LpResult r = solver.Solve(Deadline(10.0));
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    full = PostsolveSolution(info, r.x);
  }
  ASSERT_EQ(static_cast<int>(full.size()), n);
  EXPECT_TRUE(m.IsFeasible(full, 1e-6));
  EXPECT_NEAR(m.ObjectiveValue(full), expected.objective,
              1e-6 * (1.0 + std::abs(expected.objective)));
}

INSTANTIATE_TEST_SUITE_P(RandomLps, PresolveRoundTripTest,
                         ::testing::Range(1u, 41u));

// ---------------------------------------------------------------------------
// Partial pricing: candidate-list devex vs the full-Dantzig baseline
// ---------------------------------------------------------------------------

TEST(SimplexPricingTest, PartialMatchesFullDantzigOnRandomLps) {
  int64_t total_hits = 0;
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Model m = MakeKnapsackLp(600, seed);
    SimplexOptions partial_opts, full_opts;
    full_opts.partial_pricing = false;
    SimplexSolver partial(m, partial_opts), full(m, full_opts);
    LpResult p = partial.Solve(Deadline(10.0));
    LpResult f = full.Solve(Deadline(10.0));
    ASSERT_EQ(p.status, LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(f.status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(p.objective, f.objective, 1e-7 * (1.0 + std::abs(f.objective)))
        << "seed " << seed;
    // The kill switch must actually kill.
    EXPECT_EQ(f.pricing_candidate_hits, 0) << "seed " << seed;
    total_hits += p.pricing_candidate_hits;
  }
  // Vacuity guard: the candidate list must have priced real pivots.
  EXPECT_GT(total_hits, 0);
}

TEST(SimplexPricingTest, PartialPricingSurvivesWarmRestarts) {
  // Bound changes + basis restores must not leave the candidate list or
  // the devex weights pointing at a stale basis.
  Model m = MakeKnapsackLp(400, 9);
  SimplexSolver warm(m);
  ASSERT_EQ(warm.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
  Basis root = warm.SnapshotBasis();
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> pick(0, m.num_vars() - 1);
  for (int step = 0; step < 8; ++step) {
    int var = pick(rng);
    ASSERT_TRUE(warm.RestoreBasis(root));
    warm.SetVarBounds(var, 0, 0);
    LpResult w = warm.Solve(Deadline(10.0));
    SimplexSolver cold(m, SimplexOptions{.warm_start = false,
                                         .partial_pricing = false});
    cold.SetVarBounds(var, 0, 0);
    LpResult c = cold.Solve(Deadline(10.0));
    ASSERT_EQ(w.status, c.status) << "step " << step;
    ASSERT_EQ(w.status, LpStatus::kOptimal) << "step " << step;
    EXPECT_NEAR(w.objective, c.objective, 1e-7 * (1.0 + std::abs(c.objective)))
        << "step " << step;
    warm.SetVarBounds(var, 0, 1);
  }
}

TEST(SimplexPricingTest, EtaFileMatchesEagerRefactorization) {
  // refactor_every = 1 collapses the eta file after every pivot (the
  // pre-eta behaviour up to factorization); a long eta file must reach the
  // same optimum.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Model m = MakeKnapsackLp(120, seed * 13);
    SimplexOptions eager, lazy;
    eager.refactor_every = 1;
    lazy.refactor_every = 1 << 20;  // never collapse mid-solve
    LpResult a = SimplexSolver(m, eager).Solve(Deadline(10.0));
    LpResult b = SimplexSolver(m, lazy).Solve(Deadline(10.0));
    ASSERT_EQ(a.status, LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(b.status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(a.objective, b.objective,
                1e-7 * (1.0 + std::abs(a.objective)))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Dual steepest-edge pricing + bound-flipping ratio test
// ---------------------------------------------------------------------------

/// Random boxed LP: every variable lies in a finite box, rows mix one- and
/// two-sided bounds. Boxes are what the bound-flipping ratio test flips, so
/// this shape exercises both halves of the dual upgrade.
Model MakeBoxedLp(int n, int rows, uint64_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(-4.0, 4.0), width(0.5, 2.0);
  std::bernoulli_distribution two_sided(0.5), in_row(0.4), maximize(0.5);
  Model m;
  m.set_sense(maximize(rng) ? Sense::kMaximize : Sense::kMinimize);
  for (int j = 0; j < n; ++j) m.AddVariable(0, width(rng), coef(rng), false);
  for (int i = 0; i < rows; ++i) {
    RowDef row;
    for (int j = 0; j < n; ++j) {
      if (!in_row(rng)) continue;
      row.vars.push_back(j);
      row.coefs.push_back(coef(rng));
    }
    double slack = 1.0 + std::abs(coef(rng));
    row.lo = two_sided(rng) ? -slack : -kInf;
    row.hi = slack;  // x = 0 always feasible
    EXPECT_TRUE(m.AddRow(std::move(row)).ok());
  }
  return m;
}

TEST(SimplexDualPricingTest, BoundFlipsOccurOnBoxedKnapsackResolves) {
  // Warm re-solves after overloading the knapsack: several columns jump to
  // their upper bound at once, so the capacity slack is violated by far
  // more than any single box — exactly the long-step situation where the
  // ratio test should flip boxed columns instead of pivoting.
  int64_t total_flips = 0, total_dse = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Model m = MakeKnapsackLp(200, seed);
    SimplexSolver dse(m), plain(m, SimplexOptions{.dual_steepest_edge = false});
    LpResult first = dse.Solve(Deadline(10.0));
    LpResult pfirst = plain.Solve(Deadline(10.0));
    ASSERT_EQ(first.status, LpStatus::kOptimal);
    ASSERT_EQ(pfirst.status, LpStatus::kOptimal);
    // Force a batch of zero-valued columns to 1: capacity overloads hard.
    std::mt19937 rng(seed * 31);
    std::uniform_int_distribution<int> pick(0, m.num_vars() - 1);
    for (int k = 0; k < 40; ++k) {
      int var = pick(rng);
      dse.SetVarBounds(var, 1, 1);
      plain.SetVarBounds(var, 1, 1);
    }
    LpResult w = dse.Solve(Deadline(10.0));
    LpResult p = plain.Solve(Deadline(10.0));
    ASSERT_EQ(w.status, p.status) << "seed " << seed;
    if (w.status == LpStatus::kOptimal) {
      EXPECT_NEAR(w.objective, p.objective,
                  1e-7 * (1.0 + std::abs(p.objective)))
          << "seed " << seed;
    }
    // The kill switch must actually kill.
    EXPECT_EQ(p.bound_flips, 0) << "seed " << seed;
    EXPECT_EQ(p.dse_pivots, 0) << "seed " << seed;
    total_flips += w.bound_flips;
    total_dse += w.dse_pivots;
  }
  // Vacuity guards: the long-step test must have flipped real columns and
  // the steepest-edge rule must have priced real dual pivots.
  EXPECT_GT(total_flips, 0);
  EXPECT_GT(total_dse, 0);
}

TEST(SimplexDualPricingTest, DseMatchesBaselineOn40RandomBoxedLps) {
  // Objective equality, DSE+BFRT vs the plain dual phase, across warm
  // re-solve sequences on random boxed LPs (the dual phase only runs warm;
  // cold solves never reach it). A cold full-Dantzig solver referees.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Model m = MakeBoxedLp(80, 6, seed * 7);
    SimplexSolver dse(m), plain(m, SimplexOptions{.dual_steepest_edge = false});
    ASSERT_EQ(dse.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
    ASSERT_EQ(plain.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> pick(0, m.num_vars() - 1);
    for (int step = 0; step < 6; ++step) {
      int var = pick(rng);
      double mid = 0.5 * (m.lb()[var] + m.ub()[var]);
      bool fix_up = (step & 1) != 0;
      double lo = fix_up ? mid : m.lb()[var];
      double hi = fix_up ? m.ub()[var] : mid;
      dse.SetVarBounds(var, lo, hi);
      plain.SetVarBounds(var, lo, hi);
      LpResult a = dse.Solve(Deadline(10.0));
      LpResult b = plain.Solve(Deadline(10.0));
      SimplexSolver cold(m, SimplexOptions{.warm_start = false,
                                           .partial_pricing = false});
      cold.SetVarBounds(var, lo, hi);
      LpResult c = cold.Solve(Deadline(10.0));
      ASSERT_EQ(a.status, c.status) << "seed " << seed << " step " << step;
      ASSERT_EQ(b.status, c.status) << "seed " << seed << " step " << step;
      if (c.status == LpStatus::kOptimal) {
        EXPECT_NEAR(a.objective, c.objective,
                    1e-7 * (1.0 + std::abs(c.objective)))
            << "seed " << seed << " step " << step;
        EXPECT_NEAR(b.objective, c.objective,
                    1e-7 * (1.0 + std::abs(c.objective)))
            << "seed " << seed << " step " << step;
      }
      // Re-relax so later steps stay feasible more often than not.
      dse.SetVarBounds(var, m.lb()[var], m.ub()[var]);
      plain.SetVarBounds(var, m.lb()[var], m.ub()[var]);
    }
  }
}

TEST(SimplexDualPricingTest, DseSurvivesBasisRestoreAndRefactor) {
  // Weight resets: RestoreBasis and eager refactorization must leave the
  // steepest-edge weights in a sane (reset-to-reference) state, never a
  // stale one. Objective equality against a cold solver is the oracle.
  Model m = MakeKnapsackLp(300, 17);
  SimplexOptions eager;
  eager.refactor_every = 1;  // collapse the eta file after every pivot
  SimplexSolver warm(m, eager);
  ASSERT_EQ(warm.Solve(Deadline(10.0)).status, LpStatus::kOptimal);
  Basis root = warm.SnapshotBasis();
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> pick(0, m.num_vars() - 1);
  for (int step = 0; step < 6; ++step) {
    int var = pick(rng);
    ASSERT_TRUE(warm.RestoreBasis(root));
    warm.SetVarBounds(var, 1, 1);
    LpResult w = warm.Solve(Deadline(10.0));
    SimplexSolver cold(m, SimplexOptions{.warm_start = false});
    cold.SetVarBounds(var, 1, 1);
    LpResult c = cold.Solve(Deadline(10.0));
    ASSERT_EQ(w.status, c.status) << "step " << step;
    ASSERT_EQ(w.status, LpStatus::kOptimal) << "step " << step;
    EXPECT_NEAR(w.objective, c.objective, 1e-7 * (1.0 + std::abs(c.objective)))
        << "step " << step;
    warm.SetVarBounds(var, 0, 1);
  }
}

TEST(SimplexDualPricingTest, WarmResolveSweepPinsPivotAndFlipCounts) {
  // The warm re-solve sweep of the dual-pricing micro bench (400 boxed
  // knapsack columns, 40 re-solves that each fix 30 columns at 1). The
  // counts are deterministic for the fixed model: any drift in the order
  // the bound-flipping walk visits its breakpoints changes them.
  constexpr int kCols = 400;
  constexpr int kResolves = 40;
  constexpr int kFixPerResolve = 30;
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> value(1.0, 10.0), weight(1.0, 5.0);
  Model m;
  m.set_sense(Sense::kMaximize);
  RowDef cap;
  for (int j = 0; j < kCols; ++j) {
    m.AddVariable(0, 1, value(rng), false);
    cap.vars.push_back(j);
    cap.coefs.push_back(weight(rng));
  }
  cap.lo = -kInf;
  cap.hi = static_cast<double>(kCols) / 2.0;
  ASSERT_TRUE(m.AddRow(std::move(cap)).ok());

  SimplexSolver solver(m);
  ASSERT_EQ(solver.Solve(Deadline(60.0)).status, LpStatus::kOptimal);
  Basis root = solver.SnapshotBasis();
  int64_t pivots = 0, flips = 0, dse_pivots = 0;
  for (int i = 0; i < kResolves; ++i) {
    solver.RestoreBasis(root);
    for (int f = 0; f < kFixPerResolve; ++f) {
      solver.SetVarBounds((i * 131 + f * 17) % kCols, 1, 1);
    }
    LpResult r = solver.Solve(Deadline(60.0));
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "re-solve " << i;
    pivots += r.iterations;
    flips += r.bound_flips;
    dse_pivots += r.dse_pivots;
    for (int f = 0; f < kFixPerResolve; ++f) {
      solver.SetVarBounds((i * 131 + f * 17) % kCols, 0, 1);
    }
  }
  EXPECT_EQ(pivots, 40);
  EXPECT_EQ(flips, 1299);
  EXPECT_EQ(dse_pivots, 40);
}

TEST(SimplexWarmStartTest, ColdKillSwitchDisablesBasisReuse) {
  Model m = MakeKnapsackLp(25, 3);
  SimplexOptions cold_opts;
  cold_opts.warm_start = false;
  SimplexSolver solver(m, cold_opts);
  LpResult first = solver.Solve(Deadline(10.0));
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  solver.SetVarBounds(0, 0, 0);
  LpResult second = solver.Solve(Deadline(10.0));
  ASSERT_EQ(second.status, LpStatus::kOptimal);
  EXPECT_FALSE(first.used_dual);
  EXPECT_FALSE(second.used_dual);  // every solve is a cold primal run
}

}  // namespace
}  // namespace paql::lp
