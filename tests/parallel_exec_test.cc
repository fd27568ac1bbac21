// The morsel-driven parallel execution layer, end to end:
//
//  * concurrent branch-and-bound (BranchAndBoundOptions::threads > 1) vs
//    the serial search — same feasibility and objective on random ILPs,
//    including models crafted with many equally-good incumbents so the
//    shared-incumbent machinery races for real (the TSan CI job runs this
//    suite under -fsanitize=thread);
//  * parallel vectorized scans, filters, and reductions — bit-for-bit
//    identical to the serial pipeline for any worker count;
//  * parallel partitioning statistics — identical artifacts.
//
// Everything runs with explicit worker counts (4–8) even though CI
// machines may have fewer cores: ClampThreads honors explicit requests,
// so the OS timeslices and the interleavings still exercise the locks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "ilp/branch_and_bound.h"
#include "lp/model.h"
#include "paql/parser.h"
#include "partition/partitioner.h"
#include "relation/chunk.h"
#include "relation/table.h"
#include "translate/vector_expr.h"
#include "workload/galaxy.h"

namespace paql {
namespace {

using relation::RowId;
using relation::Table;

/// A cardinality + capacity knapsack over `n` integer columns; near-tied
/// value/weight ratios force real branching.
lp::Model RandomKnapsack(Rng* rng, int n, int pick) {
  lp::Model model;
  model.set_sense(lp::Sense::kMaximize);
  lp::RowDef count, cap;
  double total_weight = 0;
  for (int j = 0; j < n; ++j) {
    double w = rng->Uniform(1.0, 5.0);
    double v = w * rng->Uniform(0.95, 1.05);  // near-tied ratios
    int var = model.AddVariable(0, 1, v, /*is_integer=*/true);
    count.vars.push_back(var);
    count.coefs.push_back(1.0);
    cap.vars.push_back(var);
    cap.coefs.push_back(w);
    total_weight += w;
  }
  count.lo = count.hi = pick;
  cap.lo = -lp::kInf;
  cap.hi = total_weight * pick / (2.0 * n);  // tight: ~half the average fit
  EXPECT_TRUE(model.AddRow(std::move(count)).ok());
  EXPECT_TRUE(model.AddRow(std::move(cap)).ok());
  return model;
}

TEST(ParallelBnbTest, MatchesSerialOnRandomKnapsacks) {
  int solved = 0;
  int64_t parallel_nodes = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 977 + 13);
    lp::Model model = RandomKnapsack(&rng, 80 + seed, 8 + seed % 5);
    ilp::BranchAndBoundOptions serial_opts, parallel_opts;
    serial_opts.threads = 1;
    parallel_opts.threads = 4;
    auto serial = ilp::SolveIlp(model, {}, serial_opts);
    auto parallel = ilp::SolveIlp(model, {}, parallel_opts);
    SCOPED_TRACE(StrCat("seed ", seed));
    ASSERT_EQ(serial.ok(), parallel.ok());
    if (!serial.ok()) {
      EXPECT_TRUE(serial.status().IsInfeasible());
      continue;
    }
    ++solved;
    EXPECT_EQ(serial->stats.parallel_nodes, 0);
    parallel_nodes += parallel->stats.parallel_nodes;
    EXPECT_TRUE(parallel->stats.proven_optimal);
    EXPECT_LE(std::abs(serial->objective - parallel->objective),
              1e-7 * (1.0 + std::abs(serial->objective)))
        << "serial " << serial->objective << " vs parallel "
        << parallel->objective;
  }
  EXPECT_GE(solved, 15);
  // Vacuity guard: the concurrent searcher must actually have engaged.
  EXPECT_GT(parallel_nodes, 0);
}

TEST(ParallelBnbTest, IncumbentRaceWithManyEquallyGoodSolutions) {
  // Every column is identical, so every k-subset is an optimal incumbent:
  // workers constantly try to install tied solutions, hammering the
  // incumbent lock and the tie-break path.
  lp::Model model;
  model.set_sense(lp::Sense::kMinimize);
  lp::RowDef count, parity;
  for (int j = 0; j < 96; ++j) {
    int var = model.AddVariable(0, 1, 1.0, true);
    count.vars.push_back(var);
    count.coefs.push_back(1.0);
    // A second row with alternating signs keeps the LP fractional at the
    // root so the search branches instead of rounding immediately.
    parity.vars.push_back(var);
    parity.coefs.push_back(j % 2 == 0 ? 1.0 : -1.0);
  }
  count.lo = count.hi = 11;
  parity.lo = parity.hi = 1;
  ASSERT_TRUE(model.AddRow(std::move(count)).ok());
  ASSERT_TRUE(model.AddRow(std::move(parity)).ok());
  for (int rep = 0; rep < 10; ++rep) {
    ilp::BranchAndBoundOptions opts;
    opts.threads = 8;
    auto sol = ilp::SolveIlp(model, {}, opts);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_NEAR(sol->objective, 11.0, 1e-9);
    EXPECT_TRUE(sol->stats.proven_optimal);
  }
}

TEST(ParallelBnbTest, SerialSearchIsUntouchedByDefault) {
  Rng rng(4242);
  lp::Model model = RandomKnapsack(&rng, 100, 10);
  // Default options: threads = 1, so parallel_nodes must stay zero and
  // two runs must agree exactly (the historical deterministic search).
  auto a = ilp::SolveIlp(model);
  auto b = ilp::SolveIlp(model);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->stats.parallel_nodes, 0);
  EXPECT_EQ(a->objective, b->objective);
  EXPECT_EQ(a->stats.nodes, b->stats.nodes);
  EXPECT_EQ(a->stats.lp_iterations, b->stats.lp_iterations);
  EXPECT_EQ(a->x, b->x);
}

TEST(ParallelBnbTest, RespectsNodeLimitAcrossWorkers) {
  Rng rng(7);
  lp::Model model = RandomKnapsack(&rng, 120, 12);
  ilp::SolverLimits limits;
  limits.max_nodes = 5;
  ilp::BranchAndBoundOptions opts;
  opts.threads = 4;
  opts.enable_rounding_heuristic = false;
  opts.enable_diving_heuristic = false;
  auto sol = ilp::SolveIlp(model, limits, opts);
  // With 5 nodes and no heuristics the search cannot finish this model:
  // the shared budget must stop every worker.
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsResourceExhausted()) << sol.status();
}

// ---------------------------------------------------------------------------
// Parallel scans / filters / reductions
// ---------------------------------------------------------------------------

TEST(ParallelScanTest, FilterTableVectorizedIsBitIdenticalAcrossWorkerCounts) {
  const Table& t = workload::MakeGalaxyTable(120000);
  auto parsed = lang::ParsePackageQuery(
      "SELECT PACKAGE(G) AS P FROM Galaxy G "
      "WHERE G.expMag_r + 0.1 * G.deVMag_r <= 40 "
      "AND G.redshift BETWEEN 0.05 AND 2.5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto pred = translate::CompileBoolBatch(*parsed->where, t.schema());
  ASSERT_TRUE(pred.ok()) << pred.status();
  std::vector<RowId> serial = translate::FilterTableVectorized(t, *pred, 1);
  for (int workers : {2, 4, 7}) {
    std::vector<RowId> parallel =
        translate::FilterTableVectorized(t, *pred, workers);
    ASSERT_EQ(serial, parallel) << workers << " workers";
  }
  // And the gather-list variant over a shuffled subset.
  std::vector<RowId> subset;
  for (size_t i = 0; i < t.num_rows(); i += 3) {
    subset.push_back(static_cast<RowId>((i * 7919) % t.num_rows()));
  }
  std::vector<RowId> serial_subset =
      translate::FilterRowsVectorized(t, subset, *pred, 1);
  EXPECT_EQ(serial_subset, translate::FilterRowsVectorized(t, subset, *pred, 4));
}

TEST(ParallelScanTest, MinMaxReductionsAreBitIdenticalAcrossWorkerCounts) {
  const Table& t = workload::MakeGalaxyTable(100000);
  auto col = t.schema().ResolveColumn("redshift");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(relation::ColumnMinAbs(t, *col, 1),
            relation::ColumnMinAbs(t, *col, 4));
  std::vector<RowId> rows(t.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<RowId>(i);
  EXPECT_EQ(relation::GatherMaxAbsDeviation(t, *col, rows, 0.5, 1),
            relation::GatherMaxAbsDeviation(t, *col, rows, 0.5, 4));
}

TEST(ParallelPartitionTest, ArtifactIsIdenticalAcrossWorkerCounts) {
  const Table& t = workload::MakeGalaxyTable(30000);
  partition::PartitionOptions serial_opts, parallel_opts;
  serial_opts.attributes = parallel_opts.attributes = {"petroRad_r",
                                                       "redshift", "expMag_r"};
  serial_opts.size_threshold = parallel_opts.size_threshold = 3000;
  serial_opts.threads = 1;
  parallel_opts.threads = 4;
  auto serial = partition::PartitionTable(t, serial_opts);
  auto parallel = partition::PartitionTable(t, parallel_opts);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->num_groups(), parallel->num_groups());
  EXPECT_EQ(serial->gid, parallel->gid);
  EXPECT_EQ(serial->radius, parallel->radius);
  std::vector<size_t> numeric;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (t.schema().column(c).type != relation::DataType::kString) {
      numeric.push_back(c);
    }
  }
  const Table& serial_reps = serial->Representatives(t, numeric);
  const Table& parallel_reps = parallel->Representatives(t, numeric);
  ASSERT_EQ(serial_reps.num_rows(), parallel_reps.num_rows());
  for (RowId r = 0; r < serial_reps.num_rows(); ++r) {
    for (size_t c : numeric) {
      EXPECT_EQ(serial_reps.GetDouble(r, c), parallel_reps.GetDouble(r, c))
          << "rep " << r << " col " << c;
    }
  }
}

// Readers sharing one partitioning (the engine caches a single artifact
// for every session) ask for overlapping representative columns at once.
// Each column is computed exactly once, whichever reader gets there first,
// and every reader sees the bits of the group means gathered in row-list
// order (their integer part in an INT64 column).
TEST(ParallelPartitionTest, ConcurrentReadersFillEachColumnOnce) {
  const Table t = workload::MakeGalaxyTable(30000);
  partition::PartitionOptions options;
  options.attributes = {"petroRad_r", "redshift"};
  options.size_threshold = 3000;
  auto built = partition::PartitionTable(t, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const partition::Partitioning& p = *built;
  std::vector<size_t> lazy;  // numeric columns the build left unfilled
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (!p.representatives.filled(c)) lazy.push_back(c);
  }
  ASSERT_GE(lazy.size(), 6u);

  constexpr size_t kReaders = 6;
  std::vector<std::vector<size_t>> wants(kReaders);
  std::vector<partition::RepresentativeFill> fills(kReaders);
  std::vector<std::vector<uint64_t>> seen(kReaders);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> readers;
  for (size_t i = 0; i < kReaders; ++i) {
    // Three consecutive columns each, so neighbours overlap in two.
    for (size_t k = 0; k < 3; ++k) {
      wants[i].push_back(lazy[(i + k) % lazy.size()]);
    }
    readers.emplace_back([&, i] {
      ++ready;
      while (ready.load() < kReaders) std::this_thread::yield();
      const Table& reps = p.Representatives(t, wants[i], &fills[i]);
      for (size_t c : wants[i]) {
        for (RowId g = 0; g < reps.num_rows(); ++g) {
          const double v = reps.GetDouble(g, c);
          uint64_t bits;
          std::memcpy(&bits, &v, sizeof(bits));
          seen[i].push_back(bits);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();

  std::set<size_t> distinct;
  size_t computed = 0;
  for (size_t i = 0; i < kReaders; ++i) {
    distinct.insert(wants[i].begin(), wants[i].end());
    computed += fills[i].columns;
  }
  EXPECT_EQ(computed, distinct.size());
  for (size_t i = 0; i < kReaders; ++i) {
    size_t at = 0;
    for (size_t c : wants[i]) {
      for (size_t g = 0; g < p.num_groups(); ++g) {
        double expect = relation::GatherMean(t, c, p.groups[g]);
        if (t.schema().column(c).type == relation::DataType::kInt64) {
          expect = static_cast<double>(static_cast<int64_t>(expect));
        }
        uint64_t bits;
        std::memcpy(&bits, &expect, sizeof(bits));
        EXPECT_EQ(seen[i][at++], bits)
            << "reader " << i << " column " << c << " group " << g;
      }
    }
  }
}

}  // namespace
}  // namespace paql
