// Micro benchmarks of the individual components (google-benchmark): PaQL
// parsing, base-relation filtering, ILP model construction, LP relaxation,
// integer solves, partitioning, and SketchRefine end-to-end. These are the
// cost centers behind every figure; run in Release mode for meaningful
// numbers.
//
// Every run additionally measures the scalar vs vectorized expression
// pipelines (predicate scan + SUM aggregation) and records the ns/row
// numbers in BENCH_micro.json — the machine-readable perf trajectory that
// keeps future performance PRs honest.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>

#include "bench/bench_common.h"
#include "common/crc32.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "relation/block_store.h"
#include "core/direct.h"
#include "core/ratio_objective.h"
#include "core/sketch_refine.h"
#include "ilp/branch_and_bound.h"
#include "ilp/cuts.h"
#include "lp/lp_format.h"
#include "lp/simplex.h"
#include "paql/parser.h"
#include "partition/dynamic_update.h"
#include "partition/partitioner.h"
#include "translate/compiled_query.h"
#include "translate/vector_expr.h"
#include "workload/galaxy.h"
#include "workload/queries.h"

namespace paql::bench {
namespace {

constexpr const char* kQueryText =
    "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 "
    "SUCH THAT COUNT(P.*) = 10 AND SUM(P.petroRad_r) <= 50 "
    "AND SUM(P.redshift) BETWEEN 0.2 AND 2.5 "
    "MINIMIZE SUM(P.expMag_r)";

const relation::Table& SharedGalaxy(size_t rows) {
  static auto* cache = new std::map<size_t, relation::Table>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, workload::MakeGalaxyTable(rows)).first;
  }
  return it->second;
}

void BM_ParsePaql(benchmark::State& state) {
  for (auto _ : state) {
    auto q = lang::ParsePackageQuery(kQueryText);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParsePaql);

void BM_CompileQuery(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(100);
  auto q = lang::ParsePackageQuery(kQueryText);
  for (auto _ : state) {
    auto cq = translate::CompiledQuery::Compile(*q, t.schema());
    benchmark::DoNotOptimize(cq);
  }
}
BENCHMARK(BM_CompileQuery);

void BM_BuildModel(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  auto rows = cq->ComputeBaseRows(t);
  for (auto _ : state) {
    auto model = cq->BuildModel(t, rows);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_BuildModel)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_LpRelaxation(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  auto rows = cq->ComputeBaseRows(t);
  auto model = cq->BuildModel(t, rows);
  for (auto _ : state) {
    auto lp = ilp::SolveLpRelaxation(*model);
    benchmark::DoNotOptimize(lp);
  }
}
BENCHMARK(BM_LpRelaxation)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SolveIlp(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  auto rows = cq->ComputeBaseRows(t);
  auto model = cq->BuildModel(t, rows);
  for (auto _ : state) {
    auto sol = ilp::SolveIlp(*model);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SolveIlp)->Arg(1000)->Arg(10000);

void BM_Partition(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  partition::PartitionOptions popts;
  popts.attributes = {"ra", "dec", "r", "redshift"};
  popts.size_threshold = t.num_rows() / 10;
  for (auto _ : state) {
    auto p = partition::PartitionTable(t, popts);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(t.num_rows()));
}
BENCHMARK(BM_Partition)->Arg(10000)->Arg(50000);

void BM_DirectEndToEnd(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  core::DirectEvaluator direct(t);
  for (auto _ : state) {
    auto r = direct.Evaluate(*cq);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DirectEndToEnd)->Arg(1000)->Arg(10000);

void BM_SketchRefineEndToEnd(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  partition::PartitionOptions popts;
  popts.attributes = {"petroRad_r", "redshift", "expMag_r"};
  popts.size_threshold = t.num_rows() / 10;
  static auto* parts =
      new std::map<size_t, partition::Partitioning>();
  auto it = parts->find(t.num_rows());
  if (it == parts->end()) {
    auto p = partition::PartitionTable(t, popts);
    it = parts->emplace(t.num_rows(), std::move(*p)).first;
  }
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  core::SketchRefineEvaluator sr(t, it->second);
  for (auto _ : state) {
    auto r = sr.Evaluate(*cq);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SketchRefineEndToEnd)->Arg(1000)->Arg(10000);

/// The micro query's ILP over `rows` Galaxy rows and its LP optimum: the
/// root point the cut loop separates.
struct SeparationInput {
  lp::Model model;
  std::vector<double> x;
};

SeparationInput MakeSeparationInput(size_t rows) {
  const relation::Table& t = SharedGalaxy(rows);
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  auto base = cq->ComputeBaseRows(t);
  auto model = cq->BuildModel(t, base);
  PAQL_CHECK(model.ok());
  SeparationInput in{std::move(*model), {}};
  in.x = ilp::SolveLpRelaxation(in.model).x;
  return in;
}

void BM_CutSeparation(benchmark::State& state) {
  SeparationInput in = MakeSeparationInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto cuts = ilp::SeparateCuts(in.model, in.x, ilp::CutOptions{});
    benchmark::DoNotOptimize(cuts);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.model.num_vars()));
}
BENCHMARK(BM_CutSeparation)->Arg(1000)->Arg(10000)->Arg(25000)->Arg(100000);

/// Cut-separation suite, the "cut_separation" BENCH_micro.json section:
/// best-of-9 time of one separation round at 25k and 100k columns, the
/// two sizes timed in alternation so both see the same machine phases.
/// The COUNT row's >= side complements every column into one cover, so
/// any per-member work that scans the cover turns quadratic here; the
/// growth between the two sizes is the guarded number.
void RunCutSeparationMicroSuite(CutSeparationSection* out) {
  constexpr int kReps = 9;
  out->columns = {25000, 100000};
  std::vector<SeparationInput> inputs;
  for (size_t columns : out->columns) {
    inputs.push_back(MakeSeparationInput(columns));
  }
  out->ms.assign(inputs.size(), std::numeric_limits<double>::infinity());
  std::vector<size_t> cuts(inputs.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      Stopwatch watch;
      auto separated =
          ilp::SeparateCuts(inputs[i].model, inputs[i].x, ilp::CutOptions{});
      out->ms[i] = std::min(out->ms[i], watch.ElapsedMillis());
      cuts[i] = separated.size();
    }
  }
  out->growth = out->ms.back() / out->ms.front();
  TablePrinter printer({"columns", "ms/round", "cuts"});
  for (size_t i = 0; i < inputs.size(); ++i) {
    printer.AddRow({StrCat(out->columns[i]), FormatDouble(out->ms[i], 3),
                    StrCat(cuts[i])});
  }
  std::cout << "== root cut separation (growth " << FormatDouble(out->growth, 3)
            << "x from " << out->columns.front() << " to "
            << out->columns.back() << " columns) ==\n";
  printer.Print(std::cout);
}

void BM_LpFormatWrite(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  auto q = lang::ParsePackageQuery(kQueryText);
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  auto model = cq->BuildModel(t, cq->ComputeBaseRows(t));
  for (auto _ : state) {
    std::string text = lp::ToLpFormat(*model);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_LpFormatWrite)->Arg(1000)->Arg(10000);

void BM_RatioObjective(benchmark::State& state) {
  const relation::Table& t = SharedGalaxy(static_cast<size_t>(state.range(0)));
  auto q = lang::ParsePackageQuery(
      "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 "
      "SUCH THAT COUNT(P.*) BETWEEN 5 AND 15 "
      "MINIMIZE AVG(P.expMag_r)");
  core::RatioObjectiveEvaluator ratio(t);
  for (auto _ : state) {
    auto r = ratio.Evaluate(*q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RatioObjective)->Arg(1000)->Arg(10000);

void BM_AbsorbAppendedRows(benchmark::State& state) {
  // Base = 90% of the rows, absorb the last 10% each iteration.
  size_t total = static_cast<size_t>(state.range(0));
  const relation::Table& galaxy = SharedGalaxy(total);
  size_t base = total * 9 / 10;
  std::vector<relation::RowId> ids(base);
  for (size_t r = 0; r < base; ++r) ids[r] = static_cast<relation::RowId>(r);
  relation::Table table = galaxy.SelectRows(ids);
  partition::PartitionOptions popts;
  popts.attributes = {"petroRad_r", "redshift", "expMag_r"};
  popts.size_threshold = total / 10;
  auto p = partition::PartitionTable(table, popts);
  for (size_t r = base; r < total; ++r) {
    std::vector<relation::Value> row;
    for (size_t c = 0; c < galaxy.num_columns(); ++c) {
      row.push_back(galaxy.GetValue(static_cast<relation::RowId>(r), c));
    }
    table.AppendRowUnchecked(row);
  }
  for (auto _ : state) {
    auto absorbed = partition::AbsorbAppendedRows(table, *p);
    benchmark::DoNotOptimize(absorbed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(total - base));
}
BENCHMARK(BM_AbsorbAppendedRows)->Arg(10000)->Arg(50000);

// ---------------------------------------------------------------------------
// Scalar vs vectorized expression pipelines (the BENCH_micro.json suite)
// ---------------------------------------------------------------------------

/// The WHERE clause is the predicate-scan kernel; the objective argument is
/// the SUM-aggregation kernel. Both touch several columns with arithmetic,
/// the shape the paper's Galaxy workload queries take.
constexpr const char* kMicroQueryText =
    "SELECT PACKAGE(G) AS P FROM Galaxy G "
    "WHERE G.expMag_r + 0.1 * G.deVMag_r <= 40 "
    "AND G.redshift BETWEEN 0.05 AND 2.5 "
    "MINIMIZE SUM(G.petroFlux_r * 0.001 + G.petroRad_r)";

size_t CountScalar(const relation::Table& t,
                   const translate::RowPred& pred) {
  size_t n = 0;
  for (relation::RowId r = 0; r < t.num_rows(); ++r) {
    n += pred(t, r) ? 1 : 0;
  }
  return n;
}

size_t CountVectorized(const relation::Table& t,
                       const translate::BatchPred& pred) {
  size_t n = 0;
  relation::SelectionVector sel;
  for (size_t start = 0; start < t.num_rows(); start += relation::kChunkSize) {
    relation::RowSpan span;
    span.start = static_cast<relation::RowId>(start);
    span.len = static_cast<uint32_t>(
        std::min(relation::kChunkSize, t.num_rows() - start));
    sel.MakeDense(span.len);
    pred(t, span, &sel);
    n += sel.count;
  }
  return n;
}

/// Compiled micro kernels over the shared Galaxy table.
struct MicroKernels {
  const relation::Table* table;
  translate::RowPred scalar_pred;
  translate::BatchPred batch_pred;
  translate::CompiledAggArg agg;
};

MicroKernels MakeMicroKernels(size_t rows) {
  MicroKernels k;
  k.table = &SharedGalaxy(rows);
  auto q = lang::ParsePackageQuery(kMicroQueryText);
  PAQL_CHECK_MSG(q.ok(), q.status());
  auto scalar_pred = translate::CompileBool(*q->where, k.table->schema());
  PAQL_CHECK_MSG(scalar_pred.ok(), scalar_pred.status());
  auto batch_pred = translate::CompileBoolBatch(*q->where, k.table->schema());
  PAQL_CHECK_MSG(batch_pred.ok(), batch_pred.status());
  auto agg =
      translate::CompileAggArg(*q->objective->expr->agg, k.table->schema());
  PAQL_CHECK_MSG(agg.ok(), agg.status());
  k.scalar_pred = std::move(*scalar_pred);
  k.batch_pred = std::move(*batch_pred);
  k.agg = std::move(*agg);
  return k;
}

void BM_PredicateScanScalar(benchmark::State& state) {
  MicroKernels k = MakeMicroKernels(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    size_t n = CountScalar(*k.table, k.scalar_pred);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateScanScalar)->Arg(100000)->Arg(1000000);

void BM_PredicateScanVectorized(benchmark::State& state) {
  MicroKernels k = MakeMicroKernels(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    size_t n = CountVectorized(*k.table, k.batch_pred);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateScanVectorized)->Arg(100000)->Arg(1000000);

void BM_SumAggregateScalar(benchmark::State& state) {
  MicroKernels k = MakeMicroKernels(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    double s = translate::AggregateSumScalar(*k.table, k.agg);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SumAggregateScalar)->Arg(100000)->Arg(1000000);

void BM_SumAggregateVectorized(benchmark::State& state) {
  MicroKernels k = MakeMicroKernels(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    double s = translate::AggregateSumVectorized(*k.table, k.agg);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SumAggregateVectorized)->Arg(100000)->Arg(1000000);

template <typename Fn>
double BestNsPerRow(size_t rows, int reps, Fn fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best * 1e9 / static_cast<double>(rows);
}

}  // namespace

/// Measure the four pipeline kernels at `rows` rows, cross-check that both
/// pipelines agree exactly, print a paper-style table, and append the
/// measurements to `entries` plus the speedup pairings to `rules` (the
/// JSON writer derives the factors from the entries at write time).
void RunVectorizedMicroSuite(size_t rows,
                             std::vector<MicroMeasurement>* out_entries,
                             std::vector<SpeedupRule>* out_rules) {
  MicroKernels k = MakeMicroKernels(rows);
  const relation::Table& t = *k.table;

  // Correctness gate before any timing: identical selections and sums.
  size_t scalar_count = CountScalar(t, k.scalar_pred);
  size_t vector_count = CountVectorized(t, k.batch_pred);
  PAQL_CHECK_MSG(scalar_count == vector_count,
                 "pipelines disagree: " << scalar_count << " vs "
                                        << vector_count);
  double scalar_sum = translate::AggregateSumScalar(t, k.agg);
  double vector_sum = translate::AggregateSumVectorized(t, k.agg);
  PAQL_CHECK_MSG(scalar_sum == vector_sum,
                 "pipelines disagree: " << scalar_sum << " vs " << vector_sum);

  constexpr int kReps = 5;
  std::vector<MicroMeasurement> entries;
  entries.push_back({"predicate_scan_scalar",
                     BestNsPerRow(rows, kReps, [&] {
                       benchmark::DoNotOptimize(CountScalar(t, k.scalar_pred));
                     })});
  entries.push_back({"predicate_scan_vectorized",
                     BestNsPerRow(rows, kReps, [&] {
                       benchmark::DoNotOptimize(
                           CountVectorized(t, k.batch_pred));
                     })});
  entries.push_back({"sum_aggregate_scalar",
                     BestNsPerRow(rows, kReps, [&] {
                       benchmark::DoNotOptimize(
                           translate::AggregateSumScalar(t, k.agg));
                     })});
  entries.push_back({"sum_aggregate_vectorized",
                     BestNsPerRow(rows, kReps, [&] {
                       benchmark::DoNotOptimize(
                           translate::AggregateSumVectorized(t, k.agg));
                     })});

  out_rules->push_back({"predicate_scan", "predicate_scan_scalar",
                        "predicate_scan_vectorized"});
  out_rules->push_back({"sum_aggregate", "sum_aggregate_scalar",
                        "sum_aggregate_vectorized"});

  TablePrinter printer({"kernel", "ns/row", "speedup"});
  printer.AddRow({entries[0].name, FormatDouble(entries[0].ns_per_row, 2),
                  "1.00"});
  printer.AddRow({entries[1].name, FormatDouble(entries[1].ns_per_row, 2),
                  FormatDouble(entries[0].ns_per_row / entries[1].ns_per_row,
                               2)});
  printer.AddRow({entries[2].name, FormatDouble(entries[2].ns_per_row, 2),
                  "1.00"});
  printer.AddRow({entries[3].name, FormatDouble(entries[3].ns_per_row, 2),
                  FormatDouble(entries[2].ns_per_row / entries[3].ns_per_row,
                               2)});
  std::cout << "== scalar vs vectorized pipelines (" << rows << " rows) ==\n";
  printer.Print(std::cout);

  out_entries->insert(out_entries->end(), entries.begin(), entries.end());
}

/// Cold vs warm solver paths, the other BENCH_micro.json suite:
///
///  * node re-solve — a branch-and-bound-style child evaluation: tighten
///    one variable bound and re-solve the LP, either from the parent basis
///    (dual simplex) or from scratch (primal phases);
///  * refine loop — SKETCHREFINE's inner loop: re-solve one group's ILP
///    under shifted activity offsets, either patching a cached model in
///    place (CompiledQuery::UpdateModelOffsets + basis reuse) or rebuilding
///    and cold-solving every time, as the evaluators did before warm
///    starting existed.
///
/// Entry names carry their unit (µs per re-solve) since the suite measures
/// per-solve latency, not per-row throughput. Warm and cold must agree: the
/// node re-solve paths are cross-checked before timing, and every warm
/// refine solve is checked against the recorded cold objective (one float
/// compare inside the timed loop — negligible).
void RunWarmStartMicroSuite(size_t rows,
                            std::vector<MicroMeasurement>* out_entries,
                            std::vector<SpeedupRule>* out_rules) {
  const relation::Table& t = SharedGalaxy(rows);
  auto q = lang::ParsePackageQuery(kQueryText);
  PAQL_CHECK_MSG(q.ok(), q.status());
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  PAQL_CHECK_MSG(cq.ok(), cq.status());
  PAQL_CHECK_MSG(cq->CanUpdateOffsets(), "query lost offset updatability");

  // --- Node re-solve over the full base-relation LP. ---
  auto base_rows = cq->ComputeBaseRows(t);
  auto model = cq->BuildModel(t, base_rows);
  PAQL_CHECK_MSG(model.ok(), model.status());
  constexpr int kResolves = 40;
  Deadline deadline(60.0);

  lp::SimplexOptions warm_opts, cold_opts;
  cold_opts.warm_start = false;

  // Correctness gate before timing: warm and cold node re-solves must agree
  // on the objective for every bound change the timed loops will make.
  {
    lp::SimplexSolver warm(*model, warm_opts), cold(*model, cold_opts);
    PAQL_CHECK(warm.Solve(deadline).status == lp::LpStatus::kOptimal);
    lp::Basis root = warm.SnapshotBasis();
    for (int i = 0; i < kResolves; ++i) {
      int var = (i * 7919) % model->num_vars();
      warm.RestoreBasis(root);
      warm.SetVarBounds(var, 0, 0);
      cold.SetVarBounds(var, 0, 0);
      auto w = warm.Solve(deadline);
      auto c = cold.Solve(deadline);
      PAQL_CHECK_MSG(w.status == c.status && w.status == lp::LpStatus::kOptimal,
                     "node re-solve status diverged at " << i);
      PAQL_CHECK_MSG(std::abs(w.objective - c.objective) <=
                         1e-7 * (1.0 + std::abs(c.objective)),
                     "node re-solve diverged at " << i << ": " << w.objective
                                                  << " vs " << c.objective);
      warm.SetVarBounds(var, 0, cq->per_tuple_ub());
      cold.SetVarBounds(var, 0, cq->per_tuple_ub());
    }
  }

  double node_cold_s, node_warm_s;
  {
    lp::SimplexSolver cold(*model, cold_opts);
    PAQL_CHECK(cold.Solve(deadline).status == lp::LpStatus::kOptimal);
    Stopwatch watch;
    for (int i = 0; i < kResolves; ++i) {
      int var = (i * 7919) % model->num_vars();
      cold.SetVarBounds(var, 0, 0);
      auto r = cold.Solve(deadline);
      PAQL_CHECK(r.status == lp::LpStatus::kOptimal);
      cold.SetVarBounds(var, 0, cq->per_tuple_ub());
    }
    node_cold_s = watch.ElapsedSeconds();
  }
  {
    lp::SimplexSolver warm(*model, warm_opts);
    PAQL_CHECK(warm.Solve(deadline).status == lp::LpStatus::kOptimal);
    lp::Basis root = warm.SnapshotBasis();
    Stopwatch watch;
    for (int i = 0; i < kResolves; ++i) {
      int var = (i * 7919) % model->num_vars();
      warm.RestoreBasis(root);
      warm.SetVarBounds(var, 0, 0);
      auto r = warm.Solve(deadline);
      PAQL_CHECK(r.status == lp::LpStatus::kOptimal);
      warm.SetVarBounds(var, 0, cq->per_tuple_ub());
    }
    node_warm_s = watch.ElapsedSeconds();
  }

  // --- Refine loop over one partitioning group. ---
  partition::PartitionOptions popts;
  popts.attributes = {"petroRad_r", "redshift", "expMag_r"};
  popts.size_threshold = rows / 10;
  auto partitioning = partition::PartitionTable(t, popts);
  PAQL_CHECK_MSG(partitioning.ok(), partitioning.status());
  // The largest group stands in for a refine subproblem Q[G_j].
  const std::vector<relation::RowId>* group = &partitioning->groups[0];
  for (const auto& g : partitioning->groups) {
    if (g.size() > group->size()) group = &g;
  }
  constexpr int kRefines = 24;
  auto offsets_for = [&](int i) {
    // Leaf order for kQueryText: COUNT = 10, SUM(petroRad_r) <= 50,
    // SUM(redshift) BETWEEN. Shift only the SUM bounds, slightly, the way
    // consecutive refine queries differ by the rest of the package.
    std::vector<double> offsets(cq->num_leaf_constraints(), 0.0);
    offsets[1] = static_cast<double>(i % 5) * 0.5;
    offsets[2] = static_cast<double>(i % 3) * 0.01;
    return offsets;
  };
  ilp::BranchAndBoundOptions bnb_warm, bnb_cold;
  bnb_cold.warm_start = false;

  // The cold loop doubles as the reference: each warm solve is checked
  // against the cold objective recorded at the same offsets.
  std::vector<double> cold_objectives(kRefines);
  double refine_cold_s, refine_warm_s;
  {
    Stopwatch watch;
    for (int i = 0; i < kRefines; ++i) {
      std::vector<double> offsets = offsets_for(i);
      translate::CompiledQuery::BuildOptions build;
      build.activity_offset = &offsets;
      auto m = cq->BuildModel(t, *group, build);
      PAQL_CHECK_MSG(m.ok(), m.status());
      auto sol = ilp::SolveIlp(*m, {}, bnb_cold);
      PAQL_CHECK_MSG(sol.ok(), sol.status());
      cold_objectives[i] = sol->objective;
    }
    refine_cold_s = watch.ElapsedSeconds();
  }
  {
    Stopwatch watch;
    ilp::IlpWarmStart warm_ctx;
    std::vector<double> first = offsets_for(0);
    translate::CompiledQuery::BuildOptions build;
    build.activity_offset = &first;
    auto cached = cq->BuildModel(t, *group, build);
    PAQL_CHECK_MSG(cached.ok(), cached.status());
    for (int i = 0; i < kRefines; ++i) {
      std::vector<double> offsets = offsets_for(i);
      PAQL_CHECK(cq->UpdateModelOffsets(offsets, &*cached).ok());
      auto sol = ilp::SolveIlp(*cached, {}, bnb_warm, &warm_ctx);
      PAQL_CHECK_MSG(sol.ok(), sol.status());
      PAQL_CHECK_MSG(
          std::abs(sol->objective - cold_objectives[i]) <=
              1e-6 * (1.0 + std::abs(cold_objectives[i])),
          "warm refine solve diverged at " << i << ": " << sol->objective
                                           << " vs " << cold_objectives[i]);
    }
    refine_warm_s = watch.ElapsedSeconds();
  }

  auto us_per = [](double seconds, int n) { return seconds * 1e6 / n; };
  std::vector<MicroMeasurement> entries;
  entries.push_back({"node_resolve_cold_us", us_per(node_cold_s, kResolves)});
  entries.push_back({"node_resolve_warm_us", us_per(node_warm_s, kResolves)});
  entries.push_back({"refine_loop_cold_us", us_per(refine_cold_s, kRefines)});
  entries.push_back({"refine_loop_warm_us", us_per(refine_warm_s, kRefines)});
  out_rules->push_back({"warm_node_resolve", "node_resolve_cold_us",
                        "node_resolve_warm_us"});
  out_rules->push_back({"warm_refine_loop", "refine_loop_cold_us",
                        "refine_loop_warm_us"});

  TablePrinter printer({"solver path", "us/solve", "speedup"});
  printer.AddRow({entries[0].name, FormatDouble(entries[0].ns_per_row, 1),
                  "1.00"});
  printer.AddRow({entries[1].name, FormatDouble(entries[1].ns_per_row, 1),
                  FormatDouble(node_cold_s / node_warm_s, 2)});
  printer.AddRow({entries[2].name, FormatDouble(entries[2].ns_per_row, 1),
                  "1.00"});
  printer.AddRow({entries[3].name, FormatDouble(entries[3].ns_per_row, 1),
                  FormatDouble(refine_cold_s / refine_warm_s, 2)});
  std::cout << "== cold vs warm solver (" << rows << " rows, "
            << group->size() << "-row refine group) ==\n";
  printer.Print(std::cout);

  out_entries->insert(out_entries->end(), entries.begin(), entries.end());
}

/// Sparse solver core suite, the third BENCH_micro.json section:
///
///  * per-pivot pricing at `pricing_rows` (1M) columns — the paper-shape LP
///    (one column per Galaxy tuple, three constraint rows) solved cold with
///    full Dantzig pricing vs candidate-list devex partial pricing; the
///    metric is µs per simplex pivot, i.e. wall time / iterations, since
///    partial pricing changes the per-pivot cost, not (much) the count;
///  * ILP presolve on vs off at `presolve_cols` columns — a cardinality +
///    capacity model where 35% of the columns arrive fixed (the reduced-
///    cost-fixing aftermath) and 25% are attractive empty columns, the
///    structure presolve removes before branch-and-bound sees it.
///
/// Both pairs are cross-checked for identical objectives before timing.
void RunSparseSolverMicroSuite(size_t pricing_rows, size_t presolve_cols,
                               std::vector<MicroMeasurement>* out_entries,
                               std::vector<SpeedupRule>* out_rules) {
  Deadline deadline(300.0);

  // --- Per-pivot pricing over the 1M-column package LP. ---
  const relation::Table& t = SharedGalaxy(pricing_rows);
  auto q = lang::ParsePackageQuery(kQueryText);
  PAQL_CHECK_MSG(q.ok(), q.status());
  auto cq = translate::CompiledQuery::Compile(*q, t.schema());
  PAQL_CHECK_MSG(cq.ok(), cq.status());
  auto base_rows = cq->ComputeBaseRowsVectorized(t);
  auto model = cq->BuildModel(t, base_rows);
  PAQL_CHECK_MSG(model.ok(), model.status());
  PAQL_CHECK_MSG(model->attached_columns() != nullptr,
                 "translate lost the attached CSC view");

  lp::SimplexOptions full_opts, partial_opts;
  full_opts.partial_pricing = false;

  // Correctness gate: identical status and objective.
  double full_pivots = 0, partial_pivots = 0;
  {
    lp::SimplexSolver full(*model, full_opts), partial(*model, partial_opts);
    auto f = full.Solve(deadline);
    auto p = partial.Solve(deadline);
    PAQL_CHECK_MSG(f.status == lp::LpStatus::kOptimal &&
                       p.status == lp::LpStatus::kOptimal,
                   "pricing suite LP did not solve: "
                       << lp::LpStatusName(f.status) << " vs "
                       << lp::LpStatusName(p.status));
    PAQL_CHECK_MSG(std::abs(f.objective - p.objective) <=
                       1e-7 * (1.0 + std::abs(f.objective)),
                   "pricing modes diverged: " << f.objective << " vs "
                                              << p.objective);
    PAQL_CHECK_MSG(p.pricing_candidate_hits > 0,
                   "partial pricing never engaged the candidate list");
    PAQL_CHECK_MSG(f.pricing_candidate_hits == 0,
                   "full-Dantzig mode touched the candidate list");
    full_pivots = f.iterations;
    partial_pivots = p.iterations;
  }

  constexpr int kReps = 3;
  double full_s = std::numeric_limits<double>::infinity();
  double partial_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    {
      lp::SimplexSolver solver(*model, full_opts);
      Stopwatch watch;
      auto r = solver.Solve(deadline);
      full_s = std::min(full_s, watch.ElapsedSeconds());
      PAQL_CHECK(r.status == lp::LpStatus::kOptimal);
    }
    {
      lp::SimplexSolver solver(*model, partial_opts);
      Stopwatch watch;
      auto r = solver.Solve(deadline);
      partial_s = std::min(partial_s, watch.ElapsedSeconds());
      PAQL_CHECK(r.status == lp::LpStatus::kOptimal);
    }
  }
  double full_us_per_pivot = full_s * 1e6 / std::max(1.0, full_pivots);
  double partial_us_per_pivot =
      partial_s * 1e6 / std::max(1.0, partial_pivots);

  // --- ILP presolve on vs off. ---
  // The structure presolve alone can neutralize: 35% of the columns arrive
  // fixed at zero (the reduced-cost-fixing aftermath — folded into the row
  // bounds and dropped), and 25% are *attractive empty* columns no row
  // touches (tuples no global predicate constrains): without presolve the
  // LP must bound-flip every one of them into the solution, one pivot
  // each; presolve pins them at their upper bound for free.
  std::mt19937_64 rng(20260727);
  std::uniform_real_distribution<double> value(1.0, 10.0), weight(1.0, 5.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  lp::Model ilp;
  ilp.set_sense(lp::Sense::kMaximize);
  lp::RowDef count, cap;
  for (size_t j = 0; j < presolve_cols; ++j) {
    double u = unit(rng);
    if (u < 0.35) {
      // Fixed at zero (what root reduced-cost fixing leaves behind).
      int var = ilp.AddVariable(0, 0, value(rng), true);
      count.vars.push_back(var);
      count.coefs.push_back(1.0);
      cap.vars.push_back(var);
      cap.coefs.push_back(weight(rng));
    } else if (u < 0.60) {
      ilp.AddVariable(0, 1, value(rng), true);  // empty: pins at ub
    } else {
      int var = ilp.AddVariable(0, 1, value(rng), true);
      count.vars.push_back(var);
      count.coefs.push_back(1.0);
      cap.vars.push_back(var);
      cap.coefs.push_back(weight(rng));
    }
  }
  count.lo = count.hi = 20;
  cap.lo = -lp::kInf;
  cap.hi = 70;
  PAQL_CHECK(ilp.AddRow(std::move(count)).ok());
  PAQL_CHECK(ilp.AddRow(std::move(cap)).ok());

  ilp::BranchAndBoundOptions on_opts, off_opts;
  off_opts.presolve = false;
  auto on_ref = ilp::SolveIlp(ilp, {}, on_opts);
  auto off_ref = ilp::SolveIlp(ilp, {}, off_opts);
  PAQL_CHECK_MSG(on_ref.ok() && off_ref.ok(),
                 "presolve suite ILP did not solve");
  PAQL_CHECK_MSG(std::abs(on_ref->objective - off_ref->objective) <=
                     1e-6 * (1.0 + std::abs(off_ref->objective)),
                 "presolve modes diverged: " << on_ref->objective << " vs "
                                             << off_ref->objective);
  PAQL_CHECK_MSG(on_ref->stats.presolve_fixed_vars > 0,
                 "presolve found nothing to remove");

  double on_s = std::numeric_limits<double>::infinity();
  double off_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    {
      Stopwatch watch;
      auto r = ilp::SolveIlp(ilp, {}, on_opts);
      on_s = std::min(on_s, watch.ElapsedSeconds());
      PAQL_CHECK(r.ok());
    }
    {
      Stopwatch watch;
      auto r = ilp::SolveIlp(ilp, {}, off_opts);
      off_s = std::min(off_s, watch.ElapsedSeconds());
      PAQL_CHECK(r.ok());
    }
  }

  std::vector<MicroMeasurement> entries;
  entries.push_back({"pricing_full_us_per_pivot_1m_cols", full_us_per_pivot});
  entries.push_back(
      {"pricing_partial_us_per_pivot_1m_cols", partial_us_per_pivot});
  entries.push_back({"presolve_off_ilp_us", off_s * 1e6});
  entries.push_back({"presolve_on_ilp_us", on_s * 1e6});
  out_rules->push_back({"pricing_full_vs_partial",
                        "pricing_full_us_per_pivot_1m_cols",
                        "pricing_partial_us_per_pivot_1m_cols"});
  out_rules->push_back(
      {"presolve_on_vs_off", "presolve_off_ilp_us", "presolve_on_ilp_us"});

  TablePrinter printer({"solver path", "us", "speedup"});
  printer.AddRow({entries[0].name, FormatDouble(entries[0].ns_per_row, 2),
                  "1.00"});
  printer.AddRow({entries[1].name, FormatDouble(entries[1].ns_per_row, 2),
                  FormatDouble(full_us_per_pivot / partial_us_per_pivot, 2)});
  printer.AddRow({entries[2].name, FormatDouble(entries[2].ns_per_row, 1),
                  "1.00"});
  printer.AddRow({entries[3].name, FormatDouble(entries[3].ns_per_row, 1),
                  FormatDouble(off_s / on_s, 2)});
  std::cout << "== sparse solver core (" << pricing_rows
            << "-column pricing LP, " << presolve_cols
            << "-column presolve ILP) ==\n";
  printer.Print(std::cout);

  out_entries->insert(out_entries->end(), entries.begin(), entries.end());
}

/// SIMD-kernel suite, the "simd" BENCH_micro.json section: three
/// dispatched kernels measured with SIMD active vs forced onto their
/// scalar fallbacks (the simd::ForceScalar runtime switch — the same
/// binary, the same call sites, only the dispatch flips):
///
///  * predicate scan — the full vectorized WHERE pipeline (compare +
///    compact into selection vectors) over the Galaxy table;
///  * compaction — the branchless CompactCmpConst kernel alone, chunk by
///    chunk, the shape translate/vector_expr feeds it;
///  * FOR decode — block-store scaled-decimal decode (bit unpack +
///    frame-of-reference add + exact int64->double divide) through
///    BlockStoreReader::DecodeBlock on an uncompressed store.
///
/// Every pair is cross-checked for identical results before timing; the
/// section records the active dispatch level so the regression guard only
/// compares files measured at the same level.
void RunSimdMicroSuite(size_t rows, SimdBenchSection* out) {
  out->level = simd::LevelName(simd::ActiveLevel());
  out->rows = rows;
  PAQL_CHECK_MSG(!simd::ScalarForced(),
                 "simd suite started with scalar dispatch forced");
  constexpr int kReps = 5;

  // --- Predicate scan through the vectorized pipeline. ---
  MicroKernels k = MakeMicroKernels(rows);
  const relation::Table& t = *k.table;
  simd::ForceScalar(true);
  size_t scalar_count = CountVectorized(t, k.batch_pred);
  double scan_scalar_ns = BestNsPerRow(rows, kReps, [&] {
    benchmark::DoNotOptimize(CountVectorized(t, k.batch_pred));
  });
  simd::ForceScalar(false);
  size_t simd_count = CountVectorized(t, k.batch_pred);
  double scan_simd_ns = BestNsPerRow(rows, kReps, [&] {
    benchmark::DoNotOptimize(CountVectorized(t, k.batch_pred));
  });
  PAQL_CHECK_MSG(scalar_count == simd_count,
                 "SIMD predicate scan diverged: " << simd_count << " vs "
                                                  << scalar_count);

  // --- The compaction kernel alone, chunk by chunk. ---
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> lane(-20.0, 20.0);
  std::vector<double> lanes(rows);
  for (auto& v : lanes) v = lane(rng);
  // One SIMD group may be written past the returned count (see simd.h).
  std::vector<uint16_t> idx(relation::kChunkSize + 8);
  auto compact_all = [&] {
    size_t n = 0;
    for (size_t start = 0; start < rows; start += relation::kChunkSize) {
      uint32_t len = static_cast<uint32_t>(
          std::min(relation::kChunkSize, rows - start));
      n += simd::CompactCmpConst(lanes.data() + start, len, simd::Cmp::kLe,
                                 0.0, idx.data());
    }
    return n;
  };
  simd::ForceScalar(true);
  size_t compact_scalar = compact_all();
  double compact_scalar_ns =
      BestNsPerRow(rows, kReps, [&] { benchmark::DoNotOptimize(compact_all()); });
  simd::ForceScalar(false);
  size_t compact_simd = compact_all();
  double compact_simd_ns =
      BestNsPerRow(rows, kReps, [&] { benchmark::DoNotOptimize(compact_all()); });
  PAQL_CHECK_MSG(compact_scalar == compact_simd,
                 "SIMD compaction diverged: " << compact_simd << " vs "
                                              << compact_scalar);

  // --- Scaled-decimal FOR decode through the block store. ---
  // Values are exactly i/100, so the writer picks kForDecimal; compression
  // is off so the timed loop is the decode kernels, not the LZ codec.
  const size_t decode_rows = 8 * relation::kBlockRows;
  relation::Table dec{relation::Schema({{"v", relation::DataType::kDouble}})};
  std::uniform_int_distribution<int64_t> cents(-500000, 500000);
  for (size_t r = 0; r < decode_rows; ++r) {
    dec.AppendRowUnchecked(
        {relation::Value(static_cast<double>(cents(rng)) / 100.0)});
  }
  std::string store_path =
      (std::filesystem::temp_directory_path() / "paql_bench_for_decode.pqb")
          .string();
  relation::BlockStoreOptions store_opts;
  store_opts.compress = false;
  PAQL_CHECK(relation::WriteBlockStore(dec, store_path, store_opts).ok());
  auto reader = relation::BlockStoreReader::Open(store_path);
  PAQL_CHECK_MSG(reader.ok(), reader.status());
  for (size_t b = 0; b < (*reader)->num_blocks(); ++b) {
    PAQL_CHECK_MSG(
        (*reader)->meta(0, b).encoding ==
            static_cast<uint8_t>(relation::BlockEncoding::kForDecimal),
        "FOR-decode suite block " << b << " did not encode as kForDecimal");
  }
  auto decode_all = [&] {
    double acc = 0;
    for (size_t b = 0; b < (*reader)->num_blocks(); ++b) {
      auto block = (*reader)->DecodeBlock(0, b);
      PAQL_CHECK_MSG(block.ok(), block.status());
      acc += block->doubles.front() + block->doubles.back();
    }
    return acc;
  };
  // Cross-check: both modes must reproduce the source bit-for-bit.
  for (bool force : {true, false}) {
    simd::ForceScalar(force);
    size_t row = 0;
    for (size_t b = 0; b < (*reader)->num_blocks(); ++b) {
      auto block = (*reader)->DecodeBlock(0, b);
      PAQL_CHECK_MSG(block.ok(), block.status());
      for (double v : block->doubles) {
        PAQL_CHECK_MSG(
            v == dec.GetDouble(static_cast<relation::RowId>(row), 0),
            "FOR decode diverged at row " << row << " (forced_scalar="
                                          << force << ")");
        ++row;
      }
    }
    PAQL_CHECK(row == decode_rows);
  }
  simd::ForceScalar(true);
  double decode_scalar_ns = BestNsPerRow(decode_rows, kReps, [&] {
    benchmark::DoNotOptimize(decode_all());
  });
  simd::ForceScalar(false);
  double decode_simd_ns = BestNsPerRow(decode_rows, kReps, [&] {
    benchmark::DoNotOptimize(decode_all());
  });
  reader->reset();
  std::remove(store_path.c_str());

  out->entries.push_back({"predicate_scan_forced_scalar", scan_scalar_ns});
  out->entries.push_back({"predicate_scan_simd", scan_simd_ns});
  out->entries.push_back({"compaction_forced_scalar", compact_scalar_ns});
  out->entries.push_back({"compaction_simd", compact_simd_ns});
  out->entries.push_back({"for_decode_forced_scalar", decode_scalar_ns});
  out->entries.push_back({"for_decode_simd", decode_simd_ns});
  out->rules.push_back({"simd_predicate_scan", "predicate_scan_forced_scalar",
                        "predicate_scan_simd"});
  out->rules.push_back(
      {"simd_compaction", "compaction_forced_scalar", "compaction_simd"});
  out->rules.push_back(
      {"simd_for_decode", "for_decode_forced_scalar", "for_decode_simd"});

  TablePrinter printer({"kernel", "ns/row", "speedup"});
  printer.AddRow({out->entries[0].name,
                  FormatDouble(scan_scalar_ns, 2), "1.00"});
  printer.AddRow({out->entries[1].name, FormatDouble(scan_simd_ns, 2),
                  FormatDouble(scan_scalar_ns / scan_simd_ns, 2)});
  printer.AddRow({out->entries[2].name,
                  FormatDouble(compact_scalar_ns, 2), "1.00"});
  printer.AddRow({out->entries[3].name, FormatDouble(compact_simd_ns, 2),
                  FormatDouble(compact_scalar_ns / compact_simd_ns, 2)});
  printer.AddRow({out->entries[4].name,
                  FormatDouble(decode_scalar_ns, 2), "1.00"});
  printer.AddRow({out->entries[5].name, FormatDouble(decode_simd_ns, 2),
                  FormatDouble(decode_scalar_ns / decode_simd_ns, 2)});
  std::cout << "== forced-scalar vs SIMD kernels (level " << out->level
            << ", " << rows << " scan rows, " << decode_rows
            << " decode rows) ==\n";
  printer.Print(std::cout);
}

/// CRC-32 suite, the "crc32" BENCH_micro.json section: checksum
/// throughput over 128 KiB buffers (the size of a decoded double block,
/// the order of a stored one) with the dispatched kernel vs forced onto
/// the slicing-by-8 fallback. Both modes must agree on every checksum.
void RunCrc32MicroSuite(Crc32BenchSection* out) {
  PAQL_CHECK_MSG(!simd::ScalarForced(),
                 "crc32 suite started with scalar dispatch forced");
  constexpr size_t kBufferBytes = 128 * 1024;
  constexpr int kBuffers = 64;  // 8 MiB per pass, past the L2
  constexpr int kReps = 7;
  std::mt19937_64 rng(20261018);
  std::vector<unsigned char> bytes(kBufferBytes * kBuffers);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  auto checksum_all = [&] {
    uint32_t acc = 0;
    for (int b = 0; b < kBuffers; ++b) {
      acc ^= Crc32(bytes.data() + b * kBufferBytes, kBufferBytes);
    }
    return acc;
  };
  auto mb_per_s = [&] {
    const double ns_per_byte = BestNsPerRow(bytes.size(), kReps, [&] {
      benchmark::DoNotOptimize(checksum_all());
    });
    return 1e3 / ns_per_byte;
  };
  simd::ForceScalar(true);
  const uint32_t scalar_sum = checksum_all();
  out->forced_scalar_mb_per_s = mb_per_s();
  simd::ForceScalar(false);
  const uint32_t dispatched_sum = checksum_all();
  out->dispatched_mb_per_s = mb_per_s();
  PAQL_CHECK_MSG(scalar_sum == dispatched_sum,
                 "CRC-32 kernels diverged: " << dispatched_sum << " vs "
                                             << scalar_sum);
  out->kernel = simd::CrcKernelName(simd::ActiveCrcKernel());
  out->buffer_bytes = kBufferBytes;

  TablePrinter printer({"crc32 kernel", "MB/s", "speedup"});
  printer.AddRow({"slice8 (forced scalar)",
                  FormatDouble(out->forced_scalar_mb_per_s, 5), "1.00"});
  printer.AddRow({out->kernel + " (dispatched)",
                  FormatDouble(out->dispatched_mb_per_s, 5),
                  FormatDouble(out->dispatched_mb_per_s /
                                   out->forced_scalar_mb_per_s,
                               3)});
  std::cout << "== CRC-32 over " << kBufferBytes / 1024
            << " KiB buffers ==\n";
  printer.Print(std::cout);
}

/// Dual-pricing suite, the "dse_pricing" BENCH_micro.json section: warm
/// node re-solves on a boxed knapsack LP — overload the capacity by fixing
/// a batch of columns to 1, re-optimize from the root basis with the dual
/// simplex — under steepest-edge pricing + bound-flipping (the default)
/// vs the most-violated-row baseline (the kill switch). Objectives are
/// cross-checked every step; the recorded pivot counts are deterministic
/// for the fixed model, so their ratio transfers across machines (the
/// wall-clock entries join the solver section like every other timing).
void RunDsePricingMicroSuite(std::vector<MicroMeasurement>* out_entries,
                             std::vector<SpeedupRule>* out_rules,
                             DsePricingSection* out) {
  constexpr int kCols = 400;
  constexpr int kResolves = 40;
  constexpr int kFixPerResolve = 30;
  Deadline deadline(120.0);
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> value(1.0, 10.0), weight(1.0, 5.0);
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  lp::RowDef cap;
  for (int j = 0; j < kCols; ++j) {
    m.AddVariable(0, 1, value(rng), false);
    cap.vars.push_back(j);
    cap.coefs.push_back(weight(rng));
  }
  // Loose enough that any kFixPerResolve columns fit (max weight 5 each),
  // tight enough that the root solution saturates it — so every re-solve
  // overloads the capacity and runs the dual phase.
  cap.lo = -lp::kInf;
  cap.hi = static_cast<double>(kCols) / 2.0;
  PAQL_CHECK(m.AddRow(std::move(cap)).ok());

  lp::SimplexOptions dse_opts, base_opts;
  base_opts.dual_steepest_edge = false;

  // One full re-solve sweep; returns seconds and accumulates counters and
  // per-step objectives (the cross-check between the two modes).
  auto sweep = [&](const lp::SimplexOptions& opts, int64_t* pivots,
                   int64_t* flips, int64_t* dse_pivots,
                   std::vector<double>* objectives) {
    lp::SimplexSolver solver(m, opts);
    PAQL_CHECK(solver.Solve(deadline).status == lp::LpStatus::kOptimal);
    lp::Basis root = solver.SnapshotBasis();
    Stopwatch watch;
    for (int i = 0; i < kResolves; ++i) {
      solver.RestoreBasis(root);
      for (int f = 0; f < kFixPerResolve; ++f) {
        solver.SetVarBounds((i * 131 + f * 17) % kCols, 1, 1);
      }
      lp::LpResult r = solver.Solve(deadline);
      PAQL_CHECK_MSG(r.status == lp::LpStatus::kOptimal,
                     "dse suite re-solve " << i << " not optimal");
      *pivots += r.iterations;
      *flips += r.bound_flips;
      *dse_pivots += r.dse_pivots;
      objectives->push_back(r.objective);
      for (int f = 0; f < kFixPerResolve; ++f) {
        solver.SetVarBounds((i * 131 + f * 17) % kCols, 0, 1);
      }
    }
    return watch.ElapsedSeconds();
  };

  constexpr int kReps = 3;
  double dse_s = std::numeric_limits<double>::infinity();
  double base_s = std::numeric_limits<double>::infinity();
  int64_t dse_total_pivots = 0, base_total_pivots = 0;
  int64_t dse_flips = 0, dse_dse_pivots = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    int64_t pivots = 0, flips = 0, dse_count = 0;
    std::vector<double> dse_obj, base_obj;
    dse_s = std::min(dse_s, sweep(dse_opts, &pivots, &flips, &dse_count,
                                  &dse_obj));
    if (rep == 0) {
      dse_total_pivots = pivots;
      dse_flips = flips;
      dse_dse_pivots = dse_count;
    }
    pivots = 0;
    int64_t base_flips = 0, base_dse = 0;
    base_s = std::min(base_s, sweep(base_opts, &pivots, &base_flips,
                                    &base_dse, &base_obj));
    if (rep == 0) base_total_pivots = pivots;
    // The kill switch must actually kill, and the answers must agree.
    PAQL_CHECK_MSG(base_flips == 0 && base_dse == 0,
                   "baseline mode used DSE machinery");
    PAQL_CHECK(dse_obj.size() == base_obj.size());
    for (size_t i = 0; i < dse_obj.size(); ++i) {
      PAQL_CHECK_MSG(std::abs(dse_obj[i] - base_obj[i]) <=
                         1e-7 * (1.0 + std::abs(base_obj[i])),
                     "dual pricing modes diverged at re-solve "
                         << i << ": " << dse_obj[i] << " vs " << base_obj[i]);
    }
  }
  PAQL_CHECK_MSG(dse_flips > 0, "long-step ratio test never flipped a bound");
  PAQL_CHECK_MSG(dse_dse_pivots > 0, "steepest-edge weights never engaged");

  out->resolves = kResolves;
  out->baseline_pivots = base_total_pivots;
  out->dse_pivots = dse_total_pivots;
  out->bound_flips = dse_flips;
  out->pivot_ratio = static_cast<double>(base_total_pivots) /
                     static_cast<double>(std::max<int64_t>(1, dse_total_pivots));

  auto us_per = [](double seconds) { return seconds * 1e6 / kResolves; };
  out_entries->push_back({"knapsack_resolve_baseline_us", us_per(base_s)});
  out_entries->push_back({"knapsack_resolve_dse_us", us_per(dse_s)});
  out_rules->push_back({"dse_pricing", "knapsack_resolve_baseline_us",
                        "knapsack_resolve_dse_us"});

  TablePrinter printer({"dual pricing", "us/solve", "pivots", "flips"});
  printer.AddRow({"most_violated_row", FormatDouble(us_per(base_s), 1),
                  StrCat(base_total_pivots), "0"});
  printer.AddRow({"steepest_edge+flips", FormatDouble(us_per(dse_s), 1),
                  StrCat(dse_total_pivots), StrCat(dse_flips)});
  std::cout << "== dual pricing on warm knapsack re-solves (" << kCols
            << " columns, " << kResolves << " re-solves x " << kFixPerResolve
            << " fixed) ==\n";
  printer.Print(std::cout);
}

/// Morsel-parallel suite, the fourth BENCH_micro.json section:
///
///  * parallel scan — the 1M-row predicate scan (the same kernel as the
///    vectorized suite) at 1 worker vs `kWorkers`, through
///    FilterTableVectorized's morsel-parallel path; results are asserted
///    bit-identical before timing;
///  * parallel branch-and-bound — a >= 1k-node knapsack search
///    (cardinality + tight capacity, near-tied value/weight ratios) at
///    threads = 1 (the exact serial search) vs threads = kWorkers (the
///    shared-deque concurrent search); objectives are asserted equal.
///
/// The speedups are recorded in their own "parallel" JSON section carrying
/// the worker count and the machine's hardware threads: unlike the solver
/// ratios, these numbers scale with the core count (a single-core
/// container measures ~1x — the workers timeslice), so the regression
/// guard only compares files whose hardware matches.
void RunParallelMicroSuite(size_t scan_rows, ParallelBenchSection* out) {
  constexpr int kWorkers = 4;
  out->workers = kWorkers;
  out->hardware_threads = HardwareThreads();
  out->scan_rows = scan_rows;

  // --- Parallel scan over the shared Galaxy table. ---
  MicroKernels k = MakeMicroKernels(scan_rows);
  const relation::Table& t = *k.table;
  std::vector<relation::RowId> serial_rows =
      translate::FilterTableVectorized(t, k.batch_pred, 1);
  std::vector<relation::RowId> parallel_rows =
      translate::FilterTableVectorized(t, k.batch_pred, kWorkers);
  PAQL_CHECK_MSG(serial_rows == parallel_rows,
                 "parallel scan diverged: " << serial_rows.size() << " vs "
                                            << parallel_rows.size()
                                            << " surviving rows");
  constexpr int kReps = 5;
  double scan_serial_ns = BestNsPerRow(scan_rows, kReps, [&] {
    benchmark::DoNotOptimize(translate::FilterTableVectorized(t, k.batch_pred, 1));
  });
  double scan_parallel_ns = BestNsPerRow(scan_rows, kReps, [&] {
    benchmark::DoNotOptimize(
        translate::FilterTableVectorized(t, k.batch_pred, kWorkers));
  });

  // --- Parallel branch-and-bound over a >= 1k-node knapsack. ---
  // Near-tied value/weight ratios around a tight capacity keep the LP
  // bound uninformative, so the search has to branch deep; the heuristics
  // are off so the tree (and the serial/parallel work) stays the search
  // itself.
  std::mt19937_64 rng(20260727);
  std::uniform_real_distribution<double> weight(1.0, 5.0);
  std::uniform_real_distribution<double> jitter(0.95, 1.05);
  lp::Model knapsack;
  knapsack.set_sense(lp::Sense::kMaximize);
  lp::RowDef count, cap;
  constexpr int kCols = 120;
  constexpr int kPick = 12;
  double total_weight = 0;
  for (int j = 0; j < kCols; ++j) {
    double w = weight(rng);
    int var = knapsack.AddVariable(0, 1, w * jitter(rng), true);
    count.vars.push_back(var);
    count.coefs.push_back(1.0);
    cap.vars.push_back(var);
    cap.coefs.push_back(w);
    total_weight += w;
  }
  count.lo = count.hi = kPick;
  cap.lo = -lp::kInf;
  cap.hi = total_weight * kPick / (2.0 * kCols);
  PAQL_CHECK(knapsack.AddRow(std::move(count)).ok());
  PAQL_CHECK(knapsack.AddRow(std::move(cap)).ok());

  ilp::BranchAndBoundOptions serial_opts, parallel_opts;
  serial_opts.enable_rounding_heuristic = false;
  serial_opts.enable_diving_heuristic = false;
  parallel_opts = serial_opts;
  serial_opts.threads = 1;
  parallel_opts.threads = kWorkers;

  auto serial_ref = ilp::SolveIlp(knapsack, {}, serial_opts);
  auto parallel_ref = ilp::SolveIlp(knapsack, {}, parallel_opts);
  PAQL_CHECK_MSG(serial_ref.ok() && parallel_ref.ok(),
                 "parallel B&B suite did not solve");
  PAQL_CHECK_MSG(std::abs(serial_ref->objective - parallel_ref->objective) <=
                     1e-7 * (1.0 + std::abs(serial_ref->objective)),
                 "parallel B&B diverged: " << serial_ref->objective << " vs "
                                           << parallel_ref->objective);
  PAQL_CHECK_MSG(serial_ref->stats.nodes >= 1000,
                 "B&B suite explored only " << serial_ref->stats.nodes
                                            << " nodes; not a real search");
  PAQL_CHECK_MSG(parallel_ref->stats.parallel_nodes > 0,
                 "the concurrent searcher never engaged");
  out->bnb_nodes = serial_ref->stats.nodes;

  constexpr int kBnbReps = 3;
  double bnb_serial_s = std::numeric_limits<double>::infinity();
  double bnb_parallel_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kBnbReps; ++rep) {
    {
      Stopwatch watch;
      auto r = ilp::SolveIlp(knapsack, {}, serial_opts);
      bnb_serial_s = std::min(bnb_serial_s, watch.ElapsedSeconds());
      PAQL_CHECK(r.ok());
    }
    {
      Stopwatch watch;
      auto r = ilp::SolveIlp(knapsack, {}, parallel_opts);
      bnb_parallel_s = std::min(bnb_parallel_s, watch.ElapsedSeconds());
      PAQL_CHECK(r.ok());
    }
  }

  out->entries.push_back({"parallel_scan_serial_ns_per_row", scan_serial_ns});
  out->entries.push_back({"parallel_scan_4w_ns_per_row", scan_parallel_ns});
  out->entries.push_back({"parallel_bnb_serial_us", bnb_serial_s * 1e6});
  out->entries.push_back({"parallel_bnb_4w_us", bnb_parallel_s * 1e6});
  out->speedups.push_back(
      {"parallel_scan_1_vs_N", scan_serial_ns / scan_parallel_ns});
  out->speedups.push_back(
      {"parallel_bnb_1_vs_N", bnb_serial_s / bnb_parallel_s});

  TablePrinter printer({"parallel path", "value", "speedup"});
  printer.AddRow({out->entries[0].name,
                  FormatDouble(out->entries[0].ns_per_row, 2), "1.00"});
  printer.AddRow({out->entries[1].name,
                  FormatDouble(out->entries[1].ns_per_row, 2),
                  FormatDouble(out->speedups[0].factor, 2)});
  printer.AddRow({out->entries[2].name,
                  FormatDouble(out->entries[2].ns_per_row, 1), "1.00"});
  printer.AddRow({out->entries[3].name,
                  FormatDouble(out->entries[3].ns_per_row, 1),
                  FormatDouble(out->speedups[1].factor, 2)});
  std::cout << "== serial vs morsel-parallel (x" << kWorkers << " workers, "
            << out->hardware_threads << " hardware threads, " << scan_rows
            << "-row scan, " << out->bnb_nodes << "-node B&B) ==\n";
  printer.Print(std::cout);
}

}  // namespace paql::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  paql::bench::BenchConfig config = paql::bench::ParseBenchArgs(argc, argv);
  // The paper-trajectory suites run first so every invocation — including
  // `--benchmark_filter=none` smoke runs — refreshes BENCH_micro.json.
  std::vector<paql::bench::MicroMeasurement> entries, solver_entries;
  std::vector<paql::bench::SpeedupRule> rules;
  size_t pipeline_rows = config.quick ? 200000 : 1000000;
  size_t solver_rows = config.quick ? 8000 : 20000;
  // The pricing LP keeps its 1M columns even under --quick: the per-pivot
  // metric is the acceptance number and the LP solves in well under a
  // second either way; only the presolve ILP shrinks.
  size_t pricing_rows = 1000000;
  size_t presolve_cols = config.quick ? 20000 : 60000;
  paql::bench::RunVectorizedMicroSuite(pipeline_rows, &entries, &rules);
  paql::bench::RunWarmStartMicroSuite(solver_rows, &solver_entries, &rules);
  paql::bench::RunSparseSolverMicroSuite(pricing_rows, presolve_cols,
                                         &solver_entries, &rules);
  // The SIMD suite keeps the full 1M-row scan even under --quick: the
  // forced-scalar-vs-SIMD ratio is the acceptance number (>= 1.5x for the
  // predicate scan on AVX2) and only amortizes at scale.
  paql::bench::SimdBenchSection simd_section;
  paql::bench::RunSimdMicroSuite(1000000, &simd_section);
  paql::bench::DsePricingSection dse_section;
  paql::bench::RunDsePricingMicroSuite(&solver_entries, &rules, &dse_section);
  paql::bench::Crc32BenchSection crc32_section;
  paql::bench::RunCrc32MicroSuite(&crc32_section);
  // The parallel scan keeps its 1M rows even under --quick, like the
  // pricing LP: the 1-vs-N ratio is the acceptance number and morsel
  // overheads only amortize at scale.
  paql::bench::ParallelBenchSection parallel;
  paql::bench::RunParallelMicroSuite(1000000, &parallel);
  // Fixed sizes under --quick too: the growth between them is the number.
  paql::bench::CutSeparationSection cut_section;
  paql::bench::RunCutSeparationMicroSuite(&cut_section);
  paql::Status written = paql::bench::WriteBenchMicroJson(
      "BENCH_micro.json", pipeline_rows, entries, rules, solver_entries,
      solver_rows, &parallel, &simd_section, &dse_section, &crc32_section,
      &cut_section);
  PAQL_CHECK_MSG(written.ok(), written);
  std::cout << "wrote BENCH_micro.json\n\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
