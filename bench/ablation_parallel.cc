// Ablation: parallel SKETCHREFINE (paper Section 4.5, "Parallelizing
// SketchRefine").
//
// The paper leaves parallelization as future work but predicts the
// trade-off: refining groups in parallel makes local decisions that "are
// more likely to reach infeasibility, requiring costly backtracking",
// while parallelizing over group *orderings* spends cores on robustness.
// This bench sweeps both modes over 1/2/4/8 threads on the Galaxy
// workload and reports response time, approximation ratio vs DIRECT, and
// how often the speculative group-parallel pass had to fall back to the
// sequential algorithm.
#include "bench/bench_common.h"
#include "core/parallel.h"

namespace paql::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = ParseBenchArgs(argc, argv);
  const size_t rows = config.galaxy_rows();
  std::cout << "Ablation: parallel SKETCHREFINE on the Galaxy workload\n"
            << "(" << rows << " rows; tau = 10%; modes x threads)\n\n";

  relation::Table galaxy = workload::MakeGalaxyTable(rows);
  auto queries = workload::MakeGalaxyQueries(galaxy);
  PAQL_CHECK_MSG(queries.ok(), queries.status().ToString());
  std::vector<std::string> attrs = workload::WorkloadAttributes(*queries);
  partition::PartitionOptions popts;
  popts.attributes = attrs;
  popts.size_threshold = rows / 10 + 1;
  auto partitioning = partition::PartitionTable(galaxy, popts);
  PAQL_CHECK_MSG(partitioning.ok(), partitioning.status().ToString());
  ilp::SolverLimits limits = config.solver_limits();

  std::vector<translate::CompiledQuery> compiled;
  std::vector<RunCell> direct_cells;
  for (const auto& bq : *queries) {
    compiled.push_back(MustCompileBench(bq, galaxy));
    direct_cells.push_back(RunDirect(galaxy, compiled.back(), limits));
  }

  // Sequential baseline row: plain SKETCHREFINE, whose scans and
  // branch-and-bound run on ExecContext::threads workers (all cores).
  TablePrinter tp({"Mode", "Threads", "Mean time (s)", "Mean ratio",
                   "Solved", "Fallbacks"});
  {
    double total = 0, ratio_sum = 0;
    int solved = 0, with_ratio = 0;
    for (size_t q = 0; q < compiled.size(); ++q) {
      RunCell cell =
          RunSketchRefine(galaxy, *partitioning, compiled[q], limits);
      if (!cell.ok) continue;
      ++solved;
      total += cell.seconds;
      if (direct_cells[q].ok) {
        ratio_sum += compiled[q].maximize()
                         ? direct_cells[q].objective / cell.objective
                         : cell.objective / direct_cells[q].objective;
        ++with_ratio;
      }
    }
    tp.AddRow({"sequential",
               std::to_string(core::SketchRefineOptions().EffectiveThreads()),
               solved ? FormatDouble(total / solved, 3) : "--",
               with_ratio ? FormatDouble(ratio_sum / with_ratio, 3) : "--",
               StrCat(solved, "/", compiled.size()), "--"});
  }

  for (core::ParallelMode mode : {core::ParallelMode::kGroupParallel,
                                  core::ParallelMode::kOrderingRace}) {
    for (int threads : {2, 4, 8}) {
      core::ParallelOptions par;
      par.mode = mode;
      par.num_threads = threads;
      par.sketch_refine.limits = limits;
      par.sketch_refine.branch_and_bound.gap_tol = kCplexDefaultGap;
      core::ParallelSketchRefineEvaluator evaluator(galaxy, *partitioning,
                                                    par);
      double total = 0, ratio_sum = 0;
      int solved = 0, with_ratio = 0, fallbacks = 0;
      for (size_t q = 0; q < compiled.size(); ++q) {
        Stopwatch watch;
        auto r = evaluator.Evaluate(compiled[q]);
        if (!r.ok()) continue;
        ++solved;
        total += watch.ElapsedSeconds();
        if (r->stats.parallel_fallback) ++fallbacks;
        if (direct_cells[q].ok) {
          ratio_sum += compiled[q].maximize()
                           ? direct_cells[q].objective / r->objective
                           : r->objective / direct_cells[q].objective;
          ++with_ratio;
        }
      }
      tp.AddRow({core::ParallelModeName(mode), std::to_string(threads),
                 solved ? FormatDouble(total / solved, 3) : "--",
                 with_ratio ? FormatDouble(ratio_sum / with_ratio, 3) : "--",
                 StrCat(solved, "/", compiled.size()),
                 std::to_string(fallbacks)});
    }
  }
  tp.Print(std::cout);
  std::cout << "\nExpected shape: group-parallel speeds up refinement when\n"
               "speculation holds and falls back (paper's predicted\n"
               "failure mode) on tight constraints; the ordering race adds\n"
               "robustness with little quality change. Ratios stay near\n"
               "the sequential algorithm's in all modes.\n";
  return 0;
}

}  // namespace
}  // namespace paql::bench

int main(int argc, char** argv) { return paql::bench::Run(argc, argv); }
