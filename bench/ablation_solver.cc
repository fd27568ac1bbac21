// Ablation: branch-and-bound configuration (the built-in solver that
// replaces the paper's black-box CPLEX).
//
// DESIGN.md calls out the solver design choices this repo made in place of
// CPLEX: branching rule, the root rounding heuristic, and the diving
// heuristic. This bench quantifies each choice on the Galaxy workload by
// comparing nodes explored, LP pivots, and wall time across
// configurations. The workload's hard queries (tight two-sided windows)
// are where the choices matter; easy queries solve at the root under any
// configuration.
#include "bench/bench_common.h"

namespace paql::bench {
namespace {

struct Config {
  std::string name;
  ilp::BranchAndBoundOptions options;
};

int Run(int argc, char** argv) {
  BenchConfig config = ParseBenchArgs(argc, argv);
  // Smaller table than the scalability benches: hard instances explode the
  // node count by design, and this bench runs several configurations.
  const size_t rows = config.galaxy_rows() / 4;
  std::cout << "Ablation: branch-and-bound configuration\n"
            << "(" << rows << " Galaxy rows; per-config totals over the "
            << "7-query workload)\n\n";

  relation::Table galaxy = workload::MakeGalaxyTable(rows);
  auto queries = workload::MakeGalaxyQueries(galaxy);
  PAQL_CHECK_MSG(queries.ok(), queries.status().ToString());
  ilp::SolverLimits limits = config.solver_limits();

  std::vector<Config> configs;
  {
    Config base;
    base.name = "default (most-fractional + heuristics)";
    base.options.gap_tol = kCplexDefaultGap;
    configs.push_back(base);
    Config pseudo = base;
    pseudo.name = "pseudo-cost branching";
    pseudo.options.branch_rule = ilp::BranchRule::kPseudoCost;
    configs.push_back(pseudo);
    Config first = base;
    first.name = "first-fractional branching";
    first.options.branch_rule = ilp::BranchRule::kFirstFractional;
    configs.push_back(first);
    Config no_dive = base;
    no_dive.name = "no diving heuristic";
    no_dive.options.enable_diving_heuristic = false;
    configs.push_back(no_dive);
    Config no_round = base;
    no_round.name = "no rounding heuristic";
    no_round.options.enable_rounding_heuristic = false;
    configs.push_back(no_round);
    Config bare = base;
    bare.name = "no heuristics";
    bare.options.enable_diving_heuristic = false;
    bare.options.enable_rounding_heuristic = false;
    configs.push_back(bare);
    Config no_cuts = base;
    no_cuts.name = "no root cuts";
    no_cuts.options.cuts.enable = false;
    configs.push_back(no_cuts);
    Config cover_only = base;
    cover_only.name = "cover cuts only";
    cover_only.options.cuts.cg_cuts = false;
    configs.push_back(cover_only);
    Config cg_only = base;
    cg_only.name = "CG cuts only";
    cg_only.options.cuts.cover_cuts = false;
    configs.push_back(cg_only);
  }

  TablePrinter tp({"Configuration", "Solved", "Nodes", "LP pivots",
                   "Time (s)"});
  for (const Config& c : configs) {
    int solved = 0;
    int64_t nodes = 0, pivots = 0;
    double seconds = 0;
    for (const auto& bq : *queries) {
      translate::CompiledQuery cq = MustCompileBench(bq, galaxy);
      engine::ExecContext dopts;
      dopts.limits = limits;
      dopts.branch_and_bound = c.options;
      core::DirectEvaluator direct(galaxy, dopts);
      Stopwatch watch;
      auto r = direct.Evaluate(cq);
      seconds += watch.ElapsedSeconds();
      if (r.ok()) {
        ++solved;
        nodes += r->stats.bnb_nodes;
        pivots += r->stats.lp_iterations;
      }
    }
    tp.AddRow({c.name, StrCat(solved, "/", queries->size()),
               std::to_string(nodes), std::to_string(pivots),
               FormatDouble(seconds, 2)});
  }
  tp.Print(std::cout);
  std::cout << "\nExpected shape: the heuristics prune by supplying early\n"
               "incumbents (removing either inflates nodes on hard\n"
               "queries); pseudo-cost branching pays off as node counts\n"
               "grow; first-fractional is the weakest rule; root cuts\n"
               "(cover + 1/2-CG) trim nodes on budget-constrained queries\n"
               "at a small root-LP cost. All configurations that finish\n"
               "agree on the objective.\n";
  return 0;
}

}  // namespace
}  // namespace paql::bench

int main(int argc, char** argv) { return paql::bench::Run(argc, argv); }
