// Branch-and-bound ILP solver over the simplex LP relaxation.
//
// This is the from-scratch replacement for the paper's black-box ILP solver
// (CPLEX). Search is depth-first with most-fractional branching, nearest
// child first, incumbent pruning, a root rounding heuristic, and a diving
// heuristic; every node LP warm-starts from its parent's basis.
#ifndef PAQL_ILP_BRANCH_AND_BOUND_H_
#define PAQL_ILP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ilp/cuts.h"
#include "ilp/solver_limits.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace paql::ilp {

/// Statistics from one ILP solve.
struct IlpStats {
  int64_t nodes = 0;           // branch-and-bound nodes explored
  int64_t lp_iterations = 0;   // total simplex pivots
  int64_t max_depth = 0;       // deepest node
  double wall_seconds = 0;
  size_t peak_memory_bytes = 0;  // per the SolverLimits accounting model
  double root_bound = 0;         // LP relaxation objective at the root
  bool proven_optimal = false;
  int64_t cuts_added = 0;   // root cutting planes appended (cut-and-branch)
  int64_t cut_rounds = 0;   // separate-resolve rounds that produced cuts
  /// Wall time of the root cut loop: separation plus the re-solves of the
  /// augmented root LP (zero when cuts are off or the model has no rows).
  double root_cut_seconds = 0;
  /// Node LP solves that re-optimized from a warm basis with the dual
  /// simplex instead of a from-scratch primal solve.
  int64_t warm_lp_solves = 0;
  /// Primal pivots whose entering variable came straight from the simplex
  /// pricing candidate list (zero when partial pricing is off).
  int64_t pricing_candidate_hits = 0;
  /// Boxed nonbasic columns flipped by the simplex's bound-flipping dual
  /// ratio test across all node LP solves (zero when
  /// SimplexOptions::dual_steepest_edge is off).
  int64_t bound_flips = 0;
  /// Dual pivots whose leaving row was chosen by the steepest-edge weights
  /// across all node LP solves (zero when dual_steepest_edge is off).
  int64_t dse_pivots = 0;
  /// Integer variables permanently fixed by root reduced-cost fixing: the
  /// root LP's reduced cost proves they cannot leave their bound in any
  /// solution better than the incumbent, so every child LP shrinks.
  int64_t rc_fixed_vars = 0;
  /// Columns removed (fixed) and rows dropped by the presolve pass before
  /// the search started (zero when presolve is off or found nothing).
  int64_t presolve_fixed_vars = 0;
  int64_t presolve_dropped_rows = 0;
  /// Nodes explored by a search that ran on more than one worker; zero
  /// when one worker searched — the observable that says whether the
  /// workers actually shared the tree.
  int64_t parallel_nodes = 0;

  /// Adds one LP solve's simplex counters: pivots, pricing-candidate hits,
  /// bound flips, DSE pivots and, when it re-optimized from a warm basis,
  /// one warm solve.
  void AddLp(const lp::LpResult& lp) {
    lp_iterations += lp.iterations;
    pricing_candidate_hits += lp.pricing_candidate_hits;
    bound_flips += lp.bound_flips;
    dse_pivots += lp.dse_pivots;
    if (lp.used_dual) ++warm_lp_solves;
  }

  /// Adds the simplex counters (the five AddLp fills) of another
  /// accumulator.
  void AddLpCounters(const IlpStats& other) {
    lp_iterations += other.lp_iterations;
    pricing_candidate_hits += other.pricing_candidate_hits;
    bound_flips += other.bound_flips;
    dse_pivots += other.dse_pivots;
    warm_lp_solves += other.warm_lp_solves;
  }
};

/// A feasible (and, when stats.proven_optimal, optimal) integer solution.
struct IlpSolution {
  std::vector<double> x;
  double objective = 0;
  IlpStats stats;
};

struct BranchAndBoundOptions {
  double integrality_tol = 1e-6;
  /// Relative optimality gap at which search stops early.
  double gap_tol = 1e-9;
  bool enable_rounding_heuristic = true;
  bool enable_diving_heuristic = true;
  int dive_max_depth = 64;
  /// Warm-start every node LP from its parent's basis (dual-simplex
  /// re-optimization after the one-variable bound change) and accept a
  /// caller-provided root basis via IlpWarmStart. false = every node LP is
  /// a cold primal solve (the A/B baseline; results are identical either
  /// way, only pivot counts change).
  bool warm_start = true;
  /// Presolve the model before the search (lp/presolve.h): tighten bounds,
  /// fix forced/empty columns, drop implied rows, and postsolve the
  /// solution back to the full variable vector. Never changes the answer,
  /// only the model size. false = solve the model as given (the A/B
  /// baseline).
  bool presolve = true;
  /// Permanently fix integer variables whose root-LP reduced cost proves
  /// they cannot leave their bound within the incumbent gap (every child
  /// LP shrinks). Never changes the answer: a flip would land the node
  /// past the incumbent cutoff, exactly where search pruning stops anyway.
  bool reduced_cost_fixing = true;
  lp::SimplexOptions simplex;
  /// Root cutting planes (cut-and-branch). Valid cuts never change the
  /// optimum; they tighten the relaxation before the search starts.
  CutOptions cuts;
  /// Worker threads for the branch-and-bound search (0 = hardware
  /// concurrency). There is one search: the root (solve, rounding, dive,
  /// reduced-cost fixing) runs on the calling thread, then workers drain a
  /// shared deque of frames depth-first, each with its own simplex solver,
  /// re-optimizing from its frame's parent basis when warm_start is on and
  /// pruning against a shared incumbent. One worker drains the deque on
  /// the calling thread with the root solver (no pool, no extra thread).
  /// More workers engage only past a model-size floor of 64 integer
  /// columns (tiny trees cost more to share than to solve); no option
  /// falls back to a separate serial search. The optimum found is the
  /// same at any worker count; only which equally-optimal solution is
  /// returned may differ with the interleaving.
  int threads = 1;
};

/// Cross-solve warm-start state: the basis of the previous solve's root LP.
/// Pass the same instance to consecutive SolveIlp calls over models that
/// share a column set (e.g. the refine loop re-solving one group under
/// shifted bounds): each solve seeds its root LP from the stored basis when
/// the dimensions match (silently cold-starting otherwise) and overwrites
/// it with its own root basis on the way out.
struct IlpWarmStart {
  lp::Basis root_basis;
  /// true (the refine-loop/top-k contract): consecutive solves share one
  /// column set whose bounds keep shifting, so presolve — whose reductions
  /// would reshape the model differently per call — is skipped in favor of
  /// basis reuse. false (the cross-query cache contract): each call is the
  /// *identical* model, presolve runs as usual (its reductions are
  /// deterministic, so the stored basis matches the reduced model of the
  /// next identical solve), and the basis is restored/deposited on the
  /// reduced-model search.
  bool chain = true;
};

/// Solve `model` to integer optimality under `limits`.
///
/// Returns:
///  * IlpSolution on success;
///  * kInfeasible when the ILP has no feasible assignment;
///  * kUnbounded when the relaxation is unbounded;
///  * kResourceExhausted when a time/node/memory budget was exceeded before
///    an optimal solution was proven (the CPLEX-failure emulation — the
///    evaluators treat this as "the solver failed").
///
/// `warm` (optional) carries the root basis across consecutive solves; it
/// is only consulted when options.warm_start is on.
///
/// `stats_out` (optional) receives the search statistics on every outcome,
/// including kInfeasible and kResourceExhausted — the work the solver
/// performed before concluding is real even when there is no solution to
/// attach it to (incremental re-evaluation reports the abandoned
/// subproblem's effort this way). On success it equals the returned
/// solution's stats.
Result<IlpSolution> SolveIlp(const lp::Model& model,
                             const SolverLimits& limits = {},
                             const BranchAndBoundOptions& options = {},
                             IlpWarmStart* warm = nullptr,
                             IlpStats* stats_out = nullptr);

/// Solve only the LP relaxation (used by tests and diagnostics).
lp::LpResult SolveLpRelaxation(const lp::Model& model,
                               double time_limit_s = 0);

}  // namespace paql::ilp

#endif  // PAQL_ILP_BRANCH_AND_BOUND_H_
