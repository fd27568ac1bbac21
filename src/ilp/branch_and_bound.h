// Branch-and-bound ILP solver over the simplex LP relaxation.
//
// This is the from-scratch replacement for the paper's black-box ILP solver
// (CPLEX). Search is depth-first with best-first child ordering, incumbent
// pruning, a root rounding heuristic, and a diving heuristic; all LP solves
// warm-start from the parent basis through SimplexSolver::SetVarBounds.
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
  /// Nodes explored by the concurrent (threads > 1) search; zero when the
  /// serial depth-first search ran — the observable that says whether the
  /// shared-deque machinery actually engaged.
  int64_t parallel_nodes = 0;
};

/// A feasible (and, when stats.proven_optimal, optimal) integer solution.
struct IlpSolution {
  std::vector<double> x;
  double objective = 0;
  IlpStats stats;
};

/// Which fractional variable a node branches on.
enum class BranchRule {
  /// Most-fractional ("maximum infeasibility"): the classic default.
  kMostFractional,
  /// First fractional index: the cheapest rule, a lower-bound baseline for
  /// the branching ablation (bench/ablation_solver).
  kFirstFractional,
  /// Pseudo-cost branching: score variables by the per-unit objective
  /// degradation their past branchings caused (product of up/down pseudo
  /// costs), falling back to most-fractional until a variable has history.
  kPseudoCost,
};

const char* BranchRuleName(BranchRule rule);

struct BranchAndBoundOptions {
  double integrality_tol = 1e-6;
  /// Relative optimality gap at which search stops early.
  double gap_tol = 1e-9;
  bool enable_rounding_heuristic = true;
  bool enable_diving_heuristic = true;
  int dive_max_depth = 64;
  BranchRule branch_rule = BranchRule::kMostFractional;
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
  /// concurrency). 1 runs the exact serial depth-first search of earlier
  /// releases. > 1 searches a shared work deque of frames concurrently:
  /// the root (solve, rounding, dive, reduced-cost fixing) runs serially,
  /// then per-worker simplex solvers evaluate frames against an atomic
  /// shared incumbent, each re-optimizing from its frame's parent basis
  /// (the PR-3 warm start) when warm_start is on. Parallel search engages
  /// only past a model-size floor (tiny trees cost more to share than to
  /// solve) and for deterministic branch rules; pseudo-cost branching
  /// keeps its serial history and falls back to one worker. The optimum
  /// found is the same; only which equally-optimal solution is returned
  /// may differ with the interleaving.
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
