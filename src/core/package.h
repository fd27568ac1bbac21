// Package results and shared evaluator types.
//
// A package is a multiset of tuples from the input relation (the paper's
// answer object). Evaluators return an EvalResult: the package, its
// objective value, and detailed statistics.
#ifndef PAQL_CORE_PACKAGE_H_
#define PAQL_CORE_PACKAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "ilp/branch_and_bound.h"
#include "ilp/solver_limits.h"
#include "relation/column_source.h"
#include "relation/table.h"
#include "translate/compiled_query.h"

namespace paql::core {

/// A multiset of tuples: parallel (row, multiplicity > 0) arrays.
struct Package {
  std::vector<relation::RowId> rows;
  std::vector<int64_t> multiplicity;

  /// Total number of tuples counting repetitions.
  int64_t TotalCount() const;

  /// Expand the multiset into a relational table (the paper materializes
  /// packages as standard relations with the input schema).
  relation::Table Materialize(const relation::ColumnSource& source) const;

  /// Sort entries by row id (canonical form for comparisons in tests).
  void Normalize();

  std::string ToString() const;
};

/// Validate a package against a compiled query: base predicate, repetition
/// bound, and all global predicates. Returns OK or an explanatory error.
Status ValidatePackage(const translate::CompiledQuery& query,
                       const relation::ColumnSource& table, const Package& package,
                       double tol = 1e-6);

/// Statistics shared by all evaluation strategies.
struct EvalStats {
  double wall_seconds = 0;       // end-to-end evaluation time
  double translate_seconds = 0;  // base relation + ILP construction
  double solve_seconds = 0;      // time inside the ILP solver
  int64_t ilp_solves = 0;        // number of ILP solver invocations
  int64_t lp_iterations = 0;     // total simplex pivots
  int64_t bnb_nodes = 0;         // total branch-and-bound nodes
  size_t peak_memory_bytes = 0;  // per the SolverLimits accounting model
  /// Node LPs re-optimized from a warm basis with the dual simplex (zero
  /// when BranchAndBoundOptions::warm_start is off).
  int64_t warm_lp_solves = 0;
  /// Simplex pivots priced straight off the partial-pricing candidate list
  /// (zero when SimplexOptions::partial_pricing is off).
  int64_t pricing_candidate_hits = 0;
  /// Boxed columns flipped by the bound-flipping dual ratio test across
  /// all simplex solves (zero when SimplexOptions::dual_steepest_edge is
  /// off).
  int64_t bound_flips = 0;
  /// Dual pivots whose leaving row was chosen by the steepest-edge weights
  /// (zero when SimplexOptions::dual_steepest_edge is off).
  int64_t dse_pivots = 0;
  /// Integer variables permanently fixed by root reduced-cost fixing
  /// across all ILP solves (zero when
  /// BranchAndBoundOptions::reduced_cost_fixing is off).
  int64_t rc_fixed_vars = 0;
  /// Columns removed by the ILP presolve pass across all solves (zero
  /// when BranchAndBoundOptions::presolve is off).
  int64_t presolve_fixed_vars = 0;
  /// Root cut loop across all ILP solves: wall time (separation plus the
  /// augmented root re-solves), separate-resolve rounds that produced
  /// cuts, and cuts appended.
  double cut_seconds = 0;
  int64_t cut_rounds = 0;
  int64_t cuts_added = 0;

  // SKETCHREFINE-specific counters (zero for other strategies).
  int64_t groups_refined = 0;
  int64_t backtracks = 0;
  bool used_hybrid_sketch = false;
  /// Refine subproblems whose cached model was re-targeted in place
  /// (CompiledQuery::UpdateModelOffsets) instead of rebuilt.
  int64_t warm_model_reuses = 0;
  /// Representative columns this run filled on demand because the query
  /// reads them (partition::Partitioning::Representatives), and the
  /// storage blocks those fills decoded.
  int64_t representative_columns_filled = 0;
  int64_t representative_block_reads = 0;

  /// Branch-and-bound nodes explored by the concurrent (threads > 1)
  /// search across all ILP solves (zero when every search ran serially).
  int64_t parallel_bnb_nodes = 0;

  // Out-of-core storage counters (relation/block_store.h), filled by the
  // base-relation scan; zero over sources without block statistics (the
  // in-memory Table).
  /// Storage blocks whose zone maps were consulted and scanned.
  int64_t blocks_scanned = 0;
  /// Storage blocks skipped whole: their zone maps were disjoint from a
  /// WHERE-implied range, so no row in them could pass the predicate.
  int64_t blocks_pruned = 0;

  // Cross-query artifact cache counters (engine/query_cache.h), filled by
  // Session::Execute; zero when the session has no cache or the low-level
  // evaluators are driven directly.
  /// This statement's artifacts (plan / partitioning / warm basis) were
  /// served from the cross-query cache.
  int64_t cache_hits = 0;
  /// This statement missed the cross-query cache (its artifacts were
  /// stored for the next identical statement).
  int64_t cache_misses = 0;

  void Accumulate(const ilp::IlpStats& ilp);
};

struct EvalResult {
  Package package;
  double objective = 0;
  EvalStats stats;
};

}  // namespace paql::core

#endif  // PAQL_CORE_PACKAGE_H_
