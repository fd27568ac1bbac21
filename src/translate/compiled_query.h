// PaQL → ILP translation (Section 3.1 of the paper).
//
// `CompiledQuery` resolves and compiles a validated package query once
// against a schema, then can:
//   * compute the base relation (rule 2: WHERE filtering),
//   * build an lp::Model over any candidate-row subset of any table with a
//     compatible schema (rules 1, 3, 4) — used by DIRECT on the full base
//     relation, by SKETCH on the representative relation, and by REFINE on
//     single groups,
//   * evaluate leaf-constraint activities and package feasibility directly
//     (used by refine-query bound shifting and by result validation).
//
// Every scan, filter, model build and activity sum runs the batch kernels
// (translate/vector_expr.h). The row-at-a-time closures (compile_expr.h)
// back the reference entry points — ComputeBaseRows, BaseAccepts,
// LeafActivities, PackageSatisfiesGlobals, ObjectiveValue — that package
// validation, the NAIVE oracle and the tests check the kernels against.
//
// Translation rules implemented:
//   1. REPEAT K          =>  0 <= x_i <= K+1 (no REPEAT: x_i unbounded)
//   2. base predicate    =>  tuples failing WHERE are excluded (x_i = 0
//                            eliminated from the model entirely)
//   3. global predicates =>  linear range rows; COUNT -> sum x_i,
//                            SUM(e) -> sum e_i x_i, AVG(e) cmp v ->
//                            sum (e_i - v) x_i cmp 0; subquery filters
//                            restrict which tuples contribute; AND conjoins
//                            rows; OR uses big-M indicator variables; NOT is
//                            pushed down by De Morgan onto flipped
//                            comparisons; MIN/MAX against a constant become
//                            threshold-count rows (MIN(a) >= v <=>
//                            COUNT(* WHERE a < v) <= 0, MIN(a) <= v <=>
//                            COUNT(* WHERE a <= v) >= 1; MAX symmetric);
//                            strict </> and '<>' are exact on integer-valued
//                            (COUNT-based) expressions and closed to <=/>=
//                            on continuous ones
//   4. objective         =>  linear objective (vacuous when absent)
//
// MIN/MAX empty-package semantics: the existence direction (MIN <= v /
// MAX >= v) forces a qualifying tuple into the package, so an empty package
// never satisfies it; the universal direction (MIN >= v / MAX <= v) is
// vacuously true on empty packages. This matches treating SQL's NULL
// aggregate result as failing existence checks and passing universal ones;
// pair MIN/MAX constraints with COUNT(P.*) >= 1 for strict SQL behaviour.
#ifndef PAQL_TRANSLATE_COMPILED_QUERY_H_
#define PAQL_TRANSLATE_COMPILED_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "lp/model.h"
#include "paql/ast.h"
#include "translate/compile_expr.h"

namespace paql::translate {

/// A linear package-level expression: constant + sum of scaled aggregates.
struct LinearExpr {
  struct Term {
    double scale = 1.0;
    CompiledAggArg agg;
  };
  double constant = 0;
  std::vector<Term> terms;
  /// True when the expression provably takes integer values for every
  /// integer assignment (COUNT aggregates combined with integer constants).
  /// Integer-valued expressions get exact strict comparisons: `e < v`
  /// becomes `e <= ceil(v)-1` instead of the continuous closure `e <= v`.
  bool integral = false;

  /// Per-tuple coefficient: sum_k scale_k * (filter_k ? value_k : 0).
  /// The reference for CoeffBatch.
  double Coeff(const relation::ColumnSource& table, relation::RowId row) const;

  /// Batch twin of Coeff: out[i] = Coeff(span.row(i)) for i < span.len,
  /// accumulated term by term in the same order (bit-identical result).
  void CoeffBatch(const relation::ColumnSource& table, const relation::RowSpan& span,
                  double* out) const;
};

class CompiledQuery {
 public:
  /// Compile `query` against `schema`. The query must already pass
  /// lang::ValidateQuery; Compile re-checks what it relies on and fails
  /// cleanly otherwise.
  static Result<CompiledQuery> Compile(const lang::PackageQuery& query,
                                       const relation::Schema& schema);

  // --- Query facts -------------------------------------------------------

  /// Upper bound per tuple variable from REPEAT (K+1), or lp::kInf.
  double per_tuple_ub() const { return per_tuple_ub_; }
  bool has_base_predicate() const { return static_cast<bool>(base_pred_); }
  bool has_objective() const { return has_objective_; }
  bool maximize() const { return maximize_; }
  const std::string& package_name() const { return package_name_; }

  /// Rows of `table` satisfying the WHERE clause (the base relation R_beta),
  /// row at a time through the scalar closure: the reference.
  std::vector<relation::RowId> ComputeBaseRows(
      const relation::ColumnSource& table) const;

  /// The base relation, scanned in kChunkSize-row batches through the
  /// compiled BatchPred; identical to ComputeBaseRows. `threads` > 1 scans
  /// morsels in parallel off the shared pool (same result bit for bit).
  /// Sources with block statistics
  /// (relation::DiskTable) skip whole blocks whose zone maps are disjoint
  /// from the WHERE clause's extracted ranges; `counters` (may be null)
  /// receives the scanned/pruned block counts.
  std::vector<relation::RowId> ComputeBaseRowsVectorized(
      const relation::ColumnSource& table, int threads = 1,
      ScanCounters* counters = nullptr) const;

  /// The conservative per-column ranges extracted from the WHERE clause at
  /// compile time (empty when there is no WHERE or nothing extractable).
  /// SketchRefine seeds partition-level pruning from these as well.
  const std::vector<ZoneRange>& base_zone_ranges() const {
    return base_zone_ranges_;
  }

  /// The live subset of `rows` satisfying the WHERE clause (all live rows
  /// when the query has none), order preserved, through the batch kernels.
  std::vector<relation::RowId> FilterBaseRows(
      const relation::ColumnSource& table, const std::vector<relation::RowId>& rows,
      int threads = 1) const;

  /// Per-row base-predicate test (true when the query has no WHERE): the
  /// reference for FilterBaseRows. Deleted rows of a versioned table never
  /// qualify: the base relation R_beta is defined over the live rows of
  /// the snapshot.
  bool BaseAccepts(const relation::ColumnSource& table, relation::RowId row) const {
    if (table.has_deleted_rows() && table.RowDeleted(row)) return false;
    return !base_pred_ || base_pred_(table, row);
  }

  // --- ILP construction --------------------------------------------------

  struct BuildOptions {
    /// Per-candidate upper bound override (same order as `rows`). Used by
    /// the sketch query, where representative j may repeat up to
    /// |G_j| * (K+1) times. Empty = use per_tuple_ub().
    const std::vector<double>* ub_override = nullptr;
    /// Per-leaf-constraint activity already contributed by tuples outside
    /// the model (the refine query's p-bar aggregates). Row bounds are
    /// shifted by these amounts. Empty = all zeros.
    const std::vector<double>* activity_offset = nullptr;
    /// Workers for the coefficient fills (> 1 = morsel-parallel off the
    /// shared pool). Every coefficient lands in its own slot, so the
    /// model is bit-identical for any worker count.
    int threads = 1;
  };

  /// One block of candidate variables drawn from a table. The sketch query
  /// uses a single segment over the representative relation; the refine
  /// query a single segment over one group; the hybrid sketch query (paper
  /// §4.4 remedy 1) one original-tuple segment plus one representative
  /// segment.
  struct Segment {
    const relation::ColumnSource* table = nullptr;
    const std::vector<relation::RowId>* rows = nullptr;
    /// Optional per-row upper bounds (parallel to `rows`); nullptr = use
    /// per_tuple_ub().
    const std::vector<double>* ub_override = nullptr;
  };

  /// Build the ILP over the concatenated candidate segments. Variable k of
  /// the model corresponds to the k-th row across all segments in order.
  /// `activity_offset` (may be nullptr) shifts each leaf's bounds. The
  /// coefficients come from the batch kernels; each equals the reference
  /// LeafActivities/ObjectiveValue of its row alone.
  Result<lp::Model> BuildModelSegments(
      const std::vector<Segment>& segments,
      const std::vector<double>* activity_offset, int threads = 1) const;

  /// True when activity offsets only move row bounds: the SUCH THAT tree
  /// has no OR, so the model has exactly one row per leaf and no big-M
  /// indicator rows (whose coefficients depend on the offsets). Only then
  /// can UpdateModelOffsets patch a previously built model in place.
  bool CanUpdateOffsets() const { return offsets_updatable_; }

  /// Re-target the leaf-constraint row bounds of `model` — previously built
  /// by BuildModel/BuildModelSegments over the same candidate segments —
  /// for new activity offsets, without re-evaluating any coefficient. The
  /// refine loop uses this to re-solve one group under shifted bounds at
  /// O(#leaves) cost instead of rebuilding the model at O(#candidates ·
  /// #leaves). Requires CanUpdateOffsets().
  Status UpdateModelOffsets(const std::vector<double>& activity_offset,
                            lp::Model* model) const;

  /// Build the ILP over the candidate rows `rows` of `table`.
  Result<lp::Model> BuildModel(const relation::ColumnSource& table,
                               const std::vector<relation::RowId>& rows,
                               const BuildOptions& options) const;
  Result<lp::Model> BuildModel(const relation::ColumnSource& table,
                               const std::vector<relation::RowId>& rows) const {
    return BuildModel(table, rows, BuildOptions());
  }

  // --- Direct evaluation over packages ------------------------------------

  size_t num_leaf_constraints() const { return leaves_.size(); }
  const std::string& leaf_name(size_t i) const { return leaves_[i].name; }

  /// Column names referenced by leaf constraint `i` (sorted, deduplicated).
  /// COUNT-only leaves reference no columns. The attribute-dropping
  /// infeasibility remedy (paper Section 4.4, remedy 3) uses this to map
  /// IIS rows back to partitioning attributes.
  const std::vector<std::string>& leaf_columns(size_t i) const {
    return leaves_[i].columns;
  }

  /// Column names referenced by the objective (sorted, deduplicated).
  const std::vector<std::string>& objective_columns() const {
    return objective_columns_;
  }

  /// Activity of every leaf constraint for the package given as parallel
  /// (row, multiplicity) arrays over `table`, row at a time: the reference.
  std::vector<double> LeafActivities(
      const relation::ColumnSource& table,
      const std::vector<relation::RowId>& rows,
      const std::vector<int64_t>& multiplicity) const;

  /// Batch twin of LeafActivities (chunked gather through the batch
  /// kernels, same accumulation order — bit-identical result). `threads` > 1
  /// evaluates the leaves in parallel (each leaf's order-sensitive float
  /// accumulation stays inside one worker, so the activities are
  /// bit-identical for any worker count).
  std::vector<double> LeafActivitiesVectorized(
      const relation::ColumnSource& table,
      const std::vector<relation::RowId>& rows,
      const std::vector<int64_t>& multiplicity, int threads = 1) const;

  /// Logical satisfaction of the SUCH THAT tree given leaf activities
  /// (handles AND/OR; `tol` is a relative feasibility tolerance).
  bool GlobalsSatisfied(const std::vector<double>& activities,
                        double tol = 1e-6) const;

  /// Reference activities + GlobalsSatisfied in one call.
  bool PackageSatisfiesGlobals(const relation::ColumnSource& table,
                               const std::vector<relation::RowId>& rows,
                               const std::vector<int64_t>& multiplicity,
                               double tol = 1e-6) const;

  /// Objective value of a package (0 when the query has no objective).
  double ObjectiveValue(const relation::ColumnSource& table,
                        const std::vector<relation::RowId>& rows,
                        const std::vector<int64_t>& multiplicity) const;

 private:
  /// One linear leaf constraint:  lo <= sum_i expr.Coeff(i) * x_i <= hi.
  struct Leaf {
    LinearExpr expr;
    double lo = -lp::kInf;
    double hi = lp::kInf;
    std::string name;
    /// Referenced column names (sorted, deduplicated).
    std::vector<std::string> columns;
  };

  /// SUCH THAT predicate tree over leaves.
  struct Node {
    enum class Kind { kLeaf, kAnd, kOr };
    Kind kind = Kind::kLeaf;
    int leaf = -1;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };

  CompiledQuery() = default;

  Status CompileGlobalPred(const lang::GlobalPredicate& pred,
                           const relation::Schema& schema,
                           std::unique_ptr<Node>* node);
  /// Compiles NOT `pred` by pushing the negation down to comparisons
  /// (De Morgan); the result reuses the AND/OR machinery.
  Status CompileNegatedPred(const lang::GlobalPredicate& pred,
                            const relation::Schema& schema,
                            std::unique_ptr<Node>* node);
  /// Compiles one comparison predicate: dispatches bare MIN/MAX sides to
  /// CompileMinMaxPred, '<>' to an OR of strict comparisons, and everything
  /// else to a single MakeComparisonLeaf leaf.
  Status CompileCmpPred(const lang::GlobalExpr& lhs, lang::CmpOp cmp,
                        const lang::GlobalExpr& rhs,
                        const relation::Schema& schema,
                        std::unique_ptr<Node>* node);
  /// Compiles `MIN/MAX(arg) cmp v` into threshold-count leaves:
  /// MIN(a) >= v  <=>  COUNT(* WHERE a < v) <= 0, and
  /// MIN(a) <= v  <=>  COUNT(* WHERE a <= v) >= 1 (symmetric for MAX);
  /// equalities become an AND pair, '<>' an OR pair.
  Status CompileMinMaxPred(const lang::AggCall& call, bool is_min,
                           lang::CmpOp cmp, double v,
                           const relation::Schema& schema,
                           std::unique_ptr<Node>* node);
  Result<LinearExpr> CompileGlobalExpr(const lang::GlobalExpr& expr,
                                       const relation::Schema& schema) const;
  /// Handles the AVG-vs-constant comparison rewrites; returns the leaf.
  Result<Leaf> MakeComparisonLeaf(const lang::GlobalExpr& lhs,
                                  lang::CmpOp cmp,
                                  const lang::GlobalExpr& rhs,
                                  const relation::Schema& schema) const;
  /// COUNT(* WHERE call.filter AND arg(t) `thresh` v) bounded to [lo, hi].
  Result<Leaf> MakeThresholdCountLeaf(const lang::AggCall& call,
                                      lang::CmpOp thresh, double v, double lo,
                                      double hi, const relation::Schema& schema,
                                      std::string name) const;
  /// Appends `leaf` to leaves_ and wraps it in a leaf node.
  std::unique_ptr<Node> MakeLeafNode(Leaf leaf);

  bool EvalNode(const Node& node, const std::vector<double>& activities,
                double tol) const;

  /// True when the node or a descendant is an OR (needs indicators).
  static bool ContainsOr(const Node& node);

  /// Appends the leaf indices of the subtree in emission order (the order
  /// BuildModelSegments adds their rows for OR-free trees).
  static void CollectLeafOrder(const Node& node, std::vector<int>* order);

  std::string package_name_;
  double per_tuple_ub_ = lp::kInf;
  RowPred base_pred_;                 // empty when no WHERE
  BatchPred base_pred_batch_;         // batch twin; empty when no WHERE
  std::vector<ZoneRange> base_zone_ranges_;  // WHERE-implied block ranges
  std::vector<Leaf> leaves_;
  std::unique_ptr<Node> root_;        // null when no SUCH THAT
  bool offsets_updatable_ = true;     // no OR: offsets only move row bounds
  std::vector<int> leaf_row_order_;   // model row -> leaf index (when no OR)
  bool has_objective_ = false;
  bool maximize_ = false;
  LinearExpr objective_;
  std::vector<std::string> objective_columns_;
};

}  // namespace paql::translate

#endif  // PAQL_TRANSLATE_COMPILED_QUERY_H_
