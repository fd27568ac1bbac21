// Compilation of PaQL per-tuple expressions into vectorized batch kernels.
//
// The batch pipeline is what every evaluation entry point runs: the
// expressions of compile_expr.h, compiled onto kChunkSize-row chunks of
// the columnar Table instead of one row at a time. A numeric kernel
// (BatchFn) fills a NumericBatch for every lane of a RowSpan; a predicate
// kernel (BatchPred) refines a SelectionVector in place, so AND chains
// narrow the surviving lanes and OR/NOT recombine them. One indirect call
// per kernel per chunk replaces one per kernel per row.
//
// Semantics are bit-for-bit identical to the scalar pipeline (the
// differential test enforces this): NULL lanes carry NaN exactly like
// RowFn, NaN comparisons are false, string comparisons and IS NULL read
// the table directly, and accumulation orders match the scalar loops.
// The scalar RowFn/RowPred closures remain the reference implementation
// the tests, package validation and the NAIVE oracle use. Both compilers
// accept and reject exactly the same expressions.
#ifndef PAQL_TRANSLATE_VECTOR_EXPR_H_
#define PAQL_TRANSLATE_VECTOR_EXPR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "paql/ast.h"
#include "relation/chunk.h"
#include "relation/schema.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::translate {

/// Batch numeric evaluator: fill `out` for every lane of `span`
/// (lane i corresponds to span.row(i)). NULL evaluates to NaN.
using BatchFn = std::function<void(
    const relation::ColumnSource&, const relation::RowSpan&, relation::NumericBatch*)>;

/// Batch predicate evaluator: keep only the selected lanes that satisfy
/// the predicate (ascending lane order is preserved).
using BatchPred = std::function<void(const relation::ColumnSource&,
                                     const relation::RowSpan&,
                                     relation::SelectionVector*)>;

/// Compile a numeric scalar expression into a batch kernel. Fails on the
/// same inputs CompileScalar fails on (string operands, non-numeric
/// literals).
Result<BatchFn> CompileScalarBatch(const lang::ScalarExpr& expr,
                                   const relation::Schema& schema);

/// Compile a boolean (WHERE-style) expression into a batch predicate.
/// Supports the full scalar fragment: numeric comparisons, string
/// equality/inequality, BETWEEN, AND/OR/NOT, IS [NOT] NULL.
Result<BatchPred> CompileBoolBatch(const lang::BoolExpr& expr,
                                   const relation::Schema& schema);

/// A conservative per-column requirement extracted from a WHERE tree: any
/// satisfying row has `lo <= value(col) <= hi` (and is non-NULL, since
/// NULL comparisons are false). A storage block whose zone map is disjoint
/// from every range cannot contribute a row, so the scan skips it whole.
struct ZoneRange {
  size_t col = 0;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// Zone-pruning statistics of one scan (atomics: morsels run in parallel).
struct ScanCounters {
  std::atomic<int64_t> blocks_scanned{0};
  std::atomic<int64_t> blocks_pruned{0};
};

/// Extract every ZoneRange implied by `expr`: numeric column-vs-literal
/// comparisons and BETWEENs on the top-level AND spine. Best effort —
/// anything else (OR, NOT, arithmetic, strings) contributes nothing and
/// an empty result just means no pruning.
std::vector<ZoneRange> ExtractZoneRanges(const lang::BoolExpr& expr,
                                         const relation::Schema& schema);

/// All rows of `table` satisfying `pred`, scanned chunk at a time over
/// contiguous spans. Equals Table::FilterRows over the scalar twin.
/// `threads` > 1 scans kMorselRows-sized morsels in parallel off the
/// shared pool; each morsel collects its survivors into its own slot and
/// the slots concatenate in ascending morsel order, so the result is
/// bit-for-bit the serial scan's.
///
/// `zones` (may be null/empty) lets sources with block statistics
/// (DiskTable) skip whole morsels whose zone maps are disjoint from a
/// required range — pruning never changes the result, only the work.
/// `counters` (may be null) receives scanned/pruned block counts.
std::vector<relation::RowId> FilterTableVectorized(
    const relation::ColumnSource& table, const BatchPred& pred,
    int threads = 1, const std::vector<ZoneRange>* zones = nullptr,
    ScanCounters* counters = nullptr);

/// The subset of `rows` satisfying `pred`, evaluated over gather spans
/// (order preserved, duplicates allowed). Parallelizes like
/// FilterTableVectorized when `threads` > 1.
std::vector<relation::RowId> FilterRowsVectorized(
    const relation::ColumnSource& table, const std::vector<relation::RowId>& rows,
    const BatchPred& pred, int threads = 1);

}  // namespace paql::translate

#endif  // PAQL_TRANSLATE_VECTOR_EXPR_H_
