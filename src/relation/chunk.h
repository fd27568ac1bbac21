// Chunked (vectorized) access primitives over any ColumnSource.
//
// The scalar hot paths evaluate expressions one row at a time through
// std::function closures; at millions of rows the per-row indirect calls
// dominate. The batch pipeline instead processes kChunkSize-row chunks:
// a column slice is materialized into a NumericBatch (one tight loop per
// chunk, with the type dispatch hoisted out), predicates refine a
// SelectionVector of surviving lane indices, and aggregates fold whole
// batches. translate/vector_expr.h compiles PaQL expressions onto these
// types; this header owns the raw gather/scan helpers the partitioner and
// AggregateRows fast paths share. The data layout types themselves live in
// relation/chunk_types.h (re-exported here).
//
// Every helper reads through the ColumnSource interface, so the same
// reductions run over the in-memory Table and the out-of-core DiskTable
// with bit-identical results (one virtual call per chunk, not per row).
#ifndef PAQL_RELATION_CHUNK_H_
#define PAQL_RELATION_CHUNK_H_

#include <utility>
#include <vector>

#include "relation/chunk_types.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::relation {

/// Materialize a numeric column slice into `out` with int64 -> double
/// coercion; NULL lanes become NaN with the null bit set. The column must
/// not be a string column (PAQL_CHECKed, mirroring Table::DoubleColumn).
void LoadNumericChunk(const ColumnSource& source, size_t col,
                      const RowSpan& span, NumericBatch* out);

/// Like LoadNumericChunk but reads the raw stored values with no NULL
/// handling (NULL lanes read as the 0 the storage holds) — the batch
/// counterpart of calling GetDouble in a loop. Used by the partitioner
/// and aggregate fast paths, which historically read raw storage.
void LoadNumericChunkRaw(const ColumnSource& source, size_t col,
                         const RowSpan& span, NumericBatch* out);

// --- Raw chunked reductions (bit-identical to the scalar loops they
// --- replace: same accumulation order, raw storage reads).
//
// The min/max reductions take an optional worker count: with threads > 1
// they fold per-morsel partials claimed off the shared pool and merge
// them in ascending morsel order. min/max folds are exactly associative
// and commutative over the NaN-free raw storage these read, so the
// parallel result is bit-for-bit the serial one. GatherMean deliberately
// has no threads parameter: a float SUM is order-sensitive, so it always
// runs inside one worker (callers parallelize across columns or groups
// instead — see partition/partitioner.cc).

/// Mean of `col` over `rows` (0.0 when rows is empty).
double GatherMean(const ColumnSource& source, size_t col,
                  const std::vector<RowId>& rows);

/// max_i |value(rows[i]) - center| over `rows` (0.0 when rows is empty).
double GatherMaxAbsDeviation(const ColumnSource& source, size_t col,
                             const std::vector<RowId>& rows, double center,
                             int threads = 1);

/// min |value| over the whole column; +inf on an empty table.
double ColumnMinAbs(const ColumnSource& source, size_t col, int threads = 1);

}  // namespace paql::relation

#endif  // PAQL_RELATION_CHUNK_H_
