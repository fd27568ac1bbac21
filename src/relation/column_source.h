// ColumnSource — the storage-agnostic read interface of the engine.
//
// Everything above the storage layer (chunked reductions, the vectorized
// predicate pipeline, ILP translation, DIRECT and SKETCHREFINE) reads rows
// through this interface. Two implementations exist:
//
//  * relation::Table — the in-memory columnar table (relation/table.h);
//  * relation::DiskTable — the out-of-core block store reader
//    (relation/disk_table.h), which decodes compressed per-column blocks
//    of kMorselRows rows on demand through a shared LRU cache.
//
// The method names and semantics are exactly Table's, so retargeting a
// call site is a signature change, never a body change, and results are
// bit-for-bit identical across implementations (the block-store
// differential tests enforce this). Per-row accessors are the scalar
// fallback path; hot loops go through LoadChunk/LoadChunkRaw, one virtual
// call per kChunkSize rows.
//
// Zone maps: a source may expose per-block min/max/null statistics over
// blocks of kMorselRows rows (the morsel grid, so a pruned block is a
// skipped morsel). Pruning with them is conservative: the stats cover
// non-NULL values, and a block whose [min, max] is disjoint from a
// required range can hold no row satisfying a comparison against that
// range (NULL comparisons are false and cannot resurrect a row).
#ifndef PAQL_RELATION_COLUMN_SOURCE_H_
#define PAQL_RELATION_COLUMN_SOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/chunk_types.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace paql::relation {

class Table;

class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  virtual const Schema& schema() const = 0;
  virtual size_t num_rows() const = 0;
  size_t num_columns() const { return schema().num_columns(); }

  // --- Per-row element access (scalar fallback paths) ---

  virtual bool IsNull(RowId row, size_t col) const = 0;

  /// Numeric read with int64->double coercion. Must not be a string
  /// column; NULL rows read the raw stored value (0 unless overwritten).
  virtual double GetDouble(RowId row, size_t col) const = 0;

  virtual int64_t GetInt64(RowId row, size_t col) const = 0;

  /// String read. The reference stays valid for the lifetime of the
  /// source (DiskTable pins decoded string blocks to honor this).
  virtual const std::string& GetString(RowId row, size_t col) const = 0;

  /// Generic (boxed) element access for non-hot paths.
  virtual Value GetValue(RowId row, size_t col) const;

  // --- Chunked access (the vectorized pipeline's entry points) ---

  /// Materialize a numeric column slice into `out` with int64 -> double
  /// coercion; NULL lanes become NaN with the null bit set. The column
  /// must not be a string column.
  virtual void LoadChunk(size_t col, const RowSpan& span,
                         NumericBatch* out) const = 0;

  /// Like LoadChunk but reads the raw stored values with no NULL handling
  /// (NULL lanes read as the stored value, 0 unless overwritten) — the
  /// batch counterpart of calling GetDouble in a loop.
  virtual void LoadChunkRaw(size_t col, const RowSpan& span,
                            NumericBatch* out) const = 0;

  /// The raw values of a whole column as one array of num_rows() doubles
  /// when the source already stores it that way (an in-memory Table's
  /// DOUBLE column), else nullptr. Full-column readers use the array in
  /// place instead of copying it out chunk by chunk.
  virtual const double* ContiguousDoubles(size_t col) const {
    (void)col;
    return nullptr;
  }

  // --- Zone maps (optional; sources without them never prune) ---

  /// Min/max over the non-NULL values of one block of kMorselRows rows
  /// (block b covers rows [b*kMorselRows, (b+1)*kMorselRows)).
  struct BlockZone {
    double min = 0;
    double max = 0;
    uint32_t null_count = 0;
  };

  /// Fill `*zone` for (col, block) and return true, or return false when
  /// the source keeps no statistics for that column (the in-memory Table,
  /// string columns, all-NULL blocks).
  virtual bool ZoneFor(size_t col, size_t block, BlockZone* zone) const {
    (void)col;
    (void)block;
    (void)zone;
    return false;
  }

  // --- Delete visibility (versioned sources; see relation/table_version.h) ---

  /// True when `row` has been deleted in this snapshot. Deleted rows keep
  /// their row id (ids are never reused) but are invisible to query
  /// evaluation: the base-relation scans and package validation skip them.
  /// Plain sources (Table, DiskTable) have no deletes.
  virtual bool RowDeleted(RowId row) const {
    (void)row;
    return false;
  }

  /// Cheap guard for the scan paths: false means no RowDeleted call can
  /// return true, so scans skip the per-row check entirely.
  virtual bool has_deleted_rows() const { return false; }

  // --- Storage-fault channel (out-of-core sources; see disk_table.h) ---

  /// Returns-and-clears the first storage error recorded since the last
  /// call (non-OK only when a read-path accessor hit unreadable bytes).
  ///
  /// The read accessors above deliberately have no error channel — they
  /// mirror Table, whose reads cannot fail — so an out-of-core source
  /// that hits corrupt or unreadable bytes records the failure here and
  /// serves deterministic placeholder lanes (zeros, flagged NULL). Query
  /// execution drains this channel after evaluating and fails the query
  /// with the recorded structured Status instead of trusting the result.
  /// Plain in-memory sources always return OK.
  virtual Status ConsumeError() const { return Status::OK(); }

  /// Blocks decoded from storage so far (block-cache misses that loaded
  /// a block); 0 for in-memory sources. Callers diff two readings to
  /// count the decodes an operation caused.
  virtual int64_t BlocksDecoded() const { return 0; }

  /// Rows with non-NULL values in all the given columns.
  virtual std::vector<RowId> NonNullRows(const std::vector<size_t>& cols) const;

  /// Approximate resident heap footprint in bytes (for solver budget
  /// accounting; a DiskTable reports its cache budget, not its file size).
  virtual size_t ApproximateBytes() const = 0;
};

/// Materialize the given rows (in order) of any source as an in-memory
/// Table with the same schema — the storage-agnostic twin of
/// Table::SelectRows, used where an algorithm genuinely needs an owned
/// in-memory relation (e.g. re-partitioning a subset of rows, or a
/// package's tuples).
Table MaterializeRows(const ColumnSource& source,
                      const std::vector<RowId>& rows);

}  // namespace paql::relation

#endif  // PAQL_RELATION_COLUMN_SOURCE_H_
