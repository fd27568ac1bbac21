// Versioned tables: copy-on-write snapshots over any ColumnSource.
//
// The paper treats relations as static; real serving workloads stream
// inserts, deletes, and updates. TableVersion makes a mutable table out of
// immutable parts, in the spirit of log-structured storage:
//
//   base (Table or DiskTable, never modified)
//     + append segment (an in-memory Table of rows added after the base)
//     + delete bitmap  (over the full row space, base + appends)
//
// Each version is itself an immutable ColumnSource. Applying a TableDelta
// produces a *new* version sharing the base (and copying the much smaller
// append segment and bitmap), so in-flight queries keep reading the version
// they resolved while writers publish the next one — the same copy-on-write
// discipline as the service catalog's table map.
//
// Row ids stay stable across versions: an appended row gets the next id
// past the current end, and a deleted row keeps its id with the delete bit
// set (the id is never reused). That is what keeps partitionings, cached
// artifacts, and previously computed packages meaningful across versions —
// the dirty-group machinery (partition/dynamic_update.h) and incremental
// re-evaluation (core/incremental.h) are keyed by row id.
//
// Deleted rows are invisible to query evaluation: the base-relation scan
// entry points (translate/compiled_query.h) and package validation skip
// rows whose RowDeleted bit is set. Zone maps remain the base's — they
// cover a superset of the live rows, which keeps pruning conservative and
// therefore correct.
#ifndef PAQL_RELATION_TABLE_VERSION_H_
#define PAQL_RELATION_TABLE_VERSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::relation {

/// One batch of mutations against a specific table version. Updates are
/// expressed as delete + re-insert (the new row gets a fresh row id).
struct TableDelta {
  /// Rows to append, validated against the table schema on Apply.
  std::vector<std::vector<Value>> inserts;
  /// Row ids (in the target version's row space) to mark deleted. Must be
  /// live rows; out-of-range or double deletes fail the whole batch.
  std::vector<RowId> deletes;

  void Insert(std::vector<Value> row) { inserts.push_back(std::move(row)); }
  void Delete(RowId row) { deletes.push_back(row); }
  /// update = delete + re-insert.
  void Update(RowId row, std::vector<Value> values) {
    Delete(row);
    Insert(std::move(values));
  }
  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// An immutable snapshot of a mutable table. See the file comment for the
/// base + append segment + delete bitmap layout.
class TableVersion final : public ColumnSource {
 public:
  /// Version 0 over an existing source: no appends, no deletes. The base
  /// is shared, never copied, and must outlive every version over it.
  static Result<std::shared_ptr<const TableVersion>> Wrap(
      std::shared_ptr<const ColumnSource> base);

  /// The next version: this version's rows plus `delta`'s appends, minus
  /// its deletes. Fails (changing nothing) when an insert violates the
  /// schema or a delete names a non-live row.
  Result<std::shared_ptr<const TableVersion>> Apply(
      const TableDelta& delta) const;

  // --- ColumnSource ---

  const Schema& schema() const override { return base_->schema(); }
  size_t num_rows() const override { return base_rows_ + appended_.num_rows(); }
  bool IsNull(RowId row, size_t col) const override {
    return row < base_rows_ ? base_->IsNull(row, col)
                            : appended_.IsNull(row - base_rows_, col);
  }
  double GetDouble(RowId row, size_t col) const override {
    return row < base_rows_ ? base_->GetDouble(row, col)
                            : appended_.GetDouble(row - base_rows_, col);
  }
  int64_t GetInt64(RowId row, size_t col) const override {
    return row < base_rows_ ? base_->GetInt64(row, col)
                            : appended_.GetInt64(row - base_rows_, col);
  }
  const std::string& GetString(RowId row, size_t col) const override {
    return row < base_rows_ ? base_->GetString(row, col)
                            : appended_.GetString(row - base_rows_, col);
  }
  Value GetValue(RowId row, size_t col) const override {
    return row < base_rows_ ? base_->GetValue(row, col)
                            : appended_.GetValue(row - base_rows_, col);
  }
  void LoadChunk(size_t col, const RowSpan& span,
                 NumericBatch* out) const override;
  void LoadChunkRaw(size_t col, const RowSpan& span,
                    NumericBatch* out) const override;
  bool ZoneFor(size_t col, size_t block, BlockZone* zone) const override;
  std::vector<RowId> NonNullRows(
      const std::vector<size_t>& cols) const override;
  size_t ApproximateBytes() const override;

  bool RowDeleted(RowId row) const override {
    return row < deleted_.size() && deleted_[row] != 0;
  }
  bool has_deleted_rows() const override { return num_deleted_ > 0; }

  /// Storage faults originate in the base (the append segment is an
  /// in-memory Table and cannot fail); forward the channel so a versioned
  /// DiskTable still surfaces corruption to query execution.
  Status ConsumeError() const override { return base_->ConsumeError(); }
  int64_t BlocksDecoded() const override { return base_->BlocksDecoded(); }

  // --- Version chain facts ---

  /// Monotonic version number: Wrap gives 0, each Apply adds 1.
  uint64_t version() const { return version_; }
  /// Rows owned by the (shared, immutable) base.
  size_t base_rows() const { return base_rows_; }
  /// Rows in the append segment (owned by this version).
  size_t appended_rows() const { return appended_.num_rows(); }
  size_t num_deleted() const { return num_deleted_; }
  /// Rows visible to queries: num_rows() minus the deleted ones.
  size_t num_live_rows() const { return num_rows() - num_deleted_; }
  const std::shared_ptr<const ColumnSource>& base() const { return base_; }

 private:
  TableVersion(std::shared_ptr<const ColumnSource> base, Table appended,
               std::vector<uint8_t> deleted, size_t num_deleted,
               uint64_t version);

  std::shared_ptr<const ColumnSource> base_;
  size_t base_rows_;
  Table appended_;                // same schema as base_; owned
  std::vector<uint8_t> deleted_;  // full row space; may be shorter (rest live)
  size_t num_deleted_ = 0;
  uint64_t version_ = 0;
};

/// Parse one batch of insert rows from text into `delta->inserts`:
/// semicolon-separated rows of comma-separated fields, matched against
/// `schema` column by column ("NULL" or an empty field is a NULL). Shared
/// by paql_shell's \insert and paql_server's INSERT verb so both speak the
/// same syntax.
Status ParseInsertRows(const Schema& schema, std::string_view text,
                       TableDelta* delta);

/// Parse a comma-separated list of row ids into `delta->deletes`.
Status ParseDeleteRows(std::string_view text, TableDelta* delta);

}  // namespace paql::relation

#endif  // PAQL_RELATION_TABLE_VERSION_H_
