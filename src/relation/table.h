// Columnar in-memory table.
//
// This is the storage substrate replacing PostgreSQL in the original system
// (see DESIGN.md §1). The paper uses the DBMS for scans, selections, and
// group-by aggregation; `Table` supports exactly those access paths with
// typed columnar storage and per-column null bitmaps.
#ifndef PAQL_RELATION_TABLE_H_
#define PAQL_RELATION_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/column_source.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace paql::relation {

/// Columnar table: one typed vector per column plus a null bitmap. One of
/// the two ColumnSource implementations (the other is the out-of-core
/// DiskTable); `final` so that Table-typed call sites devirtualize the
/// hot accessors.
class Table final : public ColumnSource {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const override { return schema_; }
  size_t num_rows() const override { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Append a row of values; must match the schema arity and types
  /// (numeric coercion int64<->double is allowed).
  Status AppendRow(const std::vector<Value>& values);

  /// Append a row without validation (hot path for generators).
  /// Values must already match column types; Value::Null() marks nulls.
  void AppendRowUnchecked(const std::vector<Value>& values);

  // --- Typed element access (hot paths; no bounds checks in release) ---

  bool IsNull(RowId row, size_t col) const override {
    // The bitmap is grown lazily: rows past its end are non-NULL.
    const auto& bitmap = nulls_[col];
    return row < bitmap.size() && bitmap[row] != 0;
  }

  /// Numeric read with int64->double coercion. Must not be NULL or string.
  double GetDouble(RowId row, size_t col) const override {
    const ColumnData& c = columns_[col];
    return c.type == DataType::kDouble
               ? c.doubles[row]
               : static_cast<double>(c.ints[row]);
  }

  int64_t GetInt64(RowId row, size_t col) const override {
    const ColumnData& c = columns_[col];
    return c.type == DataType::kInt64 ? c.ints[row]
                                      : static_cast<int64_t>(c.doubles[row]);
  }

  const std::string& GetString(RowId row, size_t col) const override {
    return columns_[col].strings[row];
  }

  /// Generic (boxed) element access for non-hot paths.
  Value GetValue(RowId row, size_t col) const override;

  /// Chunked column loads (see ColumnSource): one tight loop per chunk
  /// straight off the column vectors.
  void LoadChunk(size_t col, const RowSpan& span,
                 NumericBatch* out) const override;
  void LoadChunkRaw(size_t col, const RowSpan& span,
                    NumericBatch* out) const override;
  const double* ContiguousDoubles(size_t col) const override {
    return columns_[col].type == DataType::kDouble
               ? columns_[col].doubles.data()
               : nullptr;
  }

  /// Overwrite one element (used by the partitioner to assign group ids).
  void SetValue(RowId row, size_t col, const Value& value);

  /// Direct access to a whole double column (must be kDouble).
  const std::vector<double>& DoubleColumn(size_t col) const;
  /// Direct access to a whole int64 column (must be kInt64).
  const std::vector<int64_t>& Int64Column(size_t col) const;
  /// Direct access to a column's lazily-grown null bitmap (empty = the
  /// column has no NULLs; rows past the end are non-NULL). The chunked
  /// pipeline (relation/chunk.h) reads it to null-mask whole batches
  /// without a per-row IsNull call.
  const std::vector<uint8_t>& NullBitmap(size_t col) const {
    return nulls_[col];
  }

  // --- Relational operations ---

  /// Row ids whose rows satisfy `pred`.
  std::vector<RowId> FilterRows(
      const std::function<bool(const Table&, RowId)>& pred) const;

  /// New table containing the given rows (in order).
  Table SelectRows(const std::vector<RowId>& rows) const;

  /// New table with only the named columns.
  Result<Table> ProjectColumns(const std::vector<std::string>& names) const;

  /// Add a new column filled with `fill`; returns its index.
  Result<size_t> AddColumn(const ColumnDef& def, const Value& fill);

  /// Rows with non-NULL values in all the given columns.
  std::vector<RowId> NonNullRows(
      const std::vector<size_t>& cols) const override;

  /// Debug rendering of the first `max_rows` rows.
  std::string ToString(size_t max_rows = 10) const;

  /// Approximate heap footprint in bytes (for solver budget accounting).
  size_t ApproximateBytes() const override;

  void Reserve(size_t rows);

 private:
  struct ColumnData {
    DataType type;
    std::vector<int64_t> ints;        // kInt64
    std::vector<double> doubles;      // kDouble
    std::vector<std::string> strings; // kString
  };

  Schema schema_;
  std::vector<ColumnData> columns_;
  std::vector<std::vector<uint8_t>> nulls_;  // per-column; empty = no nulls
  size_t num_rows_ = 0;

  void SetNull(RowId row, size_t col);
};

}  // namespace paql::relation

#endif  // PAQL_RELATION_TABLE_H_
