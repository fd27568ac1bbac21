#include "partition/partitioner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "relation/chunk.h"
#include "relation/csv.h"

namespace paql::partition {

using relation::ColumnDef;
using relation::kChunkSize;
using relation::kMorselRows;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::ColumnSource;
using relation::Table;
using relation::Value;

namespace {

/// Run fn(i) for i in [0, n), in parallel off the shared pool when
/// `threads` > 1. Every i writes its own slot, so results never depend on
/// the worker count; the float work inside each i is serial.
template <typename Fn>
void ParallelIndexFor(size_t n, int threads, const Fn& fn) {
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::Global().ParallelFor(n, 1, threads,
                                   [&](size_t begin, size_t end) {
                                     for (size_t i = begin; i < end; ++i) {
                                       fn(i);
                                     }
                                   });
}

// --- Gather path: groups given as arbitrary row lists ---------------------

/// Per-attribute means over `rows` (the group centroid), each a chunked
/// gather (relation/chunk.h) accumulated in list order.
std::vector<double> GroupCentroid(const ColumnSource& table,
                                  const std::vector<RowId>& rows,
                                  const std::vector<size_t>& cols) {
  std::vector<double> centroid(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    centroid[k] = relation::GatherMean(table, cols[k], rows);
  }
  return centroid;
}

/// Max |centroid - value| over `rows` across the partitioning columns.
double GroupRadius(const ColumnSource& table, const std::vector<RowId>& rows,
                   const std::vector<size_t>& cols,
                   const std::vector<double>& centroid) {
  double radius = 0;
  for (size_t k = 0; k < cols.size(); ++k) {
    radius = std::max(radius, relation::GatherMaxAbsDeviation(
                                  table, cols[k], rows, centroid[k]));
  }
  return radius;
}

// --- Dense path: the quad-tree over columns read once ---------------------

/// One numeric column as a dense array of raw values. `values` points at
/// the source's own storage when it keeps the column contiguously (an
/// in-memory DOUBLE column, read in place), else at `owned` (a move keeps
/// that buffer, so the pointer survives one).
struct DenseColumn {
  const double* values = nullptr;
  std::vector<double> owned;
};

/// Rows [start, start + len) of `col` into out[0, len), in contiguous
/// chunks.
void ReadRange(const ColumnSource& table, size_t col, size_t start,
               size_t len, double* out) {
  relation::NumericBatch batch;
  for (size_t off = 0; off < len; off += kChunkSize) {
    relation::RowSpan span;
    span.start = static_cast<RowId>(start + off);
    span.len = static_cast<uint32_t>(std::min(kChunkSize, len - off));
    table.LoadChunkRaw(col, span, &batch);
    std::memcpy(out + off, batch.values.data(), span.len * sizeof(double));
  }
}

/// Rows [0, num_rows()) of `col`, read once.
DenseColumn ReadColumn(const ColumnSource& table, size_t col) {
  DenseColumn out;
  out.values = table.ContiguousDoubles(col);
  if (out.values != nullptr) return out;
  out.owned.resize(table.num_rows());
  ReadRange(table, col, 0, out.owned.size(), out.owned.data());
  out.values = out.owned.data();
  return out;
}

/// `rows` of `col` in list order (element i is row rows[i]), gathered in
/// chunks.
DenseColumn GatherColumn(const ColumnSource& table, size_t col,
                         const std::vector<RowId>& rows) {
  DenseColumn out;
  out.owned.resize(rows.size());
  relation::NumericBatch batch;
  for (size_t off = 0; off < rows.size(); off += kChunkSize) {
    relation::RowSpan span;
    span.rows = rows.data() + off;
    span.len = static_cast<uint32_t>(std::min(kChunkSize, rows.size() - off));
    table.LoadChunkRaw(col, span, &batch);
    std::memcpy(out.owned.data() + off, batch.values.data(),
                span.len * sizeof(double));
  }
  out.values = out.owned.data();
  return out;
}

/// Attributes folded in one pass over a group's rows: their add and max
/// chains are independent, so they overlap in the pipeline.
constexpr size_t kFoldWidth = 4;

/// Centroid and per-attribute radius of the non-empty group `rows` for
/// attributes [first, first + kFoldWidth) of `columns` (fewer at the end),
/// written to centroid[k] and radius[k]. Both equal the relation/chunk.h
/// reductions over the source bit for bit:
///  * a centroid coordinate is a serial sum in list order divided by the
///    row count, exactly relation::GatherMean;
///  * a radius is max |value - centroid|. Deviations are never negative
///    and every fold kernel (simd::FoldMaxAbsDeviation, its scalar form
///    here) skips NaN, so the maximum does not depend on the visiting
///    order and equals relation::GatherMaxAbsDeviation.
void FoldGroup(const std::vector<DenseColumn>& columns, size_t first,
               const std::vector<RowId>& rows, double* centroid,
               double* radius) {
  const size_t width = std::min(kFoldWidth, columns.size() - first);
  // Lanes past `width` repeat the last attribute; their results are
  // dropped.
  std::array<const double*, kFoldWidth> v;
  for (size_t j = 0; j < kFoldWidth; ++j) {
    v[j] = columns[first + std::min(j, width - 1)].values;
  }
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (RowId r : rows) {
    s0 += v[0][r];
    s1 += v[1][r];
    s2 += v[2][r];
    s3 += v[3][r];
  }
  const double n = static_cast<double>(rows.size());
  const std::array<double, kFoldWidth> c = {s0 / n, s1 / n, s2 / n, s3 / n};
  auto fold = [](double value, double center, double& acc) {
    const double a = std::abs(value - center);
    acc = a > acc ? a : acc;
  };
  double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
  for (RowId r : rows) {
    fold(v[0][r], c[0], r0);
    fold(v[1][r], c[1], r1);
    fold(v[2][r], c[2], r2);
    fold(v[3][r], c[3], r3);
  }
  const std::array<double, kFoldWidth> rad = {r0, r1, r2, r3};
  for (size_t j = 0; j < width; ++j) {
    centroid[first + j] = c[j];
    radius[first + j] = rad[j];
  }
}

/// Quadrants per split level: at most 4 split attributes, so a row's
/// quadrant is a 4-bit mask.
constexpr size_t kMaxSplitAttributes = 4;
constexpr size_t kMaxQuadrants = size_t{1} << kMaxSplitAttributes;

/// Recursive quad-tree splitter over dense attribute arrays: `columns[k]`
/// holds partitioning attribute k for every row id in [0, num_rows).
class QuadTreeBuilder {
 public:
  QuadTreeBuilder(const std::vector<DenseColumn>& columns, size_t num_rows,
                  const PartitionOptions& options)
      : columns_(columns), options_(options) {
    // Value range per attribute over all the rows (split-score
    // normalization). The fold order can only change the sign of a zero
    // bound, which no difference hi - lo can show.
    attr_scale_.assign(columns_.size(), 0.0);
    for (size_t k = 0; k < columns_.size(); ++k) {
      double lo = std::numeric_limits<double>::infinity(), hi = -lo;
      simd::FoldMinMax(columns_[k].values, static_cast<uint32_t>(num_rows),
                       &lo, &hi);
      attr_scale_[k] = num_rows > 0 ? hi - lo : 0.0;
    }
  }

  /// Split `rows` into groups (appended to `groups`, each keeping the
  /// rows' relative order) and their radii.
  void Build(std::vector<RowId> rows,
             std::vector<std::vector<RowId>>* groups,
             std::vector<double>* radius) {
    groups_ = groups;
    radius_ = radius;
    Split(std::move(rows), 0);
  }

 private:
  void Split(std::vector<RowId> rows, int depth) {
    if (rows.empty()) return;
    // Per-attribute centroid and radius, in parallel across attribute
    // passes; each attribute's fold stays serial, so the result is
    // bit-identical for any worker count.
    const size_t k_attrs = columns_.size();
    std::vector<double> centroid(k_attrs), attr_radius(k_attrs);
    ParallelIndexFor(
        (k_attrs + kFoldWidth - 1) / kFoldWidth, options_.threads,
        [&](size_t pass) {
          FoldGroup(columns_, pass * kFoldWidth, rows, centroid.data(),
                    attr_radius.data());
        });
    double radius = 0;
    for (double r : attr_radius) radius = std::max(radius, r);
    bool size_ok = rows.size() <= options_.size_threshold;
    bool radius_ok = radius <= options_.radius_limit;
    if ((size_ok && radius_ok) || depth >= options_.max_depth) {
      Finalize(std::move(rows), radius);
      return;
    }
    // Partition around the centroid into sub-quadrants. Splitting on all k
    // attributes at once would create up to 2^k children and shatter the
    // data far below the size threshold when k is large (the Galaxy
    // workload has 12+ attributes); instead each level splits on the
    // attributes that most need it — those with the largest spread (or,
    // when the radius condition binds, the largest per-attribute radius) —
    // using just enough of them to meet the size threshold, with a fan-out
    // cap of 2^4 per level. Deeper levels handle the rest, so the result
    // still satisfies both conditions while keeping groups near tau.
    std::vector<size_t> split_attrs =
        ChooseSplitAttributes(rows.size(), attr_radius, size_ok);
    std::array<std::vector<RowId>, kMaxQuadrants> quadrants =
        SplitQuadrants(rows, split_attrs, centroid);
    size_t nonempty = 0;
    for (const auto& q : quadrants) nonempty += q.empty() ? 0 : 1;
    if (nonempty <= 1) {
      // Degenerate: all rows coincide on the partitioning attributes (the
      // radius is then 0). Split by size alone into tau-sized chunks —
      // identical tuples are interchangeable, so any chunking is valid.
      size_t chunk = std::max<size_t>(1, options_.size_threshold);
      for (size_t start = 0; start < rows.size(); start += chunk) {
        size_t end = std::min(rows.size(), start + chunk);
        std::vector<RowId> part(rows.begin() + start, rows.begin() + end);
        Finalize(std::move(part), 0.0);
      }
      return;
    }
    // The children hold every row; release the parent's list before
    // recursing. Children go in ascending mask order (deterministic).
    std::vector<RowId>().swap(rows);
    for (auto& quadrant : quadrants) {
      if (quadrant.empty()) continue;
      Split(std::move(quadrant), depth + 1);
    }
  }

  /// Bucket `rows` by quadrant: bit k of a row's mask is set when its value
  /// of split attribute k lies above the centroid. Each bucket keeps the
  /// rows' order and is allocated once, at its final size.
  std::array<std::vector<RowId>, kMaxQuadrants> SplitQuadrants(
      const std::vector<RowId>& rows, const std::vector<size_t>& split_attrs,
      const std::vector<double>& centroid) const {
    const size_t width = split_attrs.size();
    std::array<const double*, kMaxSplitAttributes> values;
    std::array<double, kMaxSplitAttributes> center;
    for (size_t k = 0; k < width; ++k) {
      values[k] = columns_[split_attrs[k]].values;
      center[k] = centroid[split_attrs[k]];
    }
    // Masks, and bucket sizes counted in four interleaved histograms so
    // that runs of one quadrant do not serialize on a single counter.
    std::vector<uint8_t> mask(rows.size());
    std::array<std::array<size_t, kMaxQuadrants>, 4> counts{};
    for (size_t i = 0; i < rows.size(); ++i) {
      unsigned bits = 0;
      for (size_t k = 0; k < width; ++k) {
        bits |= static_cast<unsigned>(values[k][rows[i]] > center[k]) << k;
      }
      mask[i] = static_cast<uint8_t>(bits);
      ++counts[i & 3][bits];
    }
    std::array<std::vector<RowId>, kMaxQuadrants> quadrants;
    std::array<RowId*, kMaxQuadrants> cursor;
    for (size_t q = 0; q < kMaxQuadrants; ++q) {
      quadrants[q].resize(counts[0][q] + counts[1][q] + counts[2][q] +
                          counts[3][q]);
      cursor[q] = quadrants[q].data();
    }
    for (size_t i = 0; i < rows.size(); ++i) *cursor[mask[i]]++ = rows[i];
    return quadrants;
  }

  /// Indices (into columns_) of the attributes to split on at this level,
  /// from the group's per-attribute radii. `size_ok` tells whether only
  /// the radius condition is violated.
  std::vector<size_t> ChooseSplitAttributes(
      size_t num_rows, const std::vector<double>& attr_radius,
      bool size_ok) const {
    // Score each attribute by its radius around the centroid. For size
    // violations the radius is normalized by the attribute's full-table
    // scale so wide-scaled attributes (flux in the thousands) do not starve
    // narrow ones (redshift near zero) of splits; for radius violations the
    // raw radius is the binding quantity.
    std::vector<std::pair<double, size_t>> scored(columns_.size());
    for (size_t k = 0; k < columns_.size(); ++k) {
      const double radius = attr_radius[k];
      double score = size_ok ? radius
                             : (attr_scale_[k] > 0 ? radius / attr_scale_[k]
                                                   : 0.0);
      scored[k] = {score, k};
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;  // deterministic tie-break
    });
    size_t want;
    if (!size_ok) {
      // Enough binary splits to bring size under tau (assuming balanced
      // children), capped at 4 (16-way fan-out per level).
      double excess = static_cast<double>(num_rows) /
                      static_cast<double>(options_.size_threshold);
      want = static_cast<size_t>(std::ceil(std::log2(std::max(excess, 2.0))));
    } else {
      // Only the radius condition binds: split every attribute whose radius
      // exceeds the limit (capped).
      want = 0;
      for (const auto& [radius, _] : scored) {
        if (radius > options_.radius_limit) ++want;
      }
    }
    want = std::clamp<size_t>(
        want, 1, std::min<size_t>(kMaxSplitAttributes, columns_.size()));
    std::vector<size_t> out;
    for (size_t k = 0; k < want; ++k) out.push_back(scored[k].second);
    return out;
  }

  void Finalize(std::vector<RowId> rows, double radius) {
    groups_->push_back(std::move(rows));
    radius_->push_back(radius);
  }

  const std::vector<DenseColumn>& columns_;
  const PartitionOptions& options_;
  std::vector<double> attr_scale_;
  std::vector<std::vector<RowId>>* groups_ = nullptr;
  std::vector<double>* radius_ = nullptr;
};

// --- Representative relation ----------------------------------------------

/// The representative relation from per-column group means (`means[c][g]`,
/// empty for string columns): numeric columns hold the group centroid,
/// string columns are NULL, and a trailing gid column numbers the rows.
Table AssembleRepresentatives(const ColumnSource& table,
                              const std::vector<std::vector<double>>& means,
                              size_t num_groups) {
  std::vector<ColumnDef> defs = table.schema().columns();
  // The trailing group-id column is conventionally "gid"; when the source
  // already has one (e.g. a representative relation being partitioned in
  // turn), pick the first free suffixed name.
  std::string gid_name = "gid";
  for (int suffix = 2; table.schema().FindColumn(gid_name).has_value();
       ++suffix) {
    gid_name = StrCat("gid_", suffix);
  }
  defs.push_back({gid_name, DataType::kInt64});
  Table reps{Schema(std::move(defs))};
  reps.Reserve(num_groups);
  std::vector<Value> row(table.num_columns() + 1);
  for (size_t g = 0; g < num_groups; ++g) {
    // Averaging ignores NULLs? For simplicity, NULLs read as 0 here; the
    // benchmark workloads pre-filter NULL rows per the paper's setup.
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row[c] = means[c].empty() ? Value::Null() : Value(means[c][g]);
    }
    row[table.num_columns()] = Value(static_cast<int64_t>(g));
    reps.AppendRowUnchecked(row);
  }
  return reps;
}

bool IsNumeric(const ColumnSource& table, size_t col) {
  return table.schema().column(col).type != DataType::kString;
}

/// Representatives of arbitrary row lists: one chunked gather per (group,
/// column), in parallel across groups. Column-major, so an out-of-core
/// source keeps one column's blocks in its cache at a time.
Table GatherRepresentatives(const ColumnSource& table,
                            const Partitioning& partitioning, int threads) {
  const size_t num_groups = partitioning.groups.size();
  std::vector<std::vector<double>> means(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!IsNumeric(table, c)) continue;
    means[c].resize(num_groups);
    ParallelIndexFor(num_groups, threads, [&](size_t g) {
      means[c][g] = relation::GatherMean(table, c, partitioning.groups[g]);
    });
  }
  return AssembleRepresentatives(table, means, num_groups);
}

/// Representatives of a partitioning that covers every row and lists each
/// group's rows in ascending order (every PartitionTable artifact: the
/// quad-tree starts from 0..n-1 and every split keeps the rows' order).
/// The numeric columns are read once, front to back, a block-sized window
/// at a time, and every row adds its values into its group's sums: a
/// group's sums then accumulate in its list order, so the means equal the
/// gathered ones bit for bit. Adding a row's columns side by side keeps
/// many independent add chains in flight. `dense[k]` already holds column
/// `dense_cols[k]`; workers take disjoint slices of the columns.
Table ScanRepresentatives(const ColumnSource& table,
                          const Partitioning& partitioning,
                          const std::vector<size_t>& dense_cols,
                          const std::vector<DenseColumn>& dense,
                          int threads) {
  const size_t n = table.num_rows();
  const size_t num_groups = partitioning.groups.size();
  std::vector<size_t> numeric;
  std::vector<const double*> whole;  // in-place arrays; null = read windows
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!IsNumeric(table, c)) continue;
    auto have = std::find(dense_cols.begin(), dense_cols.end(), c);
    numeric.push_back(c);
    whole.push_back(have != dense_cols.end()
                        ? dense[have - dense_cols.begin()].values
                        : table.ContiguousDoubles(c));
  }
  std::vector<std::vector<double>> means(table.num_columns());
  const size_t slices =
      std::min<size_t>(std::max(threads, 1), numeric.size());
  ParallelIndexFor(slices, threads, [&](size_t slice) {
    const size_t first = numeric.size() * slice / slices;
    const size_t width = numeric.size() * (slice + 1) / slices - first;
    std::vector<double> sums(num_groups * width, 0.0);  // [group][column]
    std::vector<std::vector<double>> windows(width);
    std::vector<const double*> window(width);
    for (size_t start = 0; start < n; start += kMorselRows) {
      const size_t len = std::min(kMorselRows, n - start);
      for (size_t j = 0; j < width; ++j) {
        if (whole[first + j] != nullptr) {
          window[j] = whole[first + j] + start;
          continue;
        }
        windows[j].resize(kMorselRows);
        ReadRange(table, numeric[first + j], start, len, windows[j].data());
        window[j] = windows[j].data();
      }
      for (size_t i = 0; i < len; ++i) {
        double* sum = sums.data() + partitioning.gid[start + i] * width;
        for (size_t j = 0; j < width; ++j) sum[j] += window[j][i];
      }
    }
    for (size_t j = 0; j < width; ++j) {
      std::vector<double>& mean = means[numeric[first + j]];
      mean.resize(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        mean[g] = sums[g * width + j] /
                  static_cast<double>(partitioning.groups[g].size());
      }
    }
  });
  return AssembleRepresentatives(table, means, num_groups);
}

std::vector<size_t> ResolveNumericColumns(const ColumnSource& table,
                                          const std::vector<std::string>& names,
                                          Status* status) {
  std::vector<size_t> cols;
  for (const auto& name : names) {
    auto idx = table.schema().ResolveColumn(name);
    if (!idx.ok()) {
      *status = idx.status();
      return {};
    }
    if (table.schema().column(*idx).type == DataType::kString) {
      *status = Status::InvalidArgument(
          StrCat("partitioning attribute '", name, "' is not numeric"));
      return {};
    }
    cols.push_back(*idx);
  }
  *status = Status::OK();
  return cols;
}

/// The partitioning columns of `options`, after checking the options.
Result<std::vector<size_t>> ResolveOptions(const ColumnSource& table,
                                           const PartitionOptions& options) {
  if (options.size_threshold == 0) {
    return Status::InvalidArgument("size_threshold must be positive");
  }
  if (options.attributes.empty()) {
    return Status::InvalidArgument("no partitioning attributes given");
  }
  Status status;
  std::vector<size_t> cols =
      ResolveNumericColumns(table, options.attributes, &status);
  PAQL_RETURN_IF_ERROR(status);
  return cols;
}

}  // namespace

size_t Partitioning::max_group_size() const {
  size_t best = 0;
  for (const auto& g : groups) best = std::max(best, g.size());
  return best;
}

Result<Partitioning> PartitionTable(const ColumnSource& table,
                                    const PartitionOptions& options) {
  Stopwatch watch;
  const int64_t decoded_before = table.BlocksDecoded();
  PAQL_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                        ResolveOptions(table, options));
  std::vector<DenseColumn> columns(cols.size());
  ParallelIndexFor(cols.size(), options.threads, [&](size_t k) {
    columns[k] = ReadColumn(table, cols[k]);
  });

  Partitioning out;
  out.attributes = options.attributes;
  out.size_threshold = options.size_threshold;
  out.radius_limit = options.radius_limit;
  std::vector<RowId> all(table.num_rows());
  std::iota(all.begin(), all.end(), RowId{0});
  QuadTreeBuilder(columns, table.num_rows(), options)
      .Build(std::move(all), &out.groups, &out.radius);
  out.gid.assign(table.num_rows(), 0);
  for (size_t g = 0; g < out.groups.size(); ++g) {
    for (RowId r : out.groups[g]) out.gid[r] = static_cast<uint32_t>(g);
  }
  out.representatives =
      ScanRepresentatives(table, out, cols, columns, options.threads);
  out.build_seconds = watch.ElapsedSeconds();
  out.build_block_reads = table.BlocksDecoded() - decoded_before;
  return out;
}

Result<std::vector<std::vector<RowId>>> QuadTreeGroups(
    const ColumnSource& table, const std::vector<RowId>& rows,
    const PartitionOptions& options) {
  PAQL_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                        ResolveOptions(table, options));
  for (RowId r : rows) {
    if (r >= table.num_rows()) {
      return Status::InvalidArgument(StrCat("row ", r, " out of range"));
    }
  }
  // The tree runs over positions in `rows`, then maps back to row ids.
  std::vector<DenseColumn> columns(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    columns[k] = GatherColumn(table, cols[k], rows);
  }
  std::vector<RowId> positions(rows.size());
  std::iota(positions.begin(), positions.end(), RowId{0});
  std::vector<std::vector<RowId>> groups;
  std::vector<double> radius;
  QuadTreeBuilder(columns, rows.size(), options)
      .Build(std::move(positions), &groups, &radius);
  for (auto& group : groups) {
    for (RowId& r : group) r = rows[r];
  }
  return groups;
}

Result<Partitioning> MakePartitioningFromGroups(
    const ColumnSource& table, const std::vector<std::string>& attributes,
    size_t size_threshold, double radius_limit,
    std::vector<std::vector<RowId>> groups, int threads) {
  Status status;
  std::vector<size_t> cols = ResolveNumericColumns(table, attributes, &status);
  PAQL_RETURN_IF_ERROR(status);

  Partitioning out;
  out.attributes = attributes;
  out.size_threshold = size_threshold;
  out.radius_limit = radius_limit;
  out.gid.assign(table.num_rows(), kNoGroup);
  out.groups = std::move(groups);
  out.radius.resize(out.groups.size());
  for (size_t g = 0; g < out.groups.size(); ++g) {
    if (out.groups[g].empty()) {
      return Status::InvalidArgument(StrCat("group ", g, " is empty"));
    }
    for (RowId r : out.groups[g]) {
      if (r >= table.num_rows()) {
        return Status::InvalidArgument(StrCat("row ", r, " out of range"));
      }
      if (out.gid[r] != kNoGroup) {
        return Status::InvalidArgument(StrCat("row ", r, " in two groups"));
      }
      out.gid[r] = static_cast<uint32_t>(g);
    }
  }
  // Per-group radii, one group per worker (each group's float accumulation
  // stays serial, so the artifact is identical for any worker count).
  ParallelIndexFor(out.groups.size(), threads, [&](size_t g) {
    std::vector<double> centroid = GroupCentroid(table, out.groups[g], cols);
    out.radius[g] = GroupRadius(table, out.groups[g], cols, centroid);
  });
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (out.gid[r] == kNoGroup && !table.RowDeleted(r)) {
      return Status::InvalidArgument(
          StrCat("live row ", r, " not covered by any group"));
    }
  }
  out.representatives = GatherRepresentatives(table, out, threads);
  return out;
}

Result<Partitioning> ShrinkToSubset(const ColumnSource& table,
                                    const Partitioning& partitioning,
                                    const std::vector<RowId>& subset,
                                    int threads) {
  for (RowId old_row : subset) {
    if (old_row >= partitioning.gid.size()) {
      return Status::InvalidArgument("subset row out of range");
    }
  }
  Table sub = relation::MaterializeRows(table, subset);
  // Remap groups onto the subset, dropping emptied groups.
  std::vector<std::vector<RowId>> new_groups;
  std::vector<uint32_t> dense_id(partitioning.num_groups(), UINT32_MAX);
  Partitioning out;
  out.attributes = partitioning.attributes;
  out.size_threshold = partitioning.size_threshold;
  out.radius_limit = partitioning.radius_limit;
  out.gid.assign(subset.size(), 0);
  for (size_t k = 0; k < subset.size(); ++k) {
    uint32_t old_g = partitioning.gid[subset[k]];
    if (dense_id[old_g] == UINT32_MAX) {
      dense_id[old_g] = static_cast<uint32_t>(new_groups.size());
      new_groups.emplace_back();
    }
    uint32_t g = dense_id[old_g];
    out.gid[k] = g;
    new_groups[g].push_back(static_cast<RowId>(k));
  }
  out.groups = std::move(new_groups);

  // Recompute radii over the subset.
  Status status;
  std::vector<size_t> cols =
      ResolveNumericColumns(sub, out.attributes, &status);
  PAQL_RETURN_IF_ERROR(status);
  out.radius.resize(out.groups.size());
  // One group per worker, serial float work within each (see
  // MakePartitioningFromGroups).
  ParallelIndexFor(out.groups.size(), threads, [&](size_t g) {
    std::vector<double> centroid = GroupCentroid(sub, out.groups[g], cols);
    out.radius[g] = GroupRadius(sub, out.groups[g], cols, centroid);
  });
  out.representatives = GatherRepresentatives(sub, out, threads);
  return out;
}

Result<double> RadiusLimitForEpsilon(const ColumnSource& table,
                                     const std::vector<std::string>& attributes,
                                     double epsilon, bool maximize) {
  if (epsilon < 0 || (maximize && epsilon >= 1)) {
    return Status::InvalidArgument(
        "epsilon must be >= 0 (and < 1 for maximization queries)");
  }
  Status status;
  std::vector<size_t> cols = ResolveNumericColumns(table, attributes, &status);
  PAQL_RETURN_IF_ERROR(status);
  double min_abs = std::numeric_limits<double>::infinity();
  for (size_t c : cols) {
    min_abs = std::min(min_abs, relation::ColumnMinAbs(table, c));
  }
  if (std::isinf(min_abs)) {
    return Status::InvalidArgument("empty table");
  }
  double gamma = maximize ? epsilon : epsilon / (1.0 + epsilon);
  return gamma * min_abs;
}

Status SavePartitioning(const Partitioning& partitioning,
                        const std::string& path_prefix) {
  // gid assignment as a single-column table.
  Table gid_table{Schema({{"gid", DataType::kInt64}})};
  gid_table.Reserve(partitioning.gid.size());
  for (uint32_t g : partitioning.gid) {
    gid_table.AppendRowUnchecked({Value(static_cast<int64_t>(g))});
  }
  PAQL_RETURN_IF_ERROR(
      relation::WriteCsv(gid_table, path_prefix + ".gid.csv"));
  return relation::WriteCsv(partitioning.representatives,
                            path_prefix + ".reps.csv");
}

Result<Partitioning> LoadPartitioning(const ColumnSource& table,
                                      const std::string& path_prefix) {
  PAQL_ASSIGN_OR_RETURN(Table gid_table,
                        relation::ReadCsv(path_prefix + ".gid.csv"));
  PAQL_ASSIGN_OR_RETURN(Table reps,
                        relation::ReadCsv(path_prefix + ".reps.csv"));
  if (gid_table.num_rows() != table.num_rows()) {
    return Status::InvalidArgument(
        StrCat("partitioning covers ", gid_table.num_rows(),
               " rows but the table has ", table.num_rows()));
  }
  Partitioning out;
  out.representatives = std::move(reps);
  out.gid.resize(table.num_rows());
  out.groups.resize(out.representatives.num_rows());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    int64_t g = gid_table.GetInt64(r, 0);
    if (g < 0 || static_cast<size_t>(g) >= out.groups.size()) {
      return Status::InvalidArgument(StrCat("row ", r, " has bad gid ", g));
    }
    out.gid[r] = static_cast<uint32_t>(g);
    out.groups[static_cast<size_t>(g)].push_back(r);
  }
  out.radius.assign(out.groups.size(), 0.0);  // radii are not persisted
  out.size_threshold = out.max_group_size();
  out.radius_limit = std::numeric_limits<double>::infinity();
  return out;
}

}  // namespace paql::partition
