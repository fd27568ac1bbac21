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
  /// rows' relative order), their radii and, when `centroids` is given,
  /// their centroids (appended group-major: one value per attribute).
  void Build(std::vector<RowId> rows,
             std::vector<std::vector<RowId>>* groups,
             std::vector<double>* radius,
             std::vector<double>* centroids = nullptr) {
    groups_ = groups;
    radius_ = radius;
    centroids_ = centroids;
    Split(std::move(rows), 0);
  }

 private:
  /// Per-attribute centroid and radius of the non-empty group `rows`, in
  /// parallel across attribute passes; each attribute's fold stays serial,
  /// so the result is bit-identical for any worker count.
  void Fold(const std::vector<RowId>& rows, std::vector<double>* centroid,
            std::vector<double>* attr_radius) const {
    const size_t k_attrs = columns_.size();
    centroid->resize(k_attrs);
    attr_radius->resize(k_attrs);
    ParallelIndexFor(
        (k_attrs + kFoldWidth - 1) / kFoldWidth, options_.threads,
        [&](size_t pass) {
          FoldGroup(columns_, pass * kFoldWidth, rows, centroid->data(),
                    attr_radius->data());
        });
  }

  void Split(std::vector<RowId> rows, int depth) {
    if (rows.empty()) return;
    std::vector<double> centroid, attr_radius;
    Fold(rows, &centroid, &attr_radius);
    double radius = 0;
    for (double r : attr_radius) radius = std::max(radius, r);
    bool size_ok = rows.size() <= options_.size_threshold;
    bool radius_ok = radius <= options_.radius_limit;
    if ((size_ok && radius_ok) || depth >= options_.max_depth) {
      Finalize(std::move(rows), radius, centroid);
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
      // A chunk's centroid is its own mean, which the rounding of the sum
      // may set apart from the parent's.
      size_t chunk = std::max<size_t>(1, options_.size_threshold);
      for (size_t start = 0; start < rows.size(); start += chunk) {
        size_t end = std::min(rows.size(), start + chunk);
        std::vector<RowId> part(rows.begin() + start, rows.begin() + end);
        if (centroids_ != nullptr) Fold(part, &centroid, &attr_radius);
        Finalize(std::move(part), 0.0, centroid);
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

  void Finalize(std::vector<RowId> rows, double radius,
                const std::vector<double>& centroid) {
    groups_->push_back(std::move(rows));
    radius_->push_back(radius);
    if (centroids_ != nullptr) {
      centroids_->insert(centroids_->end(), centroid.begin(), centroid.end());
    }
  }

  const std::vector<DenseColumn>& columns_;
  const PartitionOptions& options_;
  std::vector<double> attr_scale_;
  std::vector<std::vector<RowId>>* groups_ = nullptr;
  std::vector<double>* radius_ = nullptr;
  std::vector<double>* centroids_ = nullptr;
};

// --- Representative relation ----------------------------------------------

/// An empty representative relation for `num_groups` groups of `table`:
/// the source columns, every cell NULL, plus a trailing INT64 group-id
/// column numbering the rows.
LazyColumnTable NewRepresentatives(const ColumnSource& table,
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
  LazyColumnTable reps(Schema(std::move(defs)), num_groups);
  reps.Fill({table.num_columns()}, [&](size_t) {
    std::vector<double> ids(num_groups);
    std::iota(ids.begin(), ids.end(), 0.0);
    return ids;
  });
  return reps;
}

/// Fill the attribute columns `cols` of `reps` from per-group centroids
/// (`centroids[g * cols.size() + k]` is group g's mean of attribute k).
void FillCentroids(const LazyColumnTable& reps, const std::vector<size_t>& cols,
                   const std::vector<double>& centroids) {
  const size_t width = cols.size();
  const size_t num_groups = width == 0 ? 0 : centroids.size() / width;
  for (size_t k = 0; k < width; ++k) {
    reps.Fill({cols[k]}, [&](size_t) {
      std::vector<double> means(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        means[g] = centroids[g * width + k];
      }
      return means;
    });
  }
}

/// Each group's mean of numeric column `col`, summed in the group's
/// row-list order. When every group lists its rows in ascending order
/// (every PartitionTable artifact: the quad-tree starts from 0..n-1 and
/// each split keeps the rows' order), one front-to-back pass over the
/// column, a block-sized window at a time, adds each row into its group's
/// sum: the sums then accumulate in list order, equal to the gathered
/// ones bit for bit, and an out-of-core source decodes each block once.
/// Other artifacts (AbsorbBatch merges, k-means) gather per group. NULLs
/// read as their stored value (0); the benchmark workloads pre-filter
/// NULL rows per the paper's setup.
std::vector<double> GroupMeans(const ColumnSource& table,
                               const Partitioning& partitioning, size_t col) {
  const size_t num_groups = partitioning.groups.size();
  std::vector<double> means(num_groups, 0.0);
  const bool ascending = std::all_of(
      partitioning.groups.begin(), partitioning.groups.end(),
      [](const std::vector<RowId>& rows) {
        return std::is_sorted(rows.begin(), rows.end());
      });
  if (!ascending) {
    for (size_t g = 0; g < num_groups; ++g) {
      means[g] = relation::GatherMean(table, col, partitioning.groups[g]);
    }
    return means;
  }
  const size_t n = partitioning.gid.size();
  const double* whole = table.ContiguousDoubles(col);
  std::vector<double> window(whole != nullptr ? 0 : kMorselRows);
  for (size_t start = 0; start < n; start += kMorselRows) {
    const size_t len = std::min(kMorselRows, n - start);
    const double* values = whole != nullptr ? whole + start : window.data();
    if (whole == nullptr) ReadRange(table, col, start, len, window.data());
    for (size_t i = 0; i < len; ++i) {
      const uint32_t g = partitioning.gid[start + i];
      if (g != kNoGroup) means[g] += values[i];
    }
  }
  for (size_t g = 0; g < num_groups; ++g) {
    if (!partitioning.groups[g].empty()) {
      means[g] /= static_cast<double>(partitioning.groups[g].size());
    }
  }
  return means;
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

/// The radii of `out`'s groups over the attribute columns `cols` and its
/// representative relation with those columns filled: per group, one
/// chunked gather (relation/chunk.h) per attribute for the centroid,
/// accumulated in list order, then the max |value - centroid|. One group
/// per worker; each group's float work stays serial, so the artifact is
/// identical for any worker count.
void CentroidsAndRadii(const ColumnSource& table,
                       const std::vector<size_t>& cols, int threads,
                       Partitioning* out) {
  const size_t width = cols.size();
  std::vector<double> centroids(out->groups.size() * width);
  out->radius.assign(out->groups.size(), 0.0);
  ParallelIndexFor(out->groups.size(), threads, [&](size_t g) {
    const std::vector<RowId>& rows = out->groups[g];
    double* centroid = centroids.data() + g * width;
    double radius = 0;
    for (size_t k = 0; k < width; ++k) {
      centroid[k] = relation::GatherMean(table, cols[k], rows);
      radius = std::max(radius, relation::GatherMaxAbsDeviation(
                                    table, cols[k], rows, centroid[k]));
    }
    out->radius[g] = radius;
  });
  out->representatives = NewRepresentatives(table, out->groups.size());
  FillCentroids(out->representatives, cols, centroids);
}

}  // namespace

LazyColumnTable::LazyColumnTable(Schema schema, size_t num_rows)
    : table_(std::move(schema)), filled_(table_.num_columns()) {
  table_.Reserve(num_rows);
  const std::vector<Value> nulls(table_.num_columns(), Value::Null());
  for (size_t r = 0; r < num_rows; ++r) table_.AppendRowUnchecked(nulls);
}

LazyColumnTable::LazyColumnTable(const LazyColumnTable& other) {
  *this = other;
}

LazyColumnTable& LazyColumnTable::operator=(const LazyColumnTable& other) {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(other.mu_);
  table_ = other.table_;
  std::vector<std::atomic<bool>> filled(other.filled_.size());
  for (size_t c = 0; c < filled.size(); ++c) {
    filled[c].store(other.filled_[c].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  filled_ = std::move(filled);
  return *this;
}

LazyColumnTable::LazyColumnTable(LazyColumnTable&& other) noexcept
    : table_(std::move(other.table_)), filled_(std::move(other.filled_)) {}

LazyColumnTable& LazyColumnTable::operator=(LazyColumnTable&& other) noexcept {
  table_ = std::move(other.table_);
  filled_ = std::move(other.filled_);
  return *this;
}

const Table& LazyColumnTable::Fill(
    const std::vector<size_t>& cols,
    const std::function<std::vector<double>(size_t)>& compute,
    size_t* computed) const {
  if (computed != nullptr) *computed = 0;
  if (std::all_of(cols.begin(), cols.end(),
                  [this](size_t c) { return filled(c); })) {
    return table_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t c : cols) {
    PAQL_CHECK_MSG(c < filled_.size(), "column " << c << " out of range");
    if (filled_[c].load(std::memory_order_relaxed)) continue;
    const std::vector<double> values = compute(c);
    PAQL_CHECK(values.size() == table_.num_rows());
    for (size_t r = 0; r < values.size(); ++r) {
      table_.SetValue(static_cast<RowId>(r), c, Value(values[r]));
    }
    filled_[c].store(true, std::memory_order_release);
    if (computed != nullptr) ++*computed;
  }
  return table_;
}

std::vector<size_t> LazyColumnTable::filled_columns() const {
  std::vector<size_t> out;
  for (size_t c = 0; c < filled_.size(); ++c) {
    if (filled(c)) out.push_back(c);
  }
  return out;
}

size_t Partitioning::max_group_size() const {
  size_t best = 0;
  for (const auto& g : groups) best = std::max(best, g.size());
  return best;
}

std::vector<size_t> Partitioning::filled_representative_columns() const {
  std::vector<size_t> out = representatives.filled_columns();
  // The trailing group-id column is filled from the start.
  if (!out.empty()) out.pop_back();
  return out;
}

const Table& Partitioning::Representatives(const ColumnSource& table,
                                           const std::vector<size_t>& cols,
                                           RepresentativeFill* fill) const {
  PAQL_CHECK_MSG(table.num_rows() >= gid.size(),
                 "the table has fewer rows than the partitioning covers");
  const int64_t decoded_before = table.BlocksDecoded();
  size_t computed = 0;
  const Table& reps = representatives.Fill(
      cols, [&](size_t col) { return GroupMeans(table, *this, col); },
      &computed);
  if (fill != nullptr && computed > 0) {
    fill->columns += computed;
    fill->block_reads += table.BlocksDecoded() - decoded_before;
  }
  return reps;
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
  std::vector<double> centroids;
  QuadTreeBuilder(columns, table.num_rows(), options)
      .Build(std::move(all), &out.groups, &out.radius, &centroids);
  out.gid.assign(table.num_rows(), 0);
  for (size_t g = 0; g < out.groups.size(); ++g) {
    for (RowId r : out.groups[g]) out.gid[r] = static_cast<uint32_t>(g);
  }
  out.representatives = NewRepresentatives(table, out.groups.size());
  FillCentroids(out.representatives, cols, centroids);
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
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (out.gid[r] == kNoGroup && !table.RowDeleted(r)) {
      return Status::InvalidArgument(
          StrCat("live row ", r, " not covered by any group"));
    }
  }
  CentroidsAndRadii(table, cols, threads, &out);
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

  // Recompute radii and the filled representative columns over the
  // subset.
  Status status;
  std::vector<size_t> cols =
      ResolveNumericColumns(sub, out.attributes, &status);
  PAQL_RETURN_IF_ERROR(status);
  CentroidsAndRadii(sub, cols, threads, &out);
  out.Representatives(sub, partitioning.filled_representative_columns());
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

}  // namespace paql::partition
