// Offline data partitioning for SKETCHREFINE (Section 4.1 of the paper).
//
// The input relation is recursively split with a k-dimensional quad-tree:
// each oversized (or over-radius) group is divided into up to 2^k
// sub-quadrants around its centroid, until every group satisfies the size
// threshold tau and the radius limit omega. Each group's representative is
// its centroid. Representatives are stored in a representative relation
// R~(attr1..attrn, gid) whose row g corresponds to group g, mirroring the
// paper's construction.
//
// Two paper details are implemented faithfully:
//  * "no radius condition" mode (omega = +inf), which the paper uses for
//    most experiments;
//  * deriving partitionings for smaller dataset fractions by dropping rows
//    while keeping group boundaries (this preserves the size condition).
//
// How PartitionTable reads the source: the partitioning attributes only,
// each once, front to back.
//  * The k partitioning attributes are read into dense arrays before the
//    tree is built; every level's centroid sums, radius folds and quadrant
//    masks then index those arrays. An in-memory DOUBLE column is used in
//    place (ColumnSource::ContiguousDoubles); any other column costs
//    8 bytes per row, so the extra memory is about k x 8 B x rows for an
//    out-of-core or versioned source.
//  * Each group's centroid on the attributes is the one the tree computed
//    when it finalized the group, so the representative relation's
//    attribute columns cost no further read.
//  * Every other numeric column of the representative relation is filled
//    on demand, the first time a reader asks for it
//    (Partitioning::Representatives): a query that aggregates three
//    columns of a fourteen-column table reads three. Artifacts derived
//    from another (ShrinkToSubset, AbsorbBatch) keep the columns it had
//    filled.
// Sums stay scalar in row-list order, and the radii and attribute ranges
// are maxima and minima that no visiting order changes, so every column,
// however it is filled, is bit-identical to a mean gathered group by
// group, on an in-memory, out-of-core or versioned source alike.
#ifndef PAQL_PARTITION_PARTITIONER_H_
#define PAQL_PARTITION_PARTITIONER_H_

#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::partition {

struct PartitionOptions {
  /// Partitioning attributes A (numeric columns of the input relation).
  std::vector<std::string> attributes;

  /// Size threshold tau: every group ends up with at most this many rows.
  size_t size_threshold = 0;

  /// Radius limit omega: max |representative.attr - tuple.attr| allowed
  /// within a group, per partitioning attribute. Infinity = no radius
  /// condition (the paper's default experimental setting).
  double radius_limit = std::numeric_limits<double>::infinity();

  /// Safety valve against pathological recursion.
  int max_depth = 64;

  /// Workers for the offline statistics, drawn from the shared pool;
  /// <= 1 = serial. PartitionTable reads the partitioning columns and
  /// folds each level's per-attribute centroids and radii in parallel
  /// across attributes; MakePartitioningFromGroups works in parallel
  /// across groups. Each
  /// order-sensitive float sum stays inside one worker, so the
  /// partitioning is bit-for-bit identical for any worker count.
  int threads = 1;
};

/// Sentinel gid for rows outside every group. Only deleted rows of a
/// versioned table (relation/table_version.h) may carry it: live rows are
/// always covered (MakePartitioningFromGroups enforces this).
inline constexpr uint32_t kNoGroup = UINT32_MAX;

/// A table whose columns are filled one at a time, each at most once, by
/// whichever reader first needs it. Unfilled columns read NULL. The fill
/// runs under a lock; a column's values are written before its flag is
/// published, and a filled column is never written again, so readers of
/// filled columns never wait and concurrent readers all see the same bits.
/// Copies take the filled columns with them.
class LazyColumnTable {
 public:
  LazyColumnTable() = default;
  /// A table of `num_rows` rows over `schema`, every cell NULL and no
  /// column filled.
  LazyColumnTable(relation::Schema schema, size_t num_rows);
  LazyColumnTable(const LazyColumnTable& other);
  LazyColumnTable& operator=(const LazyColumnTable& other);
  LazyColumnTable(LazyColumnTable&& other) noexcept;
  LazyColumnTable& operator=(LazyColumnTable&& other) noexcept;

  /// The table with every column of `cols` filled: `compute(col)` returns
  /// the num_rows() values of each column not yet filled (stored through
  /// Table::SetValue, so an INT64 column keeps their integer part).
  /// Returns how many columns this call computed in `*computed`.
  const relation::Table& Fill(
      const std::vector<size_t>& cols,
      const std::function<std::vector<double>(size_t)>& compute,
      size_t* computed = nullptr) const;

  bool filled(size_t col) const {
    return col < filled_.size() && filled_[col].load(std::memory_order_acquire);
  }
  /// The filled columns, ascending.
  std::vector<size_t> filled_columns() const;

 private:
  mutable std::mutex mu_;
  mutable relation::Table table_;  // a column is written only before its flag
  mutable std::vector<std::atomic<bool>> filled_;
};

/// What one Partitioning::Representatives call computed.
struct RepresentativeFill {
  size_t columns = 0;       // columns filled by this call
  int64_t block_reads = 0;  // blocks the source decoded for them
};

/// The partitioning artifact P = {(G_j, t~_j)}.
struct Partitioning {
  std::vector<std::string> attributes;  // copy of the partitioning attrs
  size_t size_threshold = 0;
  double radius_limit = 0;

  /// Per-row group id, dense in [0, num_groups()); kNoGroup for deleted
  /// rows of a versioned table.
  std::vector<uint32_t> gid;

  /// Rows of each group.
  std::vector<std::vector<relation::RowId>> groups;

  /// Group radii over the partitioning attributes.
  std::vector<double> radius;

  /// Representative relation R~: same columns as the source table plus a
  /// trailing INT64 `gid` column; row g is the representative of group g.
  /// A numeric column holds the group centroid once filled and NULL
  /// before; string columns are always NULL. The partitioning attributes
  /// are filled when the artifact is made, every other numeric column on
  /// the first Representatives() call that names it.
  LazyColumnTable representatives;

  /// What PartitionTable spent on this artifact: wall time, and blocks the
  /// source decoded from storage meanwhile (0 for in-memory sources; see
  /// ColumnSource::BlocksDecoded). Zero for artifacts made any other way.
  double build_seconds = 0;
  int64_t build_block_reads = 0;

  size_t num_groups() const { return groups.size(); }

  /// The representative relation with numeric columns `cols` of `table`
  /// filled. `table` is the relation the partitioning was made over, or a
  /// later version of it with rows appended (row ids are stable, so the
  /// groups' rows read the same values). A missing column is computed
  /// once, thread-safely: each group's mean, summed in the group's
  /// row-list order, read by one front-to-back scan of the column when
  /// every group lists its rows in ascending order and by a gather per
  /// group otherwise. `fill` (optional) accumulates what this call
  /// computed.
  const relation::Table& Representatives(
      const relation::ColumnSource& table, const std::vector<size_t>& cols,
      RepresentativeFill* fill = nullptr) const;

  /// The source columns whose representatives are filled, ascending (the
  /// trailing group-id column, filled from the start, is not listed).
  std::vector<size_t> filled_representative_columns() const;

  /// Largest group size (must be <= size_threshold).
  size_t max_group_size() const;
};

/// Partition `table` per `options`.
Result<Partitioning> PartitionTable(const relation::ColumnSource& table,
                                    const PartitionOptions& options);

/// The quad-tree groups of a row subset of `table`, given in any order:
/// exactly the groups PartitionTable would make of a table holding just
/// those rows in that order, as lists of `table` row ids (each in the
/// subset's relative order). Builds no representatives; incremental
/// maintenance (dynamic_update.h) splits an overgrown group with it.
Result<std::vector<std::vector<relation::RowId>>> QuadTreeGroups(
    const relation::ColumnSource& table,
    const std::vector<relation::RowId>& rows, const PartitionOptions& options);

/// Assemble a Partitioning artifact from an explicit group assignment:
/// computes gids, centroids and radii, and fills the representative
/// relation's attribute columns with the centroids. Groups
/// must be disjoint and cover every live row of `table` (deleted rows of a
/// versioned table may be left out; they get gid == kNoGroup). Shared by
/// all partitioning methods (quad tree, k-means, k-d tree, grid) so that
/// they produce interchangeable artifacts.
Result<Partitioning> MakePartitioningFromGroups(
    const relation::ColumnSource& table, const std::vector<std::string>& attributes,
    size_t size_threshold, double radius_limit,
    std::vector<std::vector<relation::RowId>> groups, int threads = 1);

/// Restrict a partitioning to a row subset of the same table (used by the
/// scalability experiments, which shrink datasets to 10%..100%). Group
/// boundaries are preserved; centroids, radii, sizes and the representative
/// columns `partitioning` had filled are recomputed on the surviving rows;
/// emptied groups are dropped. `subset` maps new row
/// ids to old ones: new table row k == old table row subset[k].
Result<Partitioning> ShrinkToSubset(const relation::ColumnSource& table,
                                    const Partitioning& partitioning,
                                    const std::vector<relation::RowId>& subset,
                                    int threads = 1);

/// Conservative radius limit for a target approximation factor epsilon
/// (Theorem 3, Eq. 1): omega = gamma * min over representatives and
/// attributes of |t~.attr|. Since representatives are unknown before
/// partitioning, this helper lower-bounds the formula with the minimum
/// absolute attribute value over the *tuples* (valid when each attribute
/// keeps a constant sign, which the guarantee-test workloads ensure).
/// gamma = epsilon for maximization, epsilon / (1 + epsilon) otherwise.
Result<double> RadiusLimitForEpsilon(const relation::ColumnSource& table,
                                     const std::vector<std::string>& attributes,
                                     double epsilon, bool maximize);

}  // namespace paql::partition

#endif  // PAQL_PARTITION_PARTITIONER_H_
