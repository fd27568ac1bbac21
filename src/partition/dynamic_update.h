// Incremental maintenance of an offline partitioning under updates.
//
// The paper treats partitioning as a one-time offline cost amortized over a
// query workload (Section 4.1, "One-time cost"). Real tables change, and
// re-partitioning from scratch on every batch would forfeit the
// amortization. This module absorbs one batch of appends + deletions into
// an existing partitioning:
//
//   1. each deleted row leaves its group (the group is marked dirty);
//      groups left underfull — below a quarter of the size threshold — are
//      dissolved, their surviving rows reassigned to the nearest remaining
//      group, and emptied groups are dropped;
//   2. each appended row joins the group with the nearest representative
//      (L-infinity distance over the partitioning attributes — the same
//      metric as the radius definition);
//   3. groups pushed over the size threshold tau or the radius limit omega
//      are split in place with the quad-tree partitioner;
//   4. the artifact (centroids, radii, gid map, representative relation) is
//      rebuilt over every group, with the representative columns the old
//      artifact had filled (the rest fill on demand, see partitioner.h).
//
// The result reports which groups changed ("dirty" groups), which is what
// incremental re-evaluation (core/incremental.h) needs: a package computed
// before the update remains valid on the untouched groups, so only dirty
// groups need re-refinement. The contract is: a group id absent from
// `dirty_groups` has exactly the same live membership (same row ids) as
// some group of the old partitioning, even though its id may have shifted
// when emptied groups were dropped.
#ifndef PAQL_PARTITION_DYNAMIC_UPDATE_H_
#define PAQL_PARTITION_DYNAMIC_UPDATE_H_

#include <vector>

#include "partition/partitioner.h"

namespace paql::partition {

/// Outcome of absorbing one batch.
struct AbsorbResult {
  /// Rebuilt artifact covering all live rows of the updated table. Group
  /// order is preserved for untouched groups; split groups occupy their
  /// old slot plus new slots at the end; dissolved/emptied groups are
  /// dropped (later groups shift down).
  Partitioning partitioning;

  /// Group ids (in the new artifact) whose membership changed: groups that
  /// received appended rows, lost deleted rows, absorbed a dissolved
  /// group's rows, and every fragment of a split group.
  std::vector<uint32_t> dirty_groups;

  size_t rows_absorbed = 0;  // live appended rows assigned to groups
  size_t rows_removed = 0;   // deleted rows taken out of their groups
  size_t groups_split = 0;
  size_t groups_merged = 0;  // underfull groups dissolved into neighbors
  size_t groups_dropped = 0; // groups that ended up empty
};

/// Absorb one batch into the partitioning: the rows of `table` beyond
/// `old_partitioning.gid.size()` are appends, and `deleted_rows` lists the
/// row ids (within the old row space) deleted by the batch. The first
/// gid.size() rows of `table` must be the rows the old partitioning was
/// built on, in the same order — exactly what applying a
/// relation::TableDelta to the version the partitioning covers produces.
Result<AbsorbResult> AbsorbBatch(
    const relation::ColumnSource& table, const Partitioning& old_partitioning,
    const std::vector<relation::RowId>& deleted_rows);

/// Append-only special case of AbsorbBatch (kept for callers that never
/// delete).
Result<AbsorbResult> AbsorbAppendedRows(const relation::ColumnSource& table,
                                        const Partitioning& old_partitioning);

}  // namespace paql::partition

#endif  // PAQL_PARTITION_DYNAMIC_UPDATE_H_
