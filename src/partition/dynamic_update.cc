#include "partition/dynamic_update.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/str_util.h"

namespace paql::partition {

using relation::RowId;
using relation::ColumnSource;

namespace {

/// L-infinity distance between row `r` of `table` and `centroid` over
/// `cols` (the metric of Definition 2's radius).
double LInfDistance(const ColumnSource& table, RowId r,
                    const std::vector<size_t>& cols,
                    const std::vector<double>& centroid) {
  double d = 0;
  for (size_t k = 0; k < cols.size(); ++k) {
    d = std::max(d, std::abs(table.GetDouble(r, cols[k]) - centroid[k]));
  }
  return d;
}

/// Index of the nearest centroid to row `r`, restricted to groups for
/// which `eligible` returns true. Returns SIZE_MAX when none is eligible.
template <typename Eligible>
size_t NearestGroup(const ColumnSource& table, RowId r,
                    const std::vector<size_t>& cols,
                    const std::vector<std::vector<double>>& centroids,
                    Eligible eligible) {
  size_t best = SIZE_MAX;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t g = 0; g < centroids.size(); ++g) {
    if (!eligible(g)) continue;
    double d = LInfDistance(table, r, cols, centroids[g]);
    if (d < best_d) {
      best_d = d;
      best = g;
    }
  }
  return best;
}

}  // namespace

Result<AbsorbResult> AbsorbAppendedRows(const ColumnSource& table,
                                        const Partitioning& old) {
  return AbsorbBatch(table, old, {});
}

Result<AbsorbResult> AbsorbBatch(const ColumnSource& table,
                                 const Partitioning& old,
                                 const std::vector<RowId>& deleted_rows) {
  size_t n_old = old.gid.size();
  size_t n_new = table.num_rows();
  if (n_new < n_old) {
    return Status::InvalidArgument(
        StrCat("table shrank from ", n_old, " to ", n_new,
               " rows; row ids must be stable (deletions are expressed "
               "through deleted_rows, not by dropping rows)"));
  }
  if (old.num_groups() == 0) {
    return Status::InvalidArgument(
        "old partitioning has no groups; run PartitionTable instead");
  }
  // Resolve the partitioning attributes against the (unchanged) schema.
  std::vector<size_t> cols;
  cols.reserve(old.attributes.size());
  for (const std::string& attr : old.attributes) {
    PAQL_ASSIGN_OR_RETURN(size_t col, table.schema().ResolveColumn(attr));
    cols.push_back(col);
  }
  // Centroids from the representative relation (its attribute columns
  // hold the centroid values; the representative table appends a trailing
  // gid column, so the first columns line up with the source schema).
  const relation::Table& reps = old.Representatives(table, cols);
  std::vector<std::vector<double>> centroids(old.num_groups());
  for (size_t g = 0; g < old.num_groups(); ++g) {
    centroids[g].reserve(cols.size());
    for (size_t col : cols) {
      centroids[g].push_back(reps.GetDouble(static_cast<RowId>(g), col));
    }
  }

  AbsorbResult out;
  std::vector<std::vector<RowId>> groups = old.groups;
  std::set<size_t> touched;

  // Take the batch's deleted rows out of their groups.
  if (!deleted_rows.empty()) {
    std::vector<uint8_t> drop(n_old, 0);
    for (RowId r : deleted_rows) {
      if (r >= n_old) {
        return Status::InvalidArgument(
            StrCat("deleted row ", r, " is outside the old partitioning's ",
                   n_old, "-row space"));
      }
      if (old.gid[r] == kNoGroup) {
        return Status::InvalidArgument(
            StrCat("deleted row ", r, " was already removed"));
      }
      if (drop[r] != 0) {
        return Status::InvalidArgument(
            StrCat("deleted row ", r, " appears twice in the batch"));
      }
      drop[r] = 1;
      touched.insert(old.gid[r]);
    }
    for (size_t g : touched) {
      size_t before = groups[g].size();
      std::erase_if(groups[g], [&](RowId r) { return drop[r] != 0; });
      out.rows_removed += before - groups[g].size();
    }
  }

  // Assign each live appended row to the nearest-centroid group.
  for (RowId r = static_cast<RowId>(n_old); r < n_new; ++r) {
    if (table.RowDeleted(r)) continue;
    size_t best = NearestGroup(table, r, cols, centroids,
                               [](size_t) { return true; });
    groups[best].push_back(r);
    touched.insert(best);
    ++out.rows_absorbed;
  }

  // Dissolve underfull dirty groups: a group whose membership dropped
  // below a quarter of tau merges into its rows' nearest surviving
  // neighbors (which become dirty in turn). Without this, a delete-heavy
  // stream fragments the partitioning into many near-empty groups, and
  // SKETCHREFINE's per-group subproblems stop amortizing.
  std::vector<uint8_t> dissolving(groups.size(), 0);
  if (old.size_threshold > 0) {
    size_t min_size = std::max<size_t>(1, old.size_threshold / 4);
    size_t survivors = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      bool underfull = touched.count(g) > 0 && !groups[g].empty() &&
                       groups[g].size() < min_size;
      if (underfull) {
        dissolving[g] = 1;
      } else if (!groups[g].empty()) {
        ++survivors;
      }
    }
    if (survivors == 0) {
      // Nothing to merge into (a tiny table where every group is
      // underfull): keep the groups as they are.
      std::fill(dissolving.begin(), dissolving.end(), 0);
    } else {
      for (size_t g = 0; g < groups.size(); ++g) {
        if (dissolving[g] == 0) continue;
        for (RowId r : groups[g]) {
          size_t target = NearestGroup(
              table, r, cols, centroids, [&](size_t cand) {
                return dissolving[cand] == 0 && !groups[cand].empty();
              });
          groups[target].push_back(r);
          touched.insert(target);
        }
        groups[g].clear();
        ++out.groups_merged;
      }
    }
  }

  // Split any touched group that violates the size threshold or the radius
  // limit, using the quad-tree partitioner on the group's rows; drop the
  // groups the batch emptied.
  std::vector<bool> dirty(groups.size(), false);
  for (size_t g : touched) dirty[g] = true;
  std::vector<std::vector<RowId>> final_groups;
  std::vector<bool> final_dirty;
  // Fragments beyond a split group's first keep arriving after all original
  // slots, so untouched groups keep their relative order (their ids only
  // shift down past dropped slots, with membership unchanged).
  std::vector<std::vector<RowId>> overflow_groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) {
      if (dissolving[g] == 0) ++out.groups_dropped;
      continue;
    }
    bool oversized = old.size_threshold > 0 &&
                     groups[g].size() > old.size_threshold;
    bool over_radius = false;
    if (dirty[g] && !oversized && std::isfinite(old.radius_limit) &&
        old.radius_limit > 0) {
      // Radius check against the *new* centroid of the changed group.
      std::vector<double> centroid(cols.size(), 0.0);
      for (size_t k = 0; k < cols.size(); ++k) {
        double sum = 0;
        for (RowId r : groups[g]) sum += table.GetDouble(r, cols[k]);
        centroid[k] = sum / static_cast<double>(groups[g].size());
      }
      for (RowId r : groups[g]) {
        if (LInfDistance(table, r, cols, centroid) >
            old.radius_limit + 1e-12) {
          over_radius = true;
          break;
        }
      }
    }
    if (!oversized && !over_radius) {
      final_groups.push_back(std::move(groups[g]));
      final_dirty.push_back(dirty[g]);
      continue;
    }
    // Re-partition the group's rows in isolation.
    PartitionOptions popts;
    popts.attributes = old.attributes;
    // A zero threshold means "no size condition": split on radius only.
    popts.size_threshold =
        old.size_threshold > 0 ? old.size_threshold : groups[g].size();
    popts.radius_limit = old.radius_limit > 0 && std::isfinite(old.radius_limit)
                             ? old.radius_limit
                             : std::numeric_limits<double>::infinity();
    PAQL_ASSIGN_OR_RETURN(std::vector<std::vector<RowId>> fragments,
                          QuadTreeGroups(table, groups[g], popts));
    ++out.groups_split;
    for (size_t sg = 0; sg < fragments.size(); ++sg) {
      if (sg == 0) {
        final_groups.push_back(std::move(fragments[sg]));  // keeps slot g
        final_dirty.push_back(true);
      } else {
        overflow_groups.push_back(std::move(fragments[sg]));
      }
    }
  }
  for (auto& fragment : overflow_groups) {
    final_groups.push_back(std::move(fragment));
    final_dirty.push_back(true);
  }
  if (final_groups.empty()) {
    return Status::InvalidArgument(
        "the batch deleted every row; re-partition once data arrives");
  }

  PAQL_ASSIGN_OR_RETURN(
      out.partitioning,
      MakePartitioningFromGroups(table, old.attributes, old.size_threshold,
                                 old.radius_limit, std::move(final_groups)));
  // Keep every representative column the old artifact had filled.
  out.partitioning.Representatives(table, old.filled_representative_columns());
  for (size_t g = 0; g < final_dirty.size(); ++g) {
    if (final_dirty[g]) out.dirty_groups.push_back(static_cast<uint32_t>(g));
  }
  return out;
}

}  // namespace paql::partition
