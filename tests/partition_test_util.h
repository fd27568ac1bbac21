// Shared fixtures for the partitioning test suites: a synthetic clustered
// table generator and the invariant battery every Partitioning artifact
// must satisfy regardless of the method that produced it.
#ifndef PAQL_TESTS_PARTITION_TEST_UTIL_H_
#define PAQL_TESTS_PARTITION_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "partition/partitioner.h"
#include "relation/table.h"

namespace paql::partition {

/// `clusters` Gaussian-ish blobs of `per_cluster` rows each, 100 apart in x
/// and -50 apart in y, with intra-cluster radius ~1.
inline relation::Table MakeClusteredTable(int per_cluster, int clusters,
                                          uint64_t seed) {
  using relation::DataType;
  using relation::Schema;
  using relation::Table;
  using relation::Value;
  Table t{Schema({{"x", DataType::kDouble}, {"y", DataType::kDouble}})};
  Rng rng(seed);
  for (int c = 0; c < clusters; ++c) {
    double cx = 100.0 * c, cy = -50.0 * c;
    for (int i = 0; i < per_cluster; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(cx + rng.Uniform(-1, 1)),
                               Value(cy + rng.Uniform(-1, 1))})
                      .ok());
    }
  }
  return t;
}

/// Invariant battery every partitioning must satisfy: groups are a disjoint
/// cover, gids are consistent, sizes respect tau, representatives are the
/// group centroids, and stored radii are correct (and within omega when
/// `check_radius`).
inline void CheckPartitioningInvariants(const relation::Table& table,
                                        const Partitioning& p,
                                        bool check_radius) {
  using relation::RowId;
  ASSERT_EQ(p.gid.size(), table.num_rows());
  std::vector<int> seen(table.num_rows(), 0);
  for (size_t g = 0; g < p.num_groups(); ++g) {
    EXPECT_LE(p.groups[g].size(), p.size_threshold);
    for (RowId r : p.groups[g]) {
      EXPECT_EQ(p.gid[r], g);
      seen[r]++;
    }
  }
  for (RowId r = 0; r < table.num_rows(); ++r) EXPECT_EQ(seen[r], 1);
  // The attribute columns are filled when the artifact is made.
  const relation::Table& reps = p.Representatives(table, {});
  ASSERT_EQ(reps.num_rows(), p.num_groups());
  size_t gid_col = reps.num_columns() - 1;
  EXPECT_EQ(reps.schema().column(gid_col).name, "gid");
  for (size_t g = 0; g < p.num_groups(); ++g) {
    EXPECT_EQ(reps.GetInt64(static_cast<RowId>(g), gid_col),
              static_cast<int64_t>(g));
  }
  for (size_t g = 0; g < p.num_groups(); ++g) {
    if (check_radius) {
      EXPECT_LE(p.radius[g], p.radius_limit + 1e-9);
    }
    for (size_t k = 0; k < p.attributes.size(); ++k) {
      auto col = table.schema().FindColumn(p.attributes[k]);
      ASSERT_TRUE(col.has_value());
      double sum = 0;
      for (RowId r : p.groups[g]) sum += table.GetDouble(r, *col);
      double mean = sum / static_cast<double>(p.groups[g].size());
      auto rep_col = reps.schema().FindColumn(p.attributes[k]);
      ASSERT_TRUE(rep_col.has_value());
      EXPECT_NEAR(reps.GetDouble(static_cast<RowId>(g), *rep_col), mean,
                  1e-9);
      double radius = 0;
      for (RowId r : p.groups[g]) {
        radius =
            std::max(radius, std::abs(table.GetDouble(r, *col) - mean));
      }
      EXPECT_LE(radius, p.radius[g] + 1e-9);
    }
  }
}

}  // namespace paql::partition

#endif  // PAQL_TESTS_PARTITION_TEST_UTIL_H_
