#include "partition/dynamic_update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "relation/chunk.h"

namespace paql::partition {
namespace {

using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::Value;

Table MakePoints(int n, uint64_t seed, double lo = 0.0, double hi = 100.0) {
  Table t{Schema({{"id", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"y", DataType::kDouble}})};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(i), Value(rng.Uniform(lo, hi)),
                             Value(rng.Uniform(lo, hi))})
                    .ok());
  }
  return t;
}

void AppendPoints(Table* t, int n, uint64_t seed, double lo, double hi) {
  Rng rng(seed);
  int base = static_cast<int>(t->num_rows());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(t->AppendRow({Value(base + i), Value(rng.Uniform(lo, hi)),
                              Value(rng.Uniform(lo, hi))})
                    .ok());
  }
}

Partitioning MustPartition(const Table& t, size_t tau) {
  PartitionOptions opts;
  opts.attributes = {"x", "y"};
  opts.size_threshold = tau;
  auto p = PartitionTable(t, opts);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(*p);
}

/// Structural invariants every partitioning artifact must satisfy.
void CheckInvariants(const Table& t, const Partitioning& p) {
  ASSERT_EQ(p.gid.size(), t.num_rows());
  std::set<RowId> seen;
  for (size_t g = 0; g < p.num_groups(); ++g) {
    EXPECT_FALSE(p.groups[g].empty()) << "group " << g;
    if (p.size_threshold > 0) {
      EXPECT_LE(p.groups[g].size(), p.size_threshold) << "group " << g;
    }
    for (RowId r : p.groups[g]) {
      EXPECT_EQ(p.gid[r], g);
      EXPECT_TRUE(seen.insert(r).second) << "row " << r << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), t.num_rows());
  EXPECT_EQ(p.Representatives(t, {}).num_rows(), p.num_groups());
}

TEST(AbsorbTest, AppendedRowsJoinNearestGroup) {
  Table t = MakePoints(100, 1);
  Partitioning p = MustPartition(t, 30);
  size_t groups_before = p.num_groups();
  AppendPoints(&t, 10, 2, 0.0, 100.0);
  auto r = AbsorbAppendedRows(t, p);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows_absorbed, 10u);
  CheckInvariants(t, r->partitioning);
  EXPECT_GE(r->partitioning.num_groups(), groups_before);
  EXPECT_FALSE(r->dirty_groups.empty());
}

TEST(AbsorbTest, DirtyGroupsAreExactlyTheTouchedOnes) {
  Table t = MakePoints(100, 3);
  Partitioning p = MustPartition(t, 50);
  // Append a tight cluster near one corner: only the group(s) owning that
  // corner become dirty.
  AppendPoints(&t, 5, 4, 0.0, 5.0);
  auto r = AbsorbAppendedRows(t, p);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckInvariants(t, r->partitioning);
  // Every appended row lies in a dirty group.
  std::set<uint32_t> dirty(r->dirty_groups.begin(), r->dirty_groups.end());
  for (RowId row = 100; row < t.num_rows(); ++row) {
    EXPECT_TRUE(dirty.count(r->partitioning.gid[row]))
        << "appended row " << row << " in clean group";
  }
  // Clean groups kept their exact membership.
  for (size_t g = 0; g < r->partitioning.num_groups(); ++g) {
    if (dirty.count(static_cast<uint32_t>(g))) continue;
    ASSERT_LT(g, p.num_groups());
    EXPECT_EQ(r->partitioning.groups[g], p.groups[g]) << "group " << g;
  }
}

TEST(AbsorbTest, OversizedGroupsAreSplit) {
  Table t = MakePoints(60, 5);
  Partitioning p = MustPartition(t, 20);
  // Flood one region so some group must exceed tau = 20 and split.
  AppendPoints(&t, 40, 6, 40.0, 60.0);
  auto r = AbsorbAppendedRows(t, p);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckInvariants(t, r->partitioning);
  EXPECT_GT(r->groups_split, 0u);
  EXPECT_EQ(r->partitioning.max_group_size(),
            std::min<size_t>(r->partitioning.max_group_size(), 20));
}

TEST(AbsorbTest, RadiusLimitTriggersSplit) {
  // Partition a tight cluster with a radius limit, then append an outlier:
  // its group's radius blows past omega and must split.
  Table t = MakePoints(50, 7, 10.0, 20.0);
  PartitionOptions opts;
  opts.attributes = {"x", "y"};
  opts.size_threshold = 50;
  opts.radius_limit = 8.0;
  auto p = PartitionTable(t, opts);
  ASSERT_TRUE(p.ok()) << p.status();
  AppendPoints(&t, 1, 8, 95.0, 100.0);
  auto r = AbsorbAppendedRows(t, *p);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckInvariants(t, r->partitioning);
  EXPECT_GT(r->groups_split, 0u);
  for (size_t g = 0; g < r->partitioning.num_groups(); ++g) {
    EXPECT_LE(r->partitioning.radius[g], 8.0 + 1e-9) << "group " << g;
  }
}

TEST(AbsorbTest, NoAppendsIsANoOp) {
  Table t = MakePoints(80, 9);
  Partitioning p = MustPartition(t, 25);
  auto r = AbsorbAppendedRows(t, p);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows_absorbed, 0u);
  EXPECT_TRUE(r->dirty_groups.empty());
  EXPECT_EQ(r->partitioning.num_groups(), p.num_groups());
  CheckInvariants(t, r->partitioning);
}

TEST(AbsorbTest, ShrunkTableRejected) {
  Table t = MakePoints(50, 10);
  Partitioning p = MustPartition(t, 20);
  Table smaller = MakePoints(30, 10);
  auto r = AbsorbAppendedRows(smaller, p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// AbsorbBatch: deletions (and mixed insert+delete batches)
// ---------------------------------------------------------------------------

/// Invariants for a partitioning over a table with deleted rows: every
/// live row in exactly one group, every deleted row at kNoGroup.
void CheckInvariantsWithDeletes(const relation::ColumnSource& t,
                                const Partitioning& p) {
  ASSERT_EQ(p.gid.size(), t.num_rows());
  std::set<RowId> seen;
  size_t live = 0;
  for (size_t g = 0; g < p.num_groups(); ++g) {
    EXPECT_FALSE(p.groups[g].empty()) << "group " << g;
    if (p.size_threshold > 0) {
      EXPECT_LE(p.groups[g].size(), p.size_threshold) << "group " << g;
    }
    for (RowId r : p.groups[g]) {
      EXPECT_FALSE(t.RowDeleted(r)) << "deleted row " << r << " in group";
      EXPECT_EQ(p.gid[r], g);
      EXPECT_TRUE(seen.insert(r).second) << "row " << r << " duplicated";
    }
  }
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (!t.RowDeleted(r)) ++live;
    if (t.RowDeleted(r) && p.gid[r] != kNoGroup) {
      // A deleted row may only carry kNoGroup.
      ADD_FAILURE() << "deleted row " << r << " still mapped to group "
                    << p.gid[r];
    }
  }
  EXPECT_EQ(seen.size(), live);
  EXPECT_EQ(p.Representatives(t, {}).num_rows(), p.num_groups());
}

/// A Table plus a delete bitmap — the minimal ColumnSource AbsorbBatch
/// sees when the engine hands it a relation::TableVersion.
class DeletableTable : public relation::ColumnSource {
 public:
  DeletableTable(Table table, std::vector<RowId> deleted)
      : table_(std::move(table)), deleted_(table_.num_rows(), 0) {
    for (RowId r : deleted) deleted_[r] = 1;
  }
  const relation::Schema& schema() const override { return table_.schema(); }
  size_t num_rows() const override { return table_.num_rows(); }
  bool IsNull(RowId r, size_t c) const override { return table_.IsNull(r, c); }
  double GetDouble(RowId r, size_t c) const override {
    return table_.GetDouble(r, c);
  }
  int64_t GetInt64(RowId r, size_t c) const override {
    return table_.GetInt64(r, c);
  }
  const std::string& GetString(RowId r, size_t c) const override {
    return table_.GetString(r, c);
  }
  relation::Value GetValue(RowId r, size_t c) const override {
    return table_.GetValue(r, c);
  }
  void LoadChunk(size_t c, const relation::RowSpan& s,
                 relation::NumericBatch* out) const override {
    table_.LoadChunk(c, s, out);
  }
  void LoadChunkRaw(size_t c, const relation::RowSpan& s,
                    relation::NumericBatch* out) const override {
    table_.LoadChunkRaw(c, s, out);
  }
  bool ZoneFor(size_t c, size_t b, BlockZone* z) const override {
    return table_.ZoneFor(c, b, z);
  }
  std::vector<RowId> NonNullRows(
      const std::vector<size_t>& cols) const override {
    std::vector<RowId> rows = table_.NonNullRows(cols);
    std::erase_if(rows, [this](RowId r) { return deleted_[r] != 0; });
    return rows;
  }
  size_t ApproximateBytes() const override {
    return table_.ApproximateBytes();
  }
  bool RowDeleted(RowId r) const override {
    return r < deleted_.size() && deleted_[r] != 0;
  }
  bool has_deleted_rows() const override {
    return std::find(deleted_.begin(), deleted_.end(), uint8_t{1}) !=
           deleted_.end();
  }

 private:
  Table table_;
  std::vector<uint8_t> deleted_;
};

TEST(AbsorbBatchTest, DeletedRowsLeaveTheirGroupsAndMarkThemDirty) {
  Table t = MakePoints(100, 21);
  Partitioning p = MustPartition(t, 30);
  std::vector<RowId> deletes = {3, 40, 77};
  DeletableTable dt(std::move(t), deletes);
  auto r = AbsorbBatch(dt, p, deletes);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows_removed, 3u);
  CheckInvariantsWithDeletes(dt, r->partitioning);
  std::set<uint32_t> dirty(r->dirty_groups.begin(), r->dirty_groups.end());
  EXPECT_FALSE(dirty.empty());
  // Clean groups kept an exact old membership (possibly under a new id).
  std::set<std::vector<RowId>> old_memberships(p.groups.begin(),
                                               p.groups.end());
  for (size_t g = 0; g < r->partitioning.num_groups(); ++g) {
    if (dirty.count(static_cast<uint32_t>(g))) continue;
    EXPECT_TRUE(old_memberships.count(r->partitioning.groups[g]))
        << "clean group " << g << " changed membership";
  }
}

TEST(AbsorbBatchTest, UnderfullGroupsDissolveIntoNeighbors) {
  // Two tight clusters partitioned with tau = 25: deleting most of one
  // cluster leaves its group below tau/4, so it dissolves and its
  // survivors join the other cluster's group.
  Table t = MakePoints(25, 22, 0.0, 10.0);
  AppendPoints(&t, 25, 23, 90.0, 100.0);
  Partitioning p = MustPartition(t, 25);
  ASSERT_GE(p.num_groups(), 2u);
  // Delete all but 2 rows of the first cluster.
  std::vector<RowId> deletes;
  for (RowId r = 0; r < 23; ++r) deletes.push_back(r);
  DeletableTable dt(std::move(t), deletes);
  auto r = AbsorbBatch(dt, p, deletes);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows_removed, 23u);
  EXPECT_GT(r->groups_merged, 0u);
  CheckInvariantsWithDeletes(dt, r->partitioning);
}

TEST(AbsorbBatchTest, FullyDeletedGroupsAreDropped) {
  Table t = MakePoints(60, 24);
  Partitioning p = MustPartition(t, 20);
  size_t groups_before = p.num_groups();
  ASSERT_GE(groups_before, 2u);
  // Wipe out group 0 entirely.
  std::vector<RowId> deletes(p.groups[0].begin(), p.groups[0].end());
  DeletableTable dt(std::move(t), deletes);
  auto r = AbsorbBatch(dt, p, deletes);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->groups_dropped + r->groups_merged, 0u);
  EXPECT_LT(r->partitioning.num_groups(), groups_before);
  CheckInvariantsWithDeletes(dt, r->partitioning);
}

TEST(AbsorbBatchTest, MixedBatchAbsorbsAndRemovesInOnePass) {
  Table t = MakePoints(90, 25);
  Partitioning p = MustPartition(t, 30);
  std::vector<RowId> deletes = {10, 11, 55};
  AppendPoints(&t, 12, 26, 20.0, 60.0);
  DeletableTable dt(std::move(t), deletes);
  auto r = AbsorbBatch(dt, p, deletes);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows_absorbed, 12u);
  EXPECT_EQ(r->rows_removed, 3u);
  CheckInvariantsWithDeletes(dt, r->partitioning);
  // Appended rows landed in dirty groups only.
  std::set<uint32_t> dirty(r->dirty_groups.begin(), r->dirty_groups.end());
  for (RowId row = 90; row < dt.num_rows(); ++row) {
    EXPECT_TRUE(dirty.count(r->partitioning.gid[row])) << "row " << row;
  }
}

TEST(AbsorbBatchTest, InvalidDeletesRejectTheWholeBatch) {
  Table t = MakePoints(40, 27);
  Partitioning p = MustPartition(t, 15);
  {
    auto r = AbsorbBatch(t, p, {static_cast<RowId>(t.num_rows())});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto r = AbsorbBatch(t, p, {5, 5});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AbsorbBatchTest, AbsorbedArtifactAbsorbsAgain) {
  // Artifact reuse across rounds: the rebuilt partitioning (with kNoGroup
  // holes from round 1) must absorb a second batch cleanly.
  Table t = MakePoints(80, 28);
  Partitioning p = MustPartition(t, 25);
  std::vector<RowId> round1 = {1, 2, 3, 30};
  AppendPoints(&t, 8, 29, 10.0, 90.0);
  DeletableTable dt1(t, round1);
  auto r1 = AbsorbBatch(dt1, p, round1);
  ASSERT_TRUE(r1.ok()) << r1.status();
  CheckInvariantsWithDeletes(dt1, r1->partitioning);

  std::vector<RowId> round2 = {40, 41, 85};
  AppendPoints(&t, 6, 30, 0.0, 100.0);
  std::vector<RowId> all_deleted = round1;
  all_deleted.insert(all_deleted.end(), round2.begin(), round2.end());
  DeletableTable dt2(std::move(t), all_deleted);
  auto r2 = AbsorbBatch(dt2, r1->partitioning, round2);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->rows_removed, 3u);
  EXPECT_EQ(r2->rows_absorbed, 6u);
  CheckInvariantsWithDeletes(dt2, r2->partitioning);
}

/// Bitwise double equality.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// A long stream of mixed batches that split crowded groups and dissolve
// thinned ones. The representative columns the artifact had filled stay
// filled through every batch and equal each group's mean gathered in its
// row-list order (the eager relation every artifact used to carry); a
// column first requested after the stream fills to the same bits.
TEST(AbsorbBatchTest, FilledRepresentativeColumnsSurviveAStream) {
  Table t{Schema({{"id", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"y", DataType::kDouble},
                  {"w", DataType::kDouble},
                  {"v", DataType::kDouble}})};
  Rng rng(4242);
  auto append = [&](int n, double lo, double hi) {
    for (int i = 0; i < n; ++i) {
      const int64_t id = static_cast<int64_t>(t.num_rows());
      EXPECT_TRUE(t.AppendRow({Value(id * 3 + 1), Value(rng.Uniform(lo, hi)),
                               Value(rng.Uniform(lo, hi)),
                               Value(rng.Uniform(-5.0, 5.0) / 3.0),
                               Value(rng.Gaussian(7.0, 2.5))})
                      .ok());
    }
  };
  append(400, 0.0, 100.0);
  PartitionOptions opts;
  opts.attributes = {"x", "y"};
  opts.size_threshold = 40;
  auto built = PartitionTable(t, opts);
  ASSERT_TRUE(built.ok()) << built.status();
  Partitioning p = std::move(*built);
  const size_t id = 0, w = 3, v = 4;
  p.Representatives(t, {w});

  std::vector<RowId> all_deleted;
  std::set<RowId> deleted_set;
  size_t splits = 0, merges = 0;
  for (int round = 0; round < 12; ++round) {
    // Odd rounds thin out one corner (dissolving groups there); even
    // rounds crowd another (splitting groups there).
    std::vector<RowId> batch_deletes;
    const double corner = 25.0 * (round % 4);
    for (RowId r = 0; r < p.gid.size(); ++r) {
      if (round % 2 == 1 && p.gid[r] != kNoGroup &&
          t.GetDouble(r, 1) >= corner && t.GetDouble(r, 1) < corner + 25.0 &&
          rng.Uniform(0.0, 1.0) < 0.7 && deleted_set.insert(r).second) {
        batch_deletes.push_back(r);
      }
    }
    if (round % 2 == 0) append(60, corner, corner + 10.0);
    all_deleted.insert(all_deleted.end(), batch_deletes.begin(),
                       batch_deletes.end());
    DeletableTable dt(t, all_deleted);
    auto r = AbsorbBatch(dt, p, batch_deletes);
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.status();
    splits += r->groups_split;
    merges += r->groups_merged;
    p = std::move(r->partitioning);
    CheckInvariantsWithDeletes(dt, p);
    EXPECT_EQ(p.filled_representative_columns(),
              (std::vector<size_t>{1, 2, w}))
        << "round " << round;
    const Table& reps = p.Representatives(dt, {});
    for (size_t g = 0; g < p.num_groups(); ++g) {
      ASSERT_TRUE(SameBits(reps.GetDouble(static_cast<RowId>(g), w),
                           relation::GatherMean(dt, w, p.groups[g])))
          << "round " << round << " group " << g;
    }
  }
  EXPECT_GT(splits, 0u);
  EXPECT_GT(merges, 0u);
  // Merges append rows out of order, so the fill below gathers per group.
  EXPECT_FALSE(std::all_of(p.groups.begin(), p.groups.end(),
                           [](const std::vector<RowId>& rows) {
                             return std::is_sorted(rows.begin(), rows.end());
                           }));

  DeletableTable dt(t, all_deleted);
  RepresentativeFill fill;
  const Table& reps = p.Representatives(dt, {id, v}, &fill);
  EXPECT_EQ(fill.columns, 2u);
  for (size_t g = 0; g < p.num_groups(); ++g) {
    const double id_mean = relation::GatherMean(dt, id, p.groups[g]);
    EXPECT_EQ(reps.GetInt64(static_cast<RowId>(g), id),
              static_cast<int64_t>(id_mean))
        << "group " << g;
    EXPECT_TRUE(SameBits(reps.GetDouble(static_cast<RowId>(g), v),
                         relation::GatherMean(dt, v, p.groups[g])))
        << "group " << g;
  }
}

class AbsorbBatchSeedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AbsorbBatchSeedTest, InvariantsHoldUnderRandomMixedBatches) {
  unsigned seed = GetParam();
  Rng rng(seed * 104729);
  Table t = MakePoints(50 + static_cast<int>(rng.UniformInt(0, 80)),
                       seed * 19 + 3);
  Partitioning p = MustPartition(t, 12 + seed % 21);
  std::vector<RowId> all_deleted;
  std::set<RowId> deleted_set;
  for (int round = 0; round < 3; ++round) {
    // Random deletes among still-live old rows.
    std::vector<RowId> batch_deletes;
    size_t old_rows = p.gid.size();
    int want = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < want; ++i) {
      RowId r = static_cast<RowId>(
          rng.UniformInt(0, static_cast<int64_t>(old_rows) - 1));
      if (deleted_set.insert(r).second) batch_deletes.push_back(r);
    }
    double lo = rng.Uniform(0.0, 80.0);
    AppendPoints(&t, static_cast<int>(rng.UniformInt(0, 20)),
                 seed * 37 + static_cast<uint64_t>(round), lo, lo + 20.0);
    all_deleted.insert(all_deleted.end(), batch_deletes.begin(),
                       batch_deletes.end());
    DeletableTable dt(t, all_deleted);
    auto r = AbsorbBatch(dt, p, batch_deletes);
    ASSERT_TRUE(r.ok()) << "seed " << seed << " round " << round << ": "
                        << r.status();
    CheckInvariantsWithDeletes(dt, r->partitioning);
    EXPECT_EQ(r->rows_removed, batch_deletes.size());
    p = std::move(r->partitioning);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsorbBatchSeedTest, ::testing::Range(1u, 11u));

class AbsorbSeedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AbsorbSeedTest, InvariantsHoldUnderRandomAppendBatches) {
  unsigned seed = GetParam();
  Rng rng(seed * 7919);
  Table t = MakePoints(60 + static_cast<int>(rng.UniformInt(0, 60)),
                       seed * 13 + 1);
  Partitioning p = MustPartition(t, 16 + seed % 17);
  // Three successive absorb rounds, re-using the updated artifact.
  for (int round = 0; round < 3; ++round) {
    double lo = rng.Uniform(0.0, 80.0);
    AppendPoints(&t, 5 + static_cast<int>(rng.UniformInt(0, 25)),
                 seed * 31 + static_cast<uint64_t>(round), lo, lo + 20.0);
    auto r = AbsorbAppendedRows(t, p);
    ASSERT_TRUE(r.ok()) << r.status();
    CheckInvariants(t, r->partitioning);
    p = std::move(r->partitioning);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsorbSeedTest, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace paql::partition
