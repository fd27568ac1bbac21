#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "core/sketch_refine.h"
#include "paql/parser.h"
#include "partition/partitioner.h"
#include "relation/block_store.h"
#include "relation/chunk.h"
#include "relation/disk_table.h"
#include "relation/table_version.h"
#include "workload/galaxy.h"

namespace paql::partition {
namespace {

using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::Value;

Table MakeClusteredTable(int per_cluster, int clusters, uint64_t seed) {
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

/// Invariant battery every partitioning must satisfy.
void CheckInvariants(const Table& table, const Partitioning& p,
                     bool check_radius) {
  // Every row in exactly one group; gids dense and consistent.
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
  // Representatives: one per group, trailing gid column matches; the
  // attribute columns are filled when the artifact is made.
  const Table& reps = p.Representatives(table, {});
  ASSERT_EQ(reps.num_rows(), p.num_groups());
  size_t gid_col = reps.num_columns() - 1;
  EXPECT_EQ(reps.schema().column(gid_col).name, "gid");
  for (size_t g = 0; g < p.num_groups(); ++g) {
    EXPECT_EQ(reps.GetInt64(static_cast<RowId>(g), gid_col),
              static_cast<int64_t>(g));
  }
  // Radii within limit, and representatives are the group centroids.
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
      // Recomputed radius must match the stored one.
      double radius = 0;
      for (RowId r : p.groups[g]) {
        radius = std::max(radius,
                          std::abs(table.GetDouble(r, *col) - mean));
      }
      EXPECT_LE(radius, p.radius[g] + 1e-9);
    }
  }
}

TEST(PartitionerTest, SizeThresholdRespected) {
  Table t = MakeClusteredTable(50, 4, 1);
  PartitionOptions options;
  options.attributes = {"x", "y"};
  options.size_threshold = 30;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok()) << p.status();
  CheckInvariants(t, *p, /*check_radius=*/false);
  EXPECT_GE(p->num_groups(), 200u / 30u);
}

TEST(PartitionerTest, NaturalClustersSeparateUnderRadiusLimit) {
  Table t = MakeClusteredTable(40, 3, 2);
  PartitionOptions options;
  options.attributes = {"x", "y"};
  options.size_threshold = 120;
  // Clusters are 100 apart with intra-cluster radius ~1; a radius limit of
  // 10 forces any group spanning two clusters to keep splitting until the
  // groups are cluster-pure.
  options.radius_limit = 10.0;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());
  CheckInvariants(t, *p, /*check_radius=*/true);
  for (size_t g = 0; g < p->num_groups(); ++g) {
    int cluster = p->groups[g].front() / 40;
    for (RowId r : p->groups[g]) {
      EXPECT_EQ(static_cast<int>(r / 40), cluster);
    }
  }
}

TEST(PartitionerTest, RadiusLimitRespected) {
  Table t = MakeClusteredTable(64, 2, 3);
  PartitionOptions options;
  options.attributes = {"x", "y"};
  options.size_threshold = 1000;  // size never binds
  options.radius_limit = 0.5;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());
  CheckInvariants(t, *p, /*check_radius=*/true);
  EXPECT_GT(p->num_groups(), 2u);  // clusters had radius ~1, must split
}

TEST(PartitionerTest, SingleAttributePartitioning) {
  Table t = MakeClusteredTable(30, 3, 4);
  PartitionOptions options;
  options.attributes = {"x"};
  options.size_threshold = 10;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());
  CheckInvariants(t, *p, false);
}

TEST(PartitionerTest, IdenticalTuplesChunkedBySize) {
  Table t{Schema({{"x", DataType::kDouble}})};
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(t.AppendRow({Value(7.0)}).ok());
  PartitionOptions options;
  options.attributes = {"x"};
  options.size_threshold = 10;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());
  CheckInvariants(t, *p, true);
  EXPECT_EQ(p->num_groups(), 3u);  // 10 + 10 + 5
  for (size_t g = 0; g < p->num_groups(); ++g) {
    EXPECT_DOUBLE_EQ(p->radius[g], 0.0);
  }
}

TEST(PartitionerTest, StringColumnsBecomeNullRepresentatives) {
  Table t{Schema({{"x", DataType::kDouble}, {"tag", DataType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2.0), Value("b")}).ok());
  PartitionOptions options;
  options.attributes = {"x"};
  options.size_threshold = 10;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());
  auto tag_col = t.schema().FindColumn("tag");
  ASSERT_TRUE(tag_col.has_value());
  EXPECT_TRUE(p->Representatives(t, {}).IsNull(0, *tag_col));
}

TEST(PartitionerTest, RejectsBadOptions) {
  Table t = MakeClusteredTable(5, 1, 5);
  PartitionOptions options;
  options.attributes = {"x"};
  options.size_threshold = 0;
  EXPECT_FALSE(PartitionTable(t, options).ok());
  options.size_threshold = 5;
  options.attributes = {};
  EXPECT_FALSE(PartitionTable(t, options).ok());
  options.attributes = {"nope"};
  EXPECT_FALSE(PartitionTable(t, options).ok());
}

TEST(PartitionerTest, RejectsStringAttribute) {
  Table t{Schema({{"s", DataType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value("x")}).ok());
  PartitionOptions options;
  options.attributes = {"s"};
  options.size_threshold = 1;
  EXPECT_FALSE(PartitionTable(t, options).ok());
}

TEST(ShrinkTest, SubsetKeepsInvariants) {
  Table t = MakeClusteredTable(40, 3, 6);
  PartitionOptions options;
  options.attributes = {"x", "y"};
  options.size_threshold = 25;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());

  // Keep every other row.
  std::vector<RowId> subset;
  for (RowId r = 0; r < t.num_rows(); r += 2) subset.push_back(r);
  auto shrunk = ShrinkToSubset(t, *p, subset);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  Table sub = t.SelectRows(subset);
  CheckInvariants(sub, *shrunk, false);
  // The size condition is preserved by dropping rows (paper Section 5.2.1).
  EXPECT_LE(shrunk->max_group_size(), p->size_threshold);
}

TEST(ShrinkTest, EmptiedGroupsAreDropped) {
  Table t = MakeClusteredTable(10, 2, 7);
  PartitionOptions options;
  options.attributes = {"x"};
  options.size_threshold = 10;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok());
  ASSERT_GE(p->num_groups(), 2u);
  // Keep only rows from the first natural cluster.
  std::vector<RowId> subset;
  for (RowId r = 0; r < 10; ++r) subset.push_back(r);
  auto shrunk = ShrinkToSubset(t, *p, subset);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_LT(shrunk->num_groups(), p->num_groups());
}

TEST(RadiusForEpsilonTest, FormulaAndValidation) {
  Table t{Schema({{"x", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value(5.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(10.0)}).ok());
  auto w_max = RadiusLimitForEpsilon(t, {"x"}, 0.5, /*maximize=*/true);
  ASSERT_TRUE(w_max.ok());
  EXPECT_NEAR(*w_max, 0.5 * 5.0, 1e-12);
  auto w_min = RadiusLimitForEpsilon(t, {"x"}, 0.5, /*maximize=*/false);
  ASSERT_TRUE(w_min.ok());
  EXPECT_NEAR(*w_min, (0.5 / 1.5) * 5.0, 1e-12);
  EXPECT_FALSE(RadiusLimitForEpsilon(t, {"x"}, -1, true).ok());
  EXPECT_FALSE(RadiusLimitForEpsilon(t, {"x"}, 1.0, true).ok());
  EXPECT_TRUE(RadiusLimitForEpsilon(t, {"x"}, 1.0, false).ok());
}

// Property sweep: random tables, varying tau, with and without radius.
struct SweepParam {
  uint64_t seed;
  size_t tau;
  bool use_radius;
};

class PartitionSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionSweepTest, InvariantsHold) {
  auto [seed, tau] = GetParam();
  Table t = MakeClusteredTable(35, 4, static_cast<uint64_t>(seed));
  PartitionOptions options;
  options.attributes = {"x", "y"};
  options.size_threshold = static_cast<size_t>(tau);
  options.radius_limit = (seed % 2 == 0)
                             ? std::numeric_limits<double>::infinity()
                             : 25.0;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok()) << p.status();
  CheckInvariants(t, *p, !std::isinf(options.radius_limit));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionSweepTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(5, 17, 60,
                                                              200)));

// --- Out-of-core views --------------------------------------------------

/// A Galaxy table written to a temporary block store, removed on exit.
class GalaxyStore {
 public:
  GalaxyStore(size_t rows, const std::string& name)
      : table_(workload::MakeGalaxyTable(rows)),
        path_((std::filesystem::temp_directory_path() / name).string()) {
    Status written = relation::WriteBlockStore(table_, path_);
    EXPECT_TRUE(written.ok()) << written;
  }
  ~GalaxyStore() { std::remove(path_.c_str()); }

  const Table& table() const { return table_; }

  /// The store behind a fresh private cache of `cache_bytes`.
  std::shared_ptr<relation::DiskTable> Open(size_t cache_bytes) const {
    relation::BlockCache::Options options;
    options.capacity_bytes = cache_bytes;
    auto opened = relation::DiskTable::Open(
        path_, std::make_shared<relation::BlockCache>(options));
    EXPECT_TRUE(opened.ok()) << opened.status();
    return opened.ok() ? *opened : nullptr;
  }

 private:
  Table table_;
  std::string path_;
};

/// All fourteen Galaxy columns: objid and the thirteen numeric attributes.
PartitionOptions AllGalaxyColumns(size_t rows) {
  PartitionOptions options;
  options.attributes = {"objid"};
  for (const auto& name : workload::GalaxyNumericAttributes()) {
    options.attributes.push_back(name);
  }
  options.size_threshold = rows / 10;  // the planner's default tau
  return options;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The numeric columns of `table`.
std::vector<size_t> NumericColumns(const relation::ColumnSource& table) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).type != DataType::kString) cols.push_back(c);
  }
  return cols;
}

/// The representative relation with every numeric column filled.
const Table& AllRepresentatives(const relation::ColumnSource& table,
                                const Partitioning& p) {
  return p.Representatives(table, NumericColumns(table));
}

/// Same groups, and radii and representatives equal bit for bit, every
/// representative column filled from the artifact's own source.
void ExpectIdenticalPartitionings(const relation::ColumnSource& expect_source,
                                  const Partitioning& expect,
                                  const relation::ColumnSource& got_source,
                                  const Partitioning& got) {
  EXPECT_EQ(expect.gid, got.gid);
  EXPECT_EQ(expect.groups, got.groups);
  ASSERT_EQ(expect.radius.size(), got.radius.size());
  for (size_t g = 0; g < expect.radius.size(); ++g) {
    EXPECT_EQ(Bits(expect.radius[g]), Bits(got.radius[g])) << "group " << g;
  }
  const Table& a = AllRepresentatives(expect_source, expect);
  const Table& b = AllRepresentatives(got_source, got);
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (RowId g = 0; g < a.num_rows(); ++g) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.IsNull(g, c), b.IsNull(g, c));
      if (a.IsNull(g, c)) continue;
      if (a.schema().column(c).type == DataType::kDouble) {
        EXPECT_EQ(Bits(a.GetDouble(g, c)), Bits(b.GetDouble(g, c)))
            << "group " << g << " column " << c;
      } else {
        EXPECT_EQ(a.GetInt64(g, c), b.GetInt64(g, c));
      }
    }
  }
}

/// Block-cache lookups: hits plus misses.
int64_t Lookups(const relation::BlockCacheStats& stats) {
  return stats.hits + stats.misses;
}

// The build reads through chunked accessors only, so an in-memory table,
// an out-of-core store behind a cache smaller than its decoded columns,
// and a versioned snapshot with deletes over that store give the same
// artifact, and the disk views pay a block lookup per chunk, not per row
// (per-row reads would cost at least one lookup per row and level).
TEST(PartitionViewsTest, InMemoryDiskAndVersionedViewsAgree) {
  constexpr size_t kRows = 60000;
  constexpr size_t kCacheBytes = 2u << 20;  // decoded store: ~6.7 MB
  GalaxyStore store(kRows, "paql_partition_views.pqb");
  const PartitionOptions options = AllGalaxyColumns(kRows);

  auto in_memory = PartitionTable(store.table(), options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  std::shared_ptr<relation::DiskTable> disk = store.Open(kCacheBytes);
  ASSERT_NE(disk, nullptr);
  auto on_disk = PartitionTable(*disk, options);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status();
  ExpectIdenticalPartitionings(store.table(), *in_memory, *disk, *on_disk);
  EXPECT_LT(Lookups(disk->cache()->stats()),
            static_cast<int64_t>(kRows / 4));

  std::shared_ptr<relation::DiskTable> base = store.Open(kCacheBytes);
  ASSERT_NE(base, nullptr);
  auto wrapped = relation::TableVersion::Wrap(base);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  relation::TableDelta delta;
  for (RowId r = 5; r < kRows; r += 41) delta.deletes.push_back(r);
  auto versioned = (*wrapped)->Apply(delta);
  ASSERT_TRUE(versioned.ok()) << versioned.status();
  ASSERT_TRUE((*versioned)->has_deleted_rows());
  auto on_version = PartitionTable(**versioned, options);
  ASSERT_TRUE(on_version.ok()) << on_version.status();
  ExpectIdenticalPartitionings(store.table(), *in_memory, **versioned,
                               *on_version);
  EXPECT_LT(Lookups(base->cache()->stats()),
            static_cast<int64_t>(kRows / 4));
  EXPECT_TRUE(disk->ConsumeError().ok());
  EXPECT_TRUE(base->ConsumeError().ok());
}

// A 14-column build behind a cache a third the size of the decoded store.
// Reading the split attributes one row at a time alternates between
// columns whose blocks evict each other, so nearly every read decodes a
// block and a 100k-row build runs for minutes. Chunked reads bound the
// decodes. The re-decodes that remain come from value-clustered gathers:
// the groups' row lists touch most blocks of every column.
TEST(PartitionViewsTest, SmallCacheBuildDoesNotThrash) {
  constexpr size_t kRows = 40000;
  constexpr size_t kCacheBytes = 1536u << 10;
  GalaxyStore store(kRows, "paql_partition_thrash.pqb");
  const PartitionOptions options = AllGalaxyColumns(kRows);
  std::shared_ptr<relation::DiskTable> disk = store.Open(kCacheBytes);
  ASSERT_NE(disk, nullptr);
  auto built = PartitionTable(*disk, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const relation::BlockCacheStats stats = disk->cache()->stats();
  EXPECT_LT(Lookups(stats), static_cast<int64_t>(kRows / 4));
  EXPECT_LT(stats.misses, static_cast<int64_t>(kRows / 8));
  auto in_memory = PartitionTable(store.table(), options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  ExpectIdenticalPartitionings(store.table(), *in_memory, *disk, *built);
}


/// FNV-1a over everything the artifact holds: the gid map, every group's
/// row list, the radius bits and every representative cell, with every
/// representative column filled from `table`.
uint64_t ArtifactHash(const relation::ColumnSource& table,
                      const Partitioning& p) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (uint32_t g : p.gid) mix(g);
  for (const auto& group : p.groups) {
    mix(group.size());
    for (RowId r : group) mix(r);
  }
  for (double r : p.radius) mix(Bits(r));
  const Table& reps = AllRepresentatives(table, p);
  for (RowId g = 0; g < reps.num_rows(); ++g) {
    for (size_t c = 0; c < reps.num_columns(); ++c) {
      if (reps.IsNull(g, c)) {
        mix(0x4E554C4Cull);  // "NULL"
      } else if (reps.schema().column(c).type == DataType::kDouble) {
        mix(Bits(reps.GetDouble(g, c)));
      } else {
        mix(static_cast<uint64_t>(reps.GetInt64(g, c)));
      }
    }
  }
  return h;
}

/// A versioned snapshot of `store` behind a fresh cache of `cache_bytes`:
/// every 37th row from row 3 deleted and 500 copies of earlier rows
/// appended. `*base` receives the store it wraps.
std::shared_ptr<const relation::TableVersion> VersionedGalaxy(
    const GalaxyStore& store, size_t cache_bytes,
    std::shared_ptr<relation::DiskTable>* base) {
  *base = store.Open(cache_bytes);
  if (*base == nullptr) return nullptr;
  auto wrapped = relation::TableVersion::Wrap(*base);
  EXPECT_TRUE(wrapped.ok()) << wrapped.status();
  if (!wrapped.ok()) return nullptr;
  const size_t rows = store.table().num_rows();
  relation::TableDelta delta;
  for (RowId r = 3; r < rows; r += 37) delta.deletes.push_back(r);
  for (RowId r = 0; r < 500; ++r) {
    std::vector<Value> row(store.table().num_columns());
    for (size_t col = 0; col < row.size(); ++col) {
      row[col] = store.table().GetValue(r * 7, col);
    }
    delta.inserts.push_back(std::move(row));
  }
  auto versioned = (*wrapped)->Apply(delta);
  EXPECT_TRUE(versioned.ok()) << versioned.status();
  return versioned.ok() ? *versioned : nullptr;
}

// The build reads only the partitioning attributes, each once, in
// contiguous chunks, into dense arrays that every level of the quad-tree
// reuses; the centroids the tree computes for its groups are the
// representatives' attribute columns. So a versioned store behind a cache
// a third the size of its decoded columns decodes each attribute block
// about once and no other block: a two-attribute build of the
// fourteen-column store touches two columns. Filling every other
// representative column afterwards scans each of those columns once. The
// golden hashes pin the filled artifact bit for bit to the one the
// per-group gathering build produced, which computed every column eagerly.
TEST(PartitionViewsTest, BuildDecodesEachBlockAboutOnce) {
  constexpr size_t kRows = 100000;
  constexpr size_t kCacheBytes = 4u << 20;
  GalaxyStore store(kRows, "paql_partition_once.pqb");
  PartitionOptions two;
  two.attributes = {"objid", "petroFlux_r"};
  two.size_threshold = kRows / 10;
  const struct {
    PartitionOptions options;
    uint64_t golden;
  } cases[] = {{two, 0x78b571399cd41d51ull},
                 {AllGalaxyColumns(kRows), 0x7c60e390f3c5b102ull}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.options.attributes.size());
    std::shared_ptr<relation::DiskTable> base;
    auto versioned = VersionedGalaxy(store, kCacheBytes, &base);
    ASSERT_NE(versioned, nullptr);
    auto built = PartitionTable(*versioned, c.options);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_TRUE(base->ConsumeError().ok());
    const int64_t blocks = static_cast<int64_t>(base->num_blocks());
    const int64_t attrs = static_cast<int64_t>(c.options.attributes.size());
    const int64_t columns = static_cast<int64_t>(base->num_columns());
    EXPECT_LE(base->cache()->stats().misses, attrs * blocks + attrs);
    EXPECT_LE(built->build_block_reads, attrs * blocks + attrs);
    EXPECT_EQ(built->filled_representative_columns().size(),
              static_cast<size_t>(attrs));

    RepresentativeFill fill;
    built->Representatives(*versioned, NumericColumns(*versioned), &fill);
    EXPECT_EQ(fill.columns, static_cast<size_t>(columns - attrs));
    EXPECT_LE(fill.block_reads, (columns - attrs) * blocks);
    EXPECT_LE(base->cache()->stats().misses, columns * blocks + columns);
    EXPECT_EQ(ArtifactHash(*versioned, *built), c.golden)
        << std::hex << "0x" << ArtifactHash(*versioned, *built);
  }
}

// A SKETCHREFINE query fills the representative columns it reads the first
// time it runs: a query that aggregates a third column over a two-attribute
// partitioning decodes that column's blocks once, before it solves; a
// second run finds the column filled and decodes nothing for it.
TEST(PartitionViewsTest, QueryFillsItsColumnOnce) {
  constexpr size_t kRows = 100000;
  constexpr size_t kCacheBytes = 4u << 20;
  GalaxyStore store(kRows, "paql_partition_lazy.pqb");
  std::shared_ptr<relation::DiskTable> base;
  auto versioned = VersionedGalaxy(store, kCacheBytes, &base);
  ASSERT_NE(versioned, nullptr);
  PartitionOptions options;
  options.attributes = {"objid", "petroFlux_r"};
  options.size_threshold = kRows / 10;
  auto p = PartitionTable(*versioned, options);
  ASSERT_TRUE(p.ok()) << p.status();
  const size_t redshift = *versioned->schema().FindColumn("redshift");
  EXPECT_FALSE(p->representatives.filled(redshift));

  auto ast = lang::ParsePackageQuery(
      "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 4 MINIMIZE SUM(P.redshift)");
  ASSERT_TRUE(ast.ok()) << ast.status();
  core::SketchRefineOptions sr;
  sr.threads = 1;
  core::SketchRefineEvaluator evaluator(*versioned, *p, sr);
  auto first = evaluator.Evaluate(*ast);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->stats.representative_columns_filled, 1);
  EXPECT_EQ(first->stats.representative_block_reads,
            static_cast<int64_t>(base->num_blocks()));
  EXPECT_TRUE(p->representatives.filled(redshift));
  EXPECT_EQ(p->filled_representative_columns().size(), 3u);

  auto second = evaluator.Evaluate(*ast);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->stats.representative_columns_filled, 0);
  EXPECT_EQ(second->stats.representative_block_reads, 0);
  EXPECT_EQ(second->package.rows, first->package.rows);
  EXPECT_EQ(Bits(second->objective), Bits(first->objective));
  EXPECT_TRUE(base->ConsumeError().ok());
}

// Representatives derived from an artifact keep the columns it had filled,
// and a column first filled later equals one gathered group by group.
TEST(ShrinkTest, KeepsFilledColumnsAndFillsOthersLater) {
  const Table t = workload::MakeGalaxyTable(20000);
  PartitionOptions options;
  options.attributes = {"petroRad_r", "g"};
  options.size_threshold = 2000;
  auto p = PartitionTable(t, options);
  ASSERT_TRUE(p.ok()) << p.status();
  const size_t u = *t.schema().FindColumn("u");
  const size_t z = *t.schema().FindColumn("z");
  p->Representatives(t, {u});
  std::vector<RowId> subset;
  for (RowId r = 0; r < t.num_rows(); r += 3) subset.push_back(r);
  auto shrunk = ShrinkToSubset(t, *p, subset);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_TRUE(shrunk->representatives.filled(u));
  EXPECT_FALSE(shrunk->representatives.filled(z));
  const Table sub = relation::MaterializeRows(t, subset);
  const Table& reps = shrunk->Representatives(sub, {z});
  for (size_t g = 0; g < shrunk->num_groups(); ++g) {
    for (size_t col : {u, z}) {
      EXPECT_EQ(Bits(reps.GetDouble(static_cast<RowId>(g), col)),
                Bits(relation::GatherMean(sub, col, shrunk->groups[g])))
          << "group " << g << " column " << col;
    }
  }
}

}  // namespace
}  // namespace paql::partition
