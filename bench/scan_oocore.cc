// Out-of-core columnar storage bench (writes BENCH_scan.json).
//
// The paper's evaluation assumes the relation fits in RAM; the repo's
// north star is serving tables far bigger than memory. This bench drives
// the block-store path (relation/block_store.h + relation/disk_table.h)
// end to end over a Galaxy-style workload and records:
//
//   * on-disk size vs raw column bytes (compression ratio),
//   * bounded-memory scan throughput, cold (every block decoded from
//     disk) and warm (served from the LRU block cache),
//   * zone-map pruning on a clustering-key predicate (objid is
//     append-ordered, so an objid window skips whole blocks),
//   * DIRECT and SKETCHREFINE under a block-cache budget a quarter of
//     the raw column bytes, checked bit-identical against the in-memory
//     Table path (packages and objectives compared exactly).
//
// Dataset: MakeGalaxyTable quantized to 4 decimal digits. The synthetic
// generator emits full-entropy mantissas, which no lossless encoder can
// shrink; real SDSS catalog exports publish fixed-precision decimals
// (CasJobs CSV), which is exactly what the kForDecimal frame-of-reference
// encoding captures. Quantizing at generation keeps the storage layer
// honest: lossless encodings over catalog-like data.
//
// Default size is 10M rows (~1.1 GB raw); --quick shrinks to 500k for CI
// smoke runs. The regression guard (scripts/check_bench_regression.py)
// always enforces the correctness invariants recorded here (identical
// results, pruned blocks > 0, on-disk <= 50% of raw) and compares the
// scale-dependent numbers only between runs of the same row count.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "relation/block_cache.h"
#include "relation/block_store.h"
#include "relation/disk_table.h"
#include "translate/vector_expr.h"

namespace paql::bench {
namespace {

using relation::RowId;
using relation::Table;

/// Numeric literal with enough digits to reparse exactly.
std::string Lit(double v) { return FormatDouble(v, 17); }

/// Round every double column to 4 decimal digits, producing values of the
/// exact form llround(v * 1e4) / 1e4 — the same expression the
/// kForDecimal encoder verifies and its decoder reconstructs, so the
/// round trip is bit-exact. 4 digits mirrors SDSS catalog CSV precision.
Table QuantizeToCatalogPrecision(const Table& source) {
  Table out{source.schema()};
  out.Reserve(source.num_rows());
  const size_t cols = source.num_columns();
  std::vector<relation::Value> row(cols);
  for (RowId r = 0; r < source.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (source.schema().column(c).type == relation::DataType::kInt64) {
        row[c] = relation::Value(source.GetInt64(r, c));
      } else {
        const double v = source.GetDouble(r, c);
        row[c] = relation::Value(
            static_cast<double>(std::llround(v * 10000.0)) / 10000.0);
      }
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

std::vector<RowId> TimedScan(const translate::CompiledQuery& cq,
                             const relation::ColumnSource& table,
                             double* seconds,
                             translate::ScanCounters* counters = nullptr) {
  Stopwatch watch;
  auto rows = cq.ComputeBaseRowsVectorized(table, /*threads=*/1, counters);
  *seconds = watch.ElapsedSeconds();
  return rows;
}

translate::CompiledQuery MustCompile(const std::string& paql,
                                     const relation::Schema& schema) {
  auto parsed = lang::ParsePackageQuery(paql);
  PAQL_CHECK_MSG(parsed.ok(), parsed.status() << "\n  in: " << paql);
  auto cq = translate::CompiledQuery::Compile(*parsed, schema);
  PAQL_CHECK_MSG(cq.ok(), cq.status() << "\n  in: " << paql);
  return std::move(*cq);
}

bool BitEqualDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Exact multiset equality (canonical order) — the bit-identical claim.
bool SamePackage(core::Package a, core::Package b) {
  a.Normalize();
  b.Normalize();
  return a.rows == b.rows && a.multiplicity == b.multiplicity;
}

struct ScanSection {
  double cold_mrows_per_sec = 0;
  double warm_mrows_per_sec = 0;
  double warm_hit_rate = 0;
  int64_t selective_blocks_scanned = 0;
  int64_t selective_blocks_pruned = 0;
  bool identical_scans = false;
};

struct QuerySection {
  double direct_mem_seconds = 0;
  double direct_disk_seconds = 0;
  int64_t direct_blocks_pruned = 0;
  double partition_disk_seconds = 0;
  double sketchrefine_mem_seconds = 0;
  double sketchrefine_disk_seconds = 0;
  int64_t sketchrefine_blocks_pruned = 0;
  bool identical_packages = false;
};

Status WriteBenchScanJson(const std::string& path, size_t rows,
                          size_t raw_bytes, size_t stored_bytes,
                          size_t cache_budget_bytes, double write_seconds,
                          const ScanSection& scan, const QuerySection& queries,
                          const relation::BlockCacheStats& cache) {
  std::ofstream os(path);
  if (!os) {
    return Status::InvalidArgument(StrCat("cannot write ", path));
  }
  const char* b = "true";
  os << "{\n";
  os << "  \"bench\": \"scan_oocore\",\n";
  os << "  \"rows\": " << rows << ",\n";
  os << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "  \"block_rows\": " << relation::kBlockRows << ",\n";
  os << "  \"raw_bytes\": " << raw_bytes << ",\n";
  os << "  \"stored_bytes\": " << stored_bytes << ",\n";
  os << "  \"on_disk_ratio\": "
     << FormatDouble(static_cast<double>(stored_bytes) /
                         static_cast<double>(raw_bytes),
                     4)
     << ",\n";
  os << "  \"cache_budget_bytes\": " << cache_budget_bytes << ",\n";
  os << "  \"write_seconds\": " << FormatDouble(write_seconds, 3) << ",\n";
  os << "  \"scan\": {\n";
  os << "    \"cold_mrows_per_sec\": "
     << FormatDouble(scan.cold_mrows_per_sec, 3) << ",\n";
  os << "    \"warm_mrows_per_sec\": "
     << FormatDouble(scan.warm_mrows_per_sec, 3) << ",\n";
  os << "    \"warm_hit_rate\": " << FormatDouble(scan.warm_hit_rate, 4)
     << ",\n";
  os << "    \"selective_blocks_scanned\": " << scan.selective_blocks_scanned
     << ",\n";
  os << "    \"selective_blocks_pruned\": " << scan.selective_blocks_pruned
     << ",\n";
  os << "    \"identical_scans\": " << (scan.identical_scans ? b : "false")
     << "\n";
  os << "  },\n";
  os << "  \"queries\": {\n";
  os << "    \"direct_mem_seconds\": "
     << FormatDouble(queries.direct_mem_seconds, 3) << ",\n";
  os << "    \"direct_disk_seconds\": "
     << FormatDouble(queries.direct_disk_seconds, 3) << ",\n";
  os << "    \"direct_blocks_pruned\": " << queries.direct_blocks_pruned
     << ",\n";
  os << "    \"partition_disk_seconds\": "
     << FormatDouble(queries.partition_disk_seconds, 3) << ",\n";
  os << "    \"sketchrefine_mem_seconds\": "
     << FormatDouble(queries.sketchrefine_mem_seconds, 3) << ",\n";
  os << "    \"sketchrefine_disk_seconds\": "
     << FormatDouble(queries.sketchrefine_disk_seconds, 3) << ",\n";
  os << "    \"sketchrefine_blocks_pruned\": "
     << queries.sketchrefine_blocks_pruned << ",\n";
  os << "    \"identical_packages\": "
     << (queries.identical_packages ? b : "false") << "\n";
  os << "  },\n";
  os << "  \"cache\": {\n";
  os << "    \"hits\": " << cache.hits << ",\n";
  os << "    \"misses\": " << cache.misses << ",\n";
  os << "    \"evictions\": " << cache.evictions << ",\n";
  os << "    \"hit_rate\": " << FormatDouble(cache.hit_rate(), 4) << ",\n";
  os << "    \"resident_bytes\": " << cache.resident_bytes << "\n";
  os << "  }\n";
  os << "}\n";
  return Status::OK();
}

void Run(const BenchConfig& config) {
  // 10M rows full size (~1.1 GB raw; above the paper's 5.5M Galaxy view),
  // 500k under --quick for CI smoke runs.
  const size_t rows = std::max<size_t>(
      static_cast<size_t>(10'000'000 * config.scale *
                          (config.quick ? 0.05 : 1.0)),
      4 * relation::kBlockRows);
  std::cout << "scan_oocore: out-of-core columnar storage over "
            << rows << " Galaxy rows\n\n";

  std::cout << "generating + quantizing to catalog precision...\n";
  Table galaxy = QuantizeToCatalogPrecision(workload::MakeGalaxyTable(rows));
  const size_t raw_bytes = rows * galaxy.num_columns() * sizeof(double);

  const std::string store_path =
      StrCat("/tmp/paql_scan_oocore_", getpid(), ".pqb");
  Stopwatch write_watch;
  Status written = relation::WriteBlockStore(galaxy, store_path);
  PAQL_CHECK_MSG(written.ok(), written);
  const double write_seconds = write_watch.ElapsedSeconds();

  // The bounded-memory contract: the decoded working set may use at most
  // a quarter of the raw column bytes.
  const size_t cache_budget =
      std::max<size_t>(raw_bytes / 4, size_t{8} << 20);
  PAQL_CHECK(cache_budget < raw_bytes);
  relation::BlockCache::Options cache_options;
  cache_options.capacity_bytes = cache_budget;
  auto cache = std::make_shared<relation::BlockCache>(cache_options);
  auto opened = relation::DiskTable::Open(store_path, cache);
  PAQL_CHECK_MSG(opened.ok(), opened.status());
  const relation::DiskTable& disk = **opened;
  const size_t stored_bytes = disk.reader().stored_bytes();
  const double on_disk_ratio =
      static_cast<double>(stored_bytes) / static_cast<double>(raw_bytes);
  PAQL_CHECK_MSG(on_disk_ratio <= 0.5,
                 "on-disk " << stored_bytes << "B exceeds 50% of raw "
                            << raw_bytes << "B");

  auto mean = [&](const char* col) {
    auto m = workload::ColumnMeanNonNull(galaxy, col);
    PAQL_CHECK_MSG(m.ok(), m.status());
    return *m;
  };
  const double mean_r = mean("r");
  const double mean_rad = mean("petroRad_r");

  // objid is append-ordered (the clustering key), so these windows map to
  // contiguous block ranges the zone maps can skip around.
  const int64_t first_id = galaxy.GetInt64(0, 0);
  const int64_t direct_window = static_cast<int64_t>(
      std::max<size_t>(rows / 64, 2 * relation::kBlockRows));
  const int64_t direct_lo = first_id + static_cast<int64_t>(0.30 * rows);
  const int64_t direct_hi = direct_lo + direct_window - 1;
  const int64_t sr_window = static_cast<int64_t>(rows / 4);
  const int64_t sr_lo = first_id + static_cast<int64_t>(0.50 * rows);
  const int64_t sr_hi = sr_lo + sr_window - 1;

  // --- Scans: throughput over every block, pruning over a window --------
  ScanSection scan;
  {
    auto full = MustCompile(
        StrCat("SELECT PACKAGE(G) AS P FROM Galaxy G WHERE G.r <= ",
               Lit(mean_r)),
        galaxy.schema());
    double cold_s = 0, warm_s = 0, mem_s = 0;
    auto cold_rows = TimedScan(full, disk, &cold_s);
    const auto cold_stats = cache->stats();
    auto warm_rows = TimedScan(full, disk, &warm_s);
    const auto warm_stats = cache->stats();
    auto mem_rows = TimedScan(full, galaxy, &mem_s);
    scan.cold_mrows_per_sec = rows / cold_s / 1e6;
    scan.warm_mrows_per_sec = rows / warm_s / 1e6;
    const int64_t warm_lookups = (warm_stats.hits + warm_stats.misses) -
                                 (cold_stats.hits + cold_stats.misses);
    scan.warm_hit_rate =
        warm_lookups == 0
            ? 0.0
            : static_cast<double>(warm_stats.hits - cold_stats.hits) /
                  static_cast<double>(warm_lookups);

    auto selective = MustCompile(
        StrCat("SELECT PACKAGE(G) AS P FROM Galaxy G WHERE G.objid BETWEEN ",
               direct_lo, " AND ", direct_hi),
        galaxy.schema());
    translate::ScanCounters counters;
    double sel_s = 0, sel_mem_s = 0;
    auto sel_rows = TimedScan(selective, disk, &sel_s, &counters);
    auto sel_mem_rows = TimedScan(selective, galaxy, &sel_mem_s);
    scan.selective_blocks_scanned = counters.blocks_scanned.load();
    scan.selective_blocks_pruned = counters.blocks_pruned.load();
    scan.identical_scans = cold_rows == mem_rows && warm_rows == mem_rows &&
                           sel_rows == sel_mem_rows;
    PAQL_CHECK_MSG(scan.identical_scans,
                   "disk scans differ from in-memory scans");
    PAQL_CHECK_MSG(scan.selective_blocks_pruned > 0,
                   "objid window pruned no blocks");

    TablePrinter t({"Scan", "Rows matched", "Mrows/s", "Blocks", "Pruned"});
    t.AddRow({"full, cold", StrCat(cold_rows.size()),
              FormatDouble(scan.cold_mrows_per_sec, 2), StrCat(disk.num_blocks()),
              "0"});
    t.AddRow({"full, warm", StrCat(warm_rows.size()),
              FormatDouble(scan.warm_mrows_per_sec, 2), StrCat(disk.num_blocks()),
              "0"});
    t.AddRow({"objid window", StrCat(sel_rows.size()),
              FormatDouble(rows / sel_s / 1e6, 2),
              StrCat(scan.selective_blocks_scanned),
              StrCat(scan.selective_blocks_pruned)});
    t.Print(std::cout);
    std::cout << "\n";
  }

  // --- DIRECT and SKETCHREFINE, in-memory vs out-of-core ----------------
  // Phase markers go to stderr (unbuffered), so a stalled phase is visible
  // even when stdout is block-buffered into a pipe or file.
  QuerySection queries;
  const auto limits = config.solver_limits();
  {
    std::fprintf(stderr, "[scan_oocore] DIRECT mem vs disk...\n");
    auto cq = MustCompile(
        StrCat("SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0",
               " WHERE G.objid BETWEEN ", direct_lo, " AND ", direct_hi,
               " AND G.redshift <= 0.1",
               " SUCH THAT COUNT(P.*) = 8 AND SUM(P.petroRad_r) <= ",
               Lit(8 * mean_rad * 1.3), " MINIMIZE SUM(P.g)"),
        galaxy.schema());
    engine::ExecContext options;
    options.limits = limits;
    options.branch_and_bound.gap_tol = kCplexDefaultGap;
    options.threads = 1;
    auto d_mem = core::DirectEvaluator(galaxy, options).Evaluate(cq);
    PAQL_CHECK_MSG(d_mem.ok(), "DIRECT (memory): " << d_mem.status());
    auto d_disk = core::DirectEvaluator(disk, options).Evaluate(cq);
    PAQL_CHECK_MSG(d_disk.ok(), "DIRECT (disk): " << d_disk.status());
    queries.direct_mem_seconds = d_mem->stats.wall_seconds;
    queries.direct_disk_seconds = d_disk->stats.wall_seconds;
    queries.direct_blocks_pruned = d_disk->stats.blocks_pruned;
    queries.identical_packages =
        SamePackage(d_mem->package, d_disk->package) &&
        BitEqualDouble(d_mem->objective, d_disk->objective);
    PAQL_CHECK_MSG(queries.identical_packages,
                   "DIRECT packages diverge between memory and disk");
    PAQL_CHECK_MSG(queries.direct_blocks_pruned > 0,
                   "DIRECT objid window pruned no blocks");
  }
  {
    // Offline partitioning built by scanning the DiskTable itself: the
    // out-of-core path covers the whole pipeline, not just evaluation.
    std::fprintf(stderr, "[scan_oocore] partitioning over the DiskTable...\n");
    partition::PartitionOptions popts;
    popts.attributes = {"petroRad_r", "g"};
    popts.size_threshold = std::min<size_t>(rows / 10, 16384);
    Stopwatch part_watch;
    auto partitioning = partition::PartitionTable(disk, popts);
    PAQL_CHECK_MSG(partitioning.ok(), partitioning.status());
    queries.partition_disk_seconds = part_watch.ElapsedSeconds();

    auto cq = MustCompile(
        StrCat("SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0",
               " WHERE G.objid BETWEEN ", sr_lo, " AND ", sr_hi,
               " AND G.redshift <= 0.15",
               " SUCH THAT COUNT(P.*) = 10 AND SUM(P.petroRad_r) <= ",
               Lit(10 * mean_rad * 1.25), " MINIMIZE SUM(P.g)"),
        galaxy.schema());
    std::fprintf(stderr, "[scan_oocore] SKETCHREFINE mem vs disk...\n");
    core::SketchRefineOptions options;
    options.limits = limits;
    options.branch_and_bound.gap_tol = kCplexDefaultGap;
    options.threads = 1;
    auto sr_mem =
        core::SketchRefineEvaluator(galaxy, *partitioning, options).Evaluate(cq);
    PAQL_CHECK_MSG(sr_mem.ok(), "SKETCHREFINE (memory): " << sr_mem.status());
    auto sr_disk =
        core::SketchRefineEvaluator(disk, *partitioning, options).Evaluate(cq);
    PAQL_CHECK_MSG(sr_disk.ok(), "SKETCHREFINE (disk): " << sr_disk.status());
    queries.sketchrefine_mem_seconds = sr_mem->stats.wall_seconds;
    queries.sketchrefine_disk_seconds = sr_disk->stats.wall_seconds;
    queries.sketchrefine_blocks_pruned = sr_disk->stats.blocks_pruned;
    const bool same = SamePackage(sr_mem->package, sr_disk->package) &&
                      BitEqualDouble(sr_mem->objective, sr_disk->objective);
    PAQL_CHECK_MSG(same, "SKETCHREFINE packages diverge between memory and disk");
    queries.identical_packages = queries.identical_packages && same;
  }

  const auto cache_stats = cache->stats();
  TablePrinter t({"Metric", "Value"});
  t.AddRow({"raw column bytes", StrCat(raw_bytes)});
  t.AddRow({"stored bytes", StrCat(stored_bytes)});
  t.AddRow({"on-disk ratio", FormatDouble(on_disk_ratio, 4)});
  t.AddRow({"cache budget bytes", StrCat(cache_budget)});
  t.AddRow({"cache hit rate", FormatDouble(cache_stats.hit_rate(), 4)});
  t.AddRow({"cache resident bytes", StrCat(cache_stats.resident_bytes)});
  t.AddRow({"DIRECT mem / disk (s)",
            StrCat(FormatDouble(queries.direct_mem_seconds, 3), " / ",
                   FormatDouble(queries.direct_disk_seconds, 3))});
  t.AddRow({"SKETCHREFINE mem / disk (s)",
            StrCat(FormatDouble(queries.sketchrefine_mem_seconds, 3), " / ",
                   FormatDouble(queries.sketchrefine_disk_seconds, 3))});
  t.AddRow({"partition over disk (s)",
            FormatDouble(queries.partition_disk_seconds, 3)});
  t.Print(std::cout);

  Status json = WriteBenchScanJson("BENCH_scan.json", rows, raw_bytes,
                                   stored_bytes, cache_budget, write_seconds,
                                   scan, queries, cache_stats);
  PAQL_CHECK_MSG(json.ok(), json);
  std::cout << "\nwrote BENCH_scan.json\n";
  std::remove(store_path.c_str());
}

}  // namespace
}  // namespace paql::bench

int main(int argc, char** argv) {
  paql::bench::Run(paql::bench::ParseBenchArgs(argc, argv));
  return 0;
}
