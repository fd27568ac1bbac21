// The benchmark's inputs: the fixed sizes of each workload and the
// generator that writes a workload's seeded inputs to its data directory.
//
// The Galaxy and TPC-H base tables are the benchmark's fixed datasets
// (fixed generator seeds, as the paper's datasets are fixed); `--seed`
// drives everything a run does with them: the small DIRECT table, the
// order in which clients walk the statement cycle, the update stream,
// the watched-table query bounds and the restart query windows.
#ifndef PKGBENCH_INPUTS_H_
#define PKGBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "relation/wal.h"

namespace pkgbench {

// --- serve --------------------------------------------------------------
inline constexpr size_t kServeGalaxyRows = 100'000;
inline constexpr size_t kServeTpchRows = 100'000;
inline constexpr size_t kServeStarsRows = 2'000;  // routes to DIRECT
inline constexpr size_t kServeTau = 4096;
inline constexpr int kServeClients = 2;

// --- watch --------------------------------------------------------------
inline constexpr size_t kWatchGalaxyRows = 10'000;
inline constexpr size_t kWatchTau = 1000;
inline constexpr size_t kWatchBatchRows = 1;    // per INSERT and per DELETE
inline constexpr size_t kWatchRounds = 40000;   // generated; runs use a prefix

// --- restart ------------------------------------------------------------
inline constexpr size_t kRestartGalaxyRows = 300'000;
inline constexpr size_t kRestartBatches = 400;   // INSERT and DELETE lines
inline constexpr size_t kRestartBatchRows = 25;
inline constexpr size_t kRestartCacheBytes = 8ull << 20;
inline constexpr int kRestartThreads = 1;
inline constexpr size_t kRestartWindows = 1000;  // generated; runs use a prefix

/// Fsync policy of every write-ahead log: appends are written, never
/// fsynced, so the sandbox's own fsync cost stays out of the figures.
inline constexpr paql::relation::WalSync kWalSync = paql::relation::WalSync::kNone;

/// Every workload sets itself up this many times and reports the median.
inline constexpr int kSetups = 5;

/// Fixed generator seeds of the base datasets.
inline constexpr uint64_t kGalaxySeed = 20161;
inline constexpr uint64_t kTpchSeed = 19921;

/// One statement of a workload. `kind` says how its optimum is known:
/// "ref" (the reference-optima file), "topk" (the checker solves it) or
/// "none" (no objective ratio: the statement is only checked).
struct Statement {
  std::string name;
  std::string kind;
  std::string paql;
};

void WriteStatements(const std::string& path,
                     const std::vector<Statement>& statements);
std::vector<Statement> ReadStatements(const std::string& path);
/// One "name<TAB>kind<TAB>paql" line of a statements file.
Statement ParseStatement(const std::string& line);

/// Writes the inputs of `args.workload` for `args.seed` to `args.data_dir`.
void GenerateInputs(const Args& args);

}  // namespace pkgbench

#endif  // PKGBENCH_INPUTS_H_
