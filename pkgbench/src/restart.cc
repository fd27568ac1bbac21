// restart: a cold first query after a restart, over an out-of-core store.
//
// Set-up writes the Galaxy table as a .pqb block store and ingests a long
// history of small batches through the live path (INSERT/DELETE over the
// wire, logged to the WAL). Each operation is one restart: a fresh catalog
// opens the store with an empty block cache several times smaller than
// the store, the server replays the log, and one selective objid-window
// query is answered. The page cache stays warm: "cold" means an empty
// block cache and fresh program state.
#include <cmath>
#include <filesystem>
#include <memory>
#include <iostream>
#include <set>

#include "checker.h"
#include "common/stopwatch.h"
#include "inputs.h"
#include "judge.h"
#include "relation/block_store.h"
#include "relation/csv.h"
#include "service/catalog.h"
#include "service/server.h"
#include "workloads.h"

namespace pkgbench {
namespace {

namespace fs = std::filesystem;
using paql::Stopwatch;
using paql::service::Catalog;
using paql::service::Server;
using paql::service::ServerOptions;

}  // namespace

ServerOptions RestartServerOptions(const std::string& wal_dir) {
  ServerOptions options;
  options.wal_dir = wal_dir;
  options.wal_sync = kWalSync;
  options.scheduler.engine.exec.threads = kRestartThreads;
  // The offline partitioning covers the query's attributes (the paper's
  // workload attributes), not all fourteen columns of the store.
  options.scheduler.engine.planner.partition_attributes = {"objid",
                                                           "petroFlux_r"};
  return options;
}

namespace {

struct Instance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Server> server;

  void TearDown() {
    server.reset();
    catalog.reset();
  }
};

/// Opens the store with an empty block cache and recovers from the log.
Instance Open(const std::string& store, const std::string& wal_dir) {
  Instance inst;
  inst.catalog = std::make_unique<Catalog>();
  paql::Status status =
      inst.catalog->AddTableFromDisk(store, kRestartCacheBytes);
  if (!status.ok()) Die(status.ToString());
  inst.server = std::make_unique<Server>(*inst.catalog, RestartServerOptions(wal_dir));
  status = inst.server->Start();
  if (!status.ok()) Die("server failed to start: " + status.ToString());
  return inst;
}

/// Writes the store and ingests the update history through the server.
void SetUp(const std::string& dir, const std::string& store,
           const std::string& wal_dir,
           const std::vector<std::string>& updates) {
  fs::remove_all(wal_dir);
  fs::remove(store);
  auto table = paql::relation::ReadCsv(dir + "/galaxy.csv");
  if (!table.ok()) Die(table.status().ToString());
  paql::Status status = paql::relation::WriteBlockStore(*table, store);
  if (!status.ok()) Die(status.ToString());
  Instance inst = Open(store, wal_dir);
  LineClient client;
  if (!client.Connect(inst.server->port())) Die("cannot connect");
  std::vector<std::string> lines;
  for (const std::string& batch : updates) {
    if (!client.Request(batch, &lines) || lines.front().rfind("UPD", 0) != 0) {
      Die("ingest failed: " + (lines.empty() ? batch : lines.front()));
    }
  }
  client.SendLine("QUIT");
  client.Close();
  inst.TearDown();
}

/// Removes whatever a restart added to the log directory (each recovery
/// opens a fresh segment), so every restart replays the same history.
void ResetLog(const std::string& wal_dir, const std::set<fs::path>& keep) {
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    if (!keep.count(entry.path())) fs::remove(entry.path());
  }
}

/// Compares the recovered table with the benchmark's own replay: row
/// count, live flags and every value.
bool SameTable(const paql::relation::ColumnSource& table, const Rows& rows,
               std::string* error) {
  if (table.num_rows() != rows.num_rows()) {
    *error = "recovered " + std::to_string(table.num_rows()) +
             " row ids, the replay has " + std::to_string(rows.num_rows());
    return false;
  }
  for (uint64_t r = 0; r < rows.num_rows(); ++r) {
    bool deleted = table.has_deleted_rows() && table.RowDeleted(r);
    if (deleted == rows.live(r)) {
      *error = "row " + std::to_string(r) + " differs in liveness";
      return false;
    }
  }
  // Column by column: each block is decoded once through the small cache.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (uint64_t r = 0; r < rows.num_rows(); ++r) {
      if (!rows.live(r)) continue;
      double want = rows.value(static_cast<int>(c), r);
      double got = table.IsNull(r, c) ? NAN : table.GetDouble(r, c);
      if (!(got == want || (std::isnan(got) && std::isnan(want)))) {
        *error = "row " + std::to_string(r) + " column " +
                 rows.columns()[c] + " differs";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Outcome RunRestart(const Args& args) {
  Outcome out;
  const std::string& dir = args.data_dir;
  const std::string store = dir + "/galaxy.pqb";
  const std::string wal_dir = dir + "/wal";
  std::vector<Statement> windows = ReadStatements(dir + "/statements.tsv");
  std::vector<std::string> updates = ReadLinesOrDie(dir + "/updates.txt");

  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    Stopwatch watch;
    SetUp(dir, store, wal_dir, updates);
    setup_s.push_back(watch.ElapsedSeconds());
    std::cerr << "restart: set-up " << setup_s.back() << " s\n";
  }
  std::set<fs::path> log_files;
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    log_files.insert(entry.path());
  }

  // One restart per operation, whole operations only.
  std::vector<double> latency_ms;
  std::vector<std::string> replies;
  std::vector<std::string> lines;
  Stopwatch loop;
  while (loop.ElapsedSeconds() < args.seconds) {
    if (replies.size() >= windows.size()) Die("query windows exhausted");
    ResetLog(wal_dir, log_files);
    Stopwatch rt;
    Instance inst = Open(store, wal_dir);
    LineClient client;
    if (!client.Connect(inst.server->port())) Die("cannot connect");
    if (!client.Request("RUN " + windows[replies.size()].paql, &lines)) {
      Die("lost");
    }
    latency_ms.push_back(rt.ElapsedMillis());
    replies.push_back(lines.front());
    client.SendLine("QUIT");
    client.Close();
    inst.TearDown();
  }
  const double loop_seconds = loop.ElapsedSeconds();
  const double peak_rss = PeakRssMiB();

  // Independent check: the benchmark's own replay of the history.
  Rows galaxy = Rows::FromCsv(dir + "/galaxy.csv");
  std::string error;
  for (const std::string& batch : updates) {
    if (!galaxy.ApplyUpdateLine(batch, &error)) Die(error);
  }
  Judge judge;
  judge.AddTable("galaxy", &galaxy);
  std::vector<double> ratios;
  for (size_t k = 0; k < replies.size(); ++k) {
    ++out.attempted;
    double ratio;
    if (replies[k].rfind("PKG", 0) != 0) {
      ++out.failed;
      std::cerr << "pkgbench: restart query failed: " << replies[k] << "\n";
    } else if (!judge.Check(windows[k], replies[k], &ratio, &error)) {
      out.Wrong(error);
    } else {
      ratios.push_back(ratio);
    }
  }
  // The recovered table itself, from one more restart.
  ResetLog(wal_dir, log_files);
  {
    Instance inst = Open(store, wal_dir);
    auto snapshot = inst.catalog->Snapshot();
    auto it = snapshot->find("galaxy");
    if (it == snapshot->end()) {
      out.Wrong("the recovered catalog has no galaxy table");
    } else if (!SameTable(*it->second, galaxy, &error)) {
      out.Wrong("recovered table differs from the replay: " + error);
    }
    inst.TearDown();
  }
  fs::remove_all(wal_dir);
  fs::remove(store);
  SetEndToEnd(&out, setup_s, loop_seconds, latency_ms, peak_rss, ratios);
  return out;
}

}  // namespace pkgbench
