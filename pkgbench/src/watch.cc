// watch: the write path beside reads.
//
// A Galaxy table with the write-ahead log on and three WATCHed statements
// takes a seeded stream of small INSERT and DELETE batches over the wire;
// each round ends with one RUN of an unwatched statement, which always
// misses the cache because every batch evicts the table's artifacts. The
// loop measures TableVersion::Apply, AbsorbBatch, incremental repair of
// the standing queries and WAL appends.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "checker.h"
#include "common/stopwatch.h"
#include "inputs.h"
#include "judge.h"
#include "service/catalog.h"
#include "service/server.h"
#include "workloads.h"

namespace pkgbench {
namespace {

using paql::Stopwatch;
using paql::service::Catalog;
using paql::service::Server;
using paql::service::ServerOptions;

}  // namespace

ServerOptions WatchServerOptions(const std::string& wal_dir) {
  ServerOptions options;
  options.wal_dir = wal_dir;
  options.wal_sync = kWalSync;
  paql::EngineOptions& engine = options.scheduler.engine;
  engine.exec.threads = 1;
  engine.planner.partition_size_threshold = kWatchTau;
  engine.planner.direct_row_threshold = kWatchGalaxyRows / 2;
  // The offline partitioning covers the workload attributes: those of the
  // watched statements and of the objid-window RUNs.
  engine.planner.partition_attributes = {"objid", "petroFlux_r", "petroRad_r",
                                         "g",     "dec",         "ra",
                                         "r"};
  return options;
}

namespace {

struct Instance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Server> server;
  std::vector<uint64_t> watch_ids;
  std::vector<std::string> watch_replies;  // PKG line at registration

  void TearDown() {
    server.reset();
    catalog.reset();
  }
};

/// "WATCH <id> valid=<0|1>" -> id.
uint64_t WatchId(const std::string& line) {
  std::istringstream in(line);
  std::string head;
  uint64_t id = 0;
  in >> head >> id;
  if (head != "WATCH") Die("WATCH failed: " + line);
  return id;
}

/// The PKG line of a reply, or the reply's last line when there is none.
std::string Payload(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    if (line.rfind("PKG", 0) == 0) return line;
  }
  return lines.empty() ? std::string() : lines.back();
}

Instance SetUp(const std::string& dir, const std::string& wal_dir,
               const std::vector<Statement>& watches) {
  std::filesystem::remove_all(wal_dir);
  Instance inst;
  inst.catalog = std::make_unique<Catalog>();
  paql::Status status = inst.catalog->AddTableFromCsv(dir + "/galaxy.csv");
  if (!status.ok()) Die(status.ToString());
  inst.server = std::make_unique<Server>(*inst.catalog, WatchServerOptions(wal_dir));
  if (!inst.server->Start().ok()) Die("server failed to start");
  LineClient client;
  if (!client.Connect(inst.server->port())) Die("cannot connect");
  std::vector<std::string> lines;
  for (const Statement& w : watches) {
    if (!client.Request("WATCH " + w.paql, &lines) || lines.empty()) {
      Die("WATCH lost");
    }
    inst.watch_ids.push_back(WatchId(lines.front()));
    inst.watch_replies.push_back(Payload(lines));
  }
  client.SendLine("QUIT");
  return inst;
}

/// Reads a generated stream one line at a time, so the process hosting the
/// server holds the current round's inputs, not the whole stream.
class LineReader {
 public:
  explicit LineReader(const std::string& path) : in_(path) {
    if (!in_) Die("cannot read " + path);
  }
  std::string Next() {
    std::string line;
    if (!std::getline(in_, line)) Die("input stream exhausted");
    return line;
  }

 private:
  std::ifstream in_;
};

/// Checks an "UPD inserted=.. deleted=.." reply against the batch line.
bool UpdateAcknowledged(const std::string& batch, const std::string& reply,
                        size_t rows) {
  std::string want = batch.rfind("INSERT", 0) == 0
                         ? "UPD inserted=" + std::to_string(rows) + " deleted=0"
                         : "UPD inserted=0 deleted=" + std::to_string(rows);
  return reply.rfind(want, 0) == 0;
}

}  // namespace

Outcome RunWatch(const Args& args) {
  Outcome out;
  const std::string& dir = args.data_dir;
  std::vector<Statement> watches = ReadStatements(dir + "/watches.tsv");

  std::vector<double> setup_s;
  Instance inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.TearDown();
    Stopwatch watch;
    inst = SetUp(dir, dir + "/wal", watches);
    setup_s.push_back(watch.ElapsedSeconds());
  }

  // One client, whole rounds. An operation is one round: an INSERT batch,
  // a DELETE batch and the RUN, each waiting for its reply.
  LineClient client;
  if (!client.Connect(inst.server->port())) Die("cannot connect");
  std::vector<double> latency_ms;
  std::vector<std::string> update_replies;
  std::vector<std::string> run_replies;
  std::vector<std::string> lines;
  LineReader update_stream(dir + "/updates.txt");
  LineReader run_stream(dir + "/statements.tsv");
  Stopwatch loop;
  size_t rounds = 0;
  while (loop.ElapsedSeconds() < args.seconds) {
    const std::string insert = update_stream.Next();
    const std::string remove = update_stream.Next();
    const std::string run = "RUN " + ParseStatement(run_stream.Next()).paql;
    Stopwatch rt;
    for (const std::string* batch : {&insert, &remove}) {
      if (!client.Request(*batch, &lines)) Die("lost");
      update_replies.push_back(lines.front());
    }
    if (!client.Request(run, &lines)) Die("lost");
    run_replies.push_back(lines.front());
    latency_ms.push_back(rt.ElapsedMillis());
    ++rounds;
  }
  const double loop_seconds = loop.ElapsedSeconds();
  const double peak_rss = PeakRssMiB();
  // The standing queries' packages after the last batch.
  std::vector<std::string> final_watch;
  for (uint64_t id : inst.watch_ids) {
    if (!client.Request("WATCH " + std::to_string(id), &lines)) Die("lost");
    final_watch.push_back(Payload(lines));
  }
  client.SendLine("QUIT");
  client.Close();
  inst.TearDown();

  // Independent check: replay the batches on the benchmark's own rows and
  // judge every reply against the state it should have seen.
  Rows galaxy = Rows::FromCsv(dir + "/galaxy.csv");
  Judge judge;
  judge.AddTable("galaxy", &galaxy);
  std::vector<double> ratios;
  std::string error;
  double ratio;
  for (size_t w = 0; w < watches.size(); ++w) {
    if (!judge.Check(watches[w], inst.watch_replies[w], &ratio, &error)) {
      out.Wrong("at registration: " + error);
    }
  }
  LineReader updates(dir + "/updates.txt");
  LineReader runs(dir + "/statements.tsv");
  for (size_t r = 0; r < rounds; ++r) {
    ++out.attempted;
    bool failed = false;
    for (int u = 0; u < 2; ++u) {
      const std::string batch = updates.Next();
      const std::string& reply = update_replies[2 * r + u];
      if (reply.rfind("UPD", 0) != 0) {
        failed = true;
        std::cerr << "pkgbench: batch failed: " << reply << "\n";
      } else if (!UpdateAcknowledged(batch, reply, kWatchBatchRows)) {
        out.Wrong("batch acknowledged as: " + reply);
      }
      if (!galaxy.ApplyUpdateLine(batch, &error)) Die(error);
    }
    const Statement run = ParseStatement(runs.Next());
    if (run_replies[r].rfind("PKG", 0) != 0) {
      failed = true;
      std::cerr << "pkgbench: " << run.name << " failed: " << run_replies[r]
                << "\n";
    } else if (!judge.Check(run, run_replies[r], &ratio, &error)) {
      out.Wrong(error);
    } else {
      ratios.push_back(ratio);
    }
    if (failed) ++out.failed;
  }
  for (size_t w = 0; w < watches.size(); ++w) {
    if (final_watch[w].rfind("PKG", 0) != 0) {
      out.Wrong(watches[w].name + " is not valid after the stream: " +
                final_watch[w]);
    } else if (!judge.Check(watches[w], final_watch[w], &ratio, &error)) {
      out.Wrong("after the stream: " + error);
    }
  }
  std::filesystem::remove_all(dir + "/wal");
  SetEndToEnd(&out, setup_s, loop_seconds, latency_ms, peak_rss, ratios);
  return out;
}

}  // namespace pkgbench
