// serve: a dashboard re-issuing a fixed cycle of statements over the wire.
//
// In-memory Galaxy and TPC-H tables route to SKETCHREFINE over
// partitionings built in set-up (the paper's offline step); a small table
// routes to DIRECT. Every statement recurs, so the cross-query cache
// serves plans and warm bases: the loop measures parse, compile, cache
// lookup and warm-started solves, with no partition builds, updates or
// block I/O.
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

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

ServerOptions ServeServerOptions() {
  ServerOptions options;
  options.scheduler.max_concurrent = kServeClients;
  paql::EngineOptions& engine = options.scheduler.engine;
  engine.exec.threads = 1;
  engine.planner.partition_size_threshold = kServeTau;
  return options;
}

namespace {

struct Reply {
  size_t statement = 0;
  double latency_ms = 0;
  std::string payload;  // "PKG ..." or "ERR ..."
};

struct Instance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Server> server;

  /// The server goes first: it holds a reference to the catalog.
  void TearDown() {
    server.reset();
    catalog.reset();
  }
};

/// Loads the tables, starts the server and runs every statement once,
/// which builds the partitionings and fills the cross-query cache.
Instance SetUp(const std::string& dir, const std::vector<Statement>& cycle,
               std::vector<Reply>* warmup) {
  Instance inst;
  inst.catalog = std::make_unique<Catalog>();
  for (const char* table : {"galaxy", "tpch", "stars"}) {
    paql::Status status =
        inst.catalog->AddTableFromCsv(dir + "/" + table + ".csv");
    if (!status.ok()) Die(status.ToString());
  }
  inst.server = std::make_unique<Server>(*inst.catalog, ServeServerOptions());
  if (!inst.server->Start().ok()) Die("server failed to start");
  LineClient client;
  if (!client.Connect(inst.server->port())) Die("cannot connect");
  std::vector<std::string> lines;
  for (size_t s = 0; s < cycle.size(); ++s) {
    if (!client.Request("RUN " + cycle[s].paql, &lines)) Die("warm-up lost");
    warmup->push_back({s, 0, lines.front()});
  }
  client.SendLine("QUIT");
  return inst;
}

/// Checks every distinct (statement, reply) pair once and folds the
/// verdicts into `out`; returns the per-reply objective ratios.
std::vector<double> JudgeReplies(const std::vector<Reply>& replies,
                                 const std::vector<Statement>& cycle,
                                 Judge* judge, Outcome* out,
                                 bool count_ops) {
  std::map<std::pair<size_t, std::string>, double> seen;  // -> ratio
  std::vector<double> ratios;
  for (const Reply& reply : replies) {
    if (count_ops) ++out->attempted;
    if (reply.payload.rfind("PKG", 0) != 0) {
      if (count_ops) ++out->failed;
      std::cerr << "pkgbench: " << cycle[reply.statement].name
                << " failed: " << reply.payload << "\n";
      continue;
    }
    auto key = std::make_pair(reply.statement, reply.payload);
    auto it = seen.find(key);
    if (it == seen.end()) {
      double ratio;
      std::string error;
      if (!judge->Check(cycle[reply.statement], reply.payload, &ratio,
                        &error)) {
        out->Wrong(error);
      }
      it = seen.emplace(key, ratio).first;
    }
    if (!std::isnan(it->second)) ratios.push_back(it->second);
  }
  return ratios;
}

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome out;
  const std::string& dir = args.data_dir;
  std::vector<Statement> cycle = ReadStatements(dir + "/statements.tsv");

  std::vector<double> setup_s;
  std::vector<Reply> warmup;
  Instance inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.TearDown();
    warmup.clear();
    Stopwatch watch;
    inst = SetUp(dir, cycle, &warmup);
    setup_s.push_back(watch.ElapsedSeconds());
  }

  // Closed loop: each client walks the cycle from its own seeded offset
  // and stops at the first cycle boundary past the run length.
  std::vector<Reply> replies;
  std::mutex mu;
  std::atomic<bool> lost{false};
  Stopwatch loop;
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      size_t offset = DeriveSeed(args.seed, 100 + c) % cycle.size();
      LineClient client;
      if (!client.Connect(inst.server->port())) {
        lost = true;
        return;
      }
      std::vector<Reply> local;
      std::vector<std::string> lines;
      while (loop.ElapsedSeconds() < args.seconds) {
        for (size_t i = 0; i < cycle.size(); ++i) {
          size_t s = (offset + i) % cycle.size();
          Stopwatch rt;
          if (!client.Request("RUN " + cycle[s].paql, &lines)) {
            lost = true;
            return;
          }
          local.push_back({s, rt.ElapsedMillis(), lines.front()});
        }
      }
      client.SendLine("QUIT");
      std::lock_guard<std::mutex> lock(mu);
      replies.insert(replies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : clients) t.join();
  const double loop_seconds = loop.ElapsedSeconds();
  const double peak_rss = PeakRssMiB();
  inst.server->Stop();
  if (lost) Die("a client lost its connection");

  // Independent check of every reply, warm-up included.
  Rows galaxy = Rows::FromCsv(dir + "/galaxy.csv");
  Rows tpch = Rows::FromCsv(dir + "/tpch.csv");
  Rows stars = Rows::FromCsv(dir + "/stars.csv");
  Judge judge;
  judge.AddTable("galaxy", &galaxy);
  judge.AddTable("tpch", &tpch);
  judge.AddTable("stars", &stars);
  judge.SetReference(ReadReferenceOptima(args.ref));
  JudgeReplies(warmup, cycle, &judge, &out, /*count_ops=*/false);
  std::vector<double> ratios =
      JudgeReplies(replies, cycle, &judge, &out, /*count_ops=*/true);

  std::vector<double> latency_ms;
  std::vector<std::vector<double>> per_statement(cycle.size());
  for (const Reply& r : replies) {
    latency_ms.push_back(r.latency_ms);
    per_statement[r.statement].push_back(r.latency_ms);
  }
  for (size_t s = 0; s < cycle.size(); ++s) {
    std::cerr << "serve: " << cycle[s].name << " p50 "
              << Median(per_statement[s]) << " ms, p95 "
              << Quantile(per_statement[s], 0.95) << " ms\n";
  }
  SetEndToEnd(&out, setup_s, loop_seconds, latency_ms, peak_rss, ratios);
  return out;
}

}  // namespace pkgbench
