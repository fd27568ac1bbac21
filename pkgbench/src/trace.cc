// The traced runs: each workload's operations replayed in-process, one
// span around every call into a layer's public function, and the
// per-layer metrics derived from the spans and their counters.
//
// The engine's own path (Session::Execute, ApplyUpdates, RecoverFromWal,
// PlanQuery) runs as in the untraced run; beside it the same inputs go
// through the layers one by one (parse, compile, scan, BuildModel, the
// root LP and cuts, PartitionTable, AbsorbBatch, ReEvaluatePackage,
// TableVersion::Apply, WAL append and replay, the block store), so each
// layer is timed on the work the operation gives it.
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/stopwatch.h"
#include "core/incremental.h"
#include "engine/engine.h"
#include "ilp/branch_and_bound.h"
#include "ilp/cuts.h"
#include "inputs.h"
#include "paql/parser.h"
#include "paql/validator.h"
#include "partition/dynamic_update.h"
#include "partition/partitioner.h"
#include "relation/block_store.h"
#include "relation/csv.h"
#include "relation/table_version.h"
#include "relation/wal.h"
#include "service/catalog.h"
#include "tracer.h"
#include "translate/compiled_query.h"
#include "workloads.h"

namespace pkgbench {
namespace {

namespace fs = std::filesystem;
using paql::Session;
using paql::Stopwatch;
using paql::relation::ColumnSource;
using Scope = Tracer::Scope;

/// Solver budget of the side probes: generous, and a probe that runs out
/// only loses its own counters.
constexpr double kProbeBudgetSeconds = 30;

double Rate(double num, double den) { return den > 0 ? num / den : 0; }

template <typename T>
T OrDie(paql::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

void OrDie(const paql::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

/// The FROM table of a benchmark statement (its sixth token).
std::string FromTable(const std::string& paql) {
  std::istringstream in(paql);
  std::string token;
  for (int i = 0; i < 6 && in >> token; ++i) {
  }
  return token;
}

paql::engine::ExecContext SerialContext() {
  paql::engine::ExecContext exec;
  exec.threads = 1;
  exec.limits.time_limit_s = kProbeBudgetSeconds;
  return exec;
}

/// One statement through the front-end layers; with `solver`, also the
/// root LP, one round of cut separation and a full SolveIlp over the ILP
/// BuildModel makes from the statement's candidate rows.
void ProbeStatement(Tracer* t, const Session& session, const std::string& paql,
                    bool solver) {
  auto table = OrDie(session.GetTable(FromTable(paql)), "table");
  paql::lang::PackageQuery ast;
  {
    Scope s(t, "paql.parse");
    ast = OrDie(paql::lang::ParsePackageQuery(paql), "parse");
  }
  std::optional<paql::translate::CompiledQuery> cq;
  {
    Scope s(t, "translate.compile");
    OrDie(paql::lang::ValidateQuery(ast, table->schema()), "validate");
    cq = OrDie(paql::translate::CompiledQuery::Compile(ast, table->schema()),
               "compile");
  }
  std::vector<paql::relation::RowId> rows;
  {
    Scope s(t, "translate.scan");
    rows = cq->ComputeBaseRowsVectorized(*table, 1);
    t->Count("translate.scan_rows", static_cast<double>(table->num_rows()));
  }
  paql::lp::Model model;
  {
    Scope s(t, "translate.build_model");
    model = OrDie(cq->BuildModel(*table, rows), "build model");
  }
  if (!solver) return;
  paql::lp::LpResult root;
  {
    Scope s(t, "lp.root_lp");
    root = paql::ilp::SolveLpRelaxation(model, kProbeBudgetSeconds);
  }
  if (root.status == paql::lp::LpStatus::kOptimal) {
    Scope s(t, "ilp.root_cuts");
    (void)paql::ilp::SeparateCuts(model, root.x, paql::ilp::CutOptions());
  }
  {
    Scope s(t, "ilp.solve_probe");
    paql::engine::ExecContext exec = SerialContext();
    paql::ilp::IlpStats stats;
    (void)paql::ilp::SolveIlp(model, exec.limits,
                              exec.EffectiveBranchAndBound(), nullptr, &stats);
    t->Count("ilp.cuts_added", static_cast<double>(stats.cuts_added));
    t->Count("ilp.cut_rounds", static_cast<double>(stats.cut_rounds));
  }
}

/// Session::Execute with the strategy-level statistics as counters.
bool TracedExecute(Tracer* t, Session* session, const std::string& paql) {
  Scope s(t, "engine.execute");
  auto result = session->Execute(paql);
  if (!result.ok()) {
    t->Count("engine.failed", 1);
    return false;
  }
  const paql::core::EvalStats& st = result->stats;
  const bool direct =
      result->plan.strategy == paql::engine::Strategy::kDirect;
  t->Count(direct ? "core.direct_s" : "core.sketchrefine_s", st.wall_seconds);
  t->Count("ilp.solve_s", st.solve_seconds);
  t->Count("ilp.bnb_nodes", static_cast<double>(st.bnb_nodes));
  t->Count("lp.iterations", static_cast<double>(st.lp_iterations));
  t->Count("lp.bound_flips", static_cast<double>(st.bound_flips));
  t->Count("lp.dse_pivots", static_cast<double>(st.dse_pivots));
  if (!direct) {
    t->Count("core.groups_refined", static_cast<double>(st.groups_refined));
    t->Count("core.backtracks", static_cast<double>(st.backtracks));
  }
  t->Count("engine.cache_hits", static_cast<double>(st.cache_hits));
  t->Count("engine.cache_misses", static_cast<double>(st.cache_misses));
  t->Count("relation.blocks_pruned", static_cast<double>(st.blocks_pruned));
  return true;
}

void TracedPlan(Tracer* t, Session* session, const std::string& paql) {
  Scope s(t, "engine.plan");
  OrDie(session->PlanQuery(paql), "plan");
}

/// The partitioning the planner's policy gives `table`, built on one worker.
paql::partition::Partitioning TracedPartition(
    Tracer* t, const ColumnSource& table,
    const paql::engine::PlannerOptions& planner_options) {
  paql::engine::Planner planner(planner_options);
  paql::partition::PartitionOptions options;
  options.attributes = planner.PartitionAttributes(table);
  options.size_threshold = planner.PartitionSizeThreshold(table);
  options.threads = 1;
  Scope s(t, "partition.build");
  auto p = OrDie(paql::partition::PartitionTable(table, options), "partition");
  t->Count("partition.build_rows", static_cast<double>(table.num_rows()));
  t->Count("partition.groups", static_cast<double>(p.num_groups()));
  return p;
}

/// Ratio of the traced to the untraced time of the same Execute calls.
double TraceOverhead(Session* session,
                     const std::vector<std::string>& statements, int passes) {
  for (const std::string& paql : statements) (void)session->Execute(paql);
  double bare = 0;
  for (int p = 0; p < passes; ++p) {
    for (const std::string& paql : statements) {
      Stopwatch w;
      (void)session->Execute(paql);
      bare += w.ElapsedSeconds();
    }
  }
  Tracer scratch;
  double traced = 0;
  for (int p = 0; p < passes; ++p) {
    for (const std::string& paql : statements) {
      Stopwatch w;
      TracedExecute(&scratch, session, paql);
      traced += w.ElapsedSeconds();
    }
  }
  return Rate(traced, bare);
}

/// Every per-layer metric, from the spans and counters (0 where the
/// workload gives the layer no work).
void LayerMetrics(const Tracer& t, double overhead, Outcome* out) {
  auto& m = out->metrics;
  auto median = [&](const char* span) {
    return MedianOrZero(t.Durations(span));
  };
  m["paql.parse_us"] = {median("paql.parse") * 1e6, "us"};
  m["translate.compile_us"] = {median("translate.compile") * 1e6, "us"};
  m["translate.build_model_ms"] = {median("translate.build_model") * 1e3, "ms"};
  m["translate.scan_mrows_per_s"] = {
      Rate(Sum(t.Counter("translate.scan_rows")),
           Sum(t.Durations("translate.scan"))) / 1e6, "Mrows/s"};
  m["engine.plan_ms"] = {median("engine.plan") * 1e3, "ms"};
  const double hits = Sum(t.Counter("engine.cache_hits"));
  const double misses = Sum(t.Counter("engine.cache_misses"));
  m["engine.cache_hit_ratio"] = {Rate(hits, hits + misses), "ratio"};
  m["partition.build_s"] = {median("partition.build"), "s"};
  m["partition.build_mrows_per_s"] = {
      Rate(Sum(t.Counter("partition.build_rows")),
           Sum(t.Durations("partition.build"))) / 1e6, "Mrows/s"};
  m["partition.absorb_ms"] = {median("partition.absorb") * 1e3, "ms"};
  m["partition.groups"] = {Mean(t.Counter("partition.groups")), "count"};
  m["core.sketchrefine_ms"] = {
      MedianOrZero(t.Counter("core.sketchrefine_s")) * 1e3, "ms"};
  m["core.direct_ms"] = {MedianOrZero(t.Counter("core.direct_s")) * 1e3, "ms"};
  m["core.repair_ms"] = {median("core.repair") * 1e3, "ms"};
  m["core.repair_fallbacks"] = {Sum(t.Counter("core.repair_fallback")),
                                "count"};
  m["core.groups_refined"] = {Mean(t.Counter("core.groups_refined")), "count"};
  m["core.backtracks"] = {Mean(t.Counter("core.backtracks")), "count"};
  m["ilp.solve_s"] = {Mean(t.Counter("ilp.solve_s")), "s"};
  m["ilp.bnb_nodes"] = {Mean(t.Counter("ilp.bnb_nodes")), "count"};
  m["ilp.root_cut_s"] = {median("ilp.root_cuts"), "s"};
  m["ilp.cuts_added"] = {Mean(t.Counter("ilp.cuts_added")), "count"};
  m["ilp.cut_rounds"] = {Mean(t.Counter("ilp.cut_rounds")), "count"};
  m["lp.iterations"] = {Mean(t.Counter("lp.iterations")), "count"};
  m["lp.bound_flips"] = {Mean(t.Counter("lp.bound_flips")), "count"};
  m["lp.dse_pivots"] = {Mean(t.Counter("lp.dse_pivots")), "count"};
  m["lp.root_lp_ms"] = {median("lp.root_lp") * 1e3, "ms"};
  std::vector<double> applies = t.Durations("relation.apply");
  m["relation.apply_ms"] = {MedianOrZero(applies) * 1e3, "ms"};
  double growth = 0;
  if (applies.size() >= 10) {
    const size_t tenth = applies.size() / 10;
    std::vector<double> first(applies.begin(), applies.begin() + tenth);
    std::vector<double> last(applies.end() - tenth, applies.end());
    growth = Rate(Mean(last), Mean(first));
  }
  m["relation.apply_growth"] = {growth, "ratio"};
  m["relation.wal_append_us"] = {median("relation.wal_append") * 1e6, "us"};
  m["relation.wal_replay_mb_per_s"] = {
      Rate(Sum(t.Counter("relation.wal_replay_bytes")),
           Sum(t.Durations("relation.wal_replay"))) / 1e6, "MB/s"};
  m["relation.store_write_s"] = {median("relation.store_write"), "s"};
  m["relation.store_bytes_per_raw_byte"] = {
      Mean(t.Counter("relation.store_ratio")), "ratio"};
  m["relation.block_cache_hit_ratio"] = {
      Mean(t.Counter("relation.block_cache_hit_ratio")), "ratio"};
  m["relation.blocks_pruned"] = {Mean(t.Counter("relation.blocks_pruned")),
                                 "count"};
  m["relation.block_cache_resident_mb"] = {
      Mean(t.Counter("relation.block_cache_resident_mb")), "MiB"};
  m["service.wire_us"] = {MedianOrZero(t.Counter("service.wire_us")), "us"};
  m["trace.overhead_ratio"] = {overhead, "ratio"};
  if (!t.Counter("engine.failed").empty()) {
    out->Wrong("an operation failed in the traced run");
  }
  out->attempted = static_cast<int64_t>(t.Durations("engine.execute").size() +
                                        t.Durations("engine.apply_updates").size());
  if (out->attempted == 0) out->attempted = 1;
  out->failed = static_cast<int64_t>(t.Counter("engine.failed").size());
}

/// Writes the spans next to the run's inputs and the layer self times to
/// stderr.
void Finish(const Tracer& t, const Args& args) {
  fs::path dir = fs::path(args.data_dir).parent_path() / "spans";
  fs::create_directories(dir);
  t.Write((dir / (args.workload + "-" + std::to_string(args.seed) + ".jsonl"))
              .string());
  for (const auto& [layer, seconds] : t.LayerSelfSeconds()) {
    std::cerr << "trace: layer " << layer << " self " << seconds << " s\n";
  }
}

/// Wire round trips: RTT minus the server's own "OK <micros>".
void ProbeWire(Tracer* t, uint16_t port, const std::vector<std::string>& reqs,
               int passes) {
  LineClient client;
  if (!client.Connect(port)) Die("cannot connect");
  std::vector<std::string> lines;
  for (int p = 0; p < passes; ++p) {
    for (const std::string& req : reqs) {
      Stopwatch rt;
      if (!client.Request(req, &lines)) Die("lost");
      double rtt_us = rt.ElapsedSeconds() * 1e6;
      const std::string& ok = lines.back();
      if (ok.rfind("OK ", 0) != 0) continue;
      t->Count("service.wire_us", rtt_us - std::atof(ok.c_str() + 3));
    }
  }
  client.SendLine("QUIT");
}

}  // namespace

Outcome TraceServe(const Args& args) {
  Outcome out;
  Tracer t;
  const std::string& dir = args.data_dir;
  std::vector<Statement> cycle = ReadStatements(dir + "/statements.tsv");
  paql::EngineOptions options = ServeServerOptions().scheduler.engine;

  std::map<std::string, std::shared_ptr<const ColumnSource>> tables;
  for (const char* name : {"galaxy", "tpch", "stars"}) {
    Scope s(&t, "relation.load_csv");
    tables[name] = std::make_shared<paql::relation::Table>(
        OrDie(paql::relation::ReadCsv(dir + "/" + name + ".csv"), name));
  }
  Session session =
      OrDie(paql::Engine::Open(tables["galaxy"], "galaxy", options), "open");
  OrDie(session.AddTable("tpch", tables["tpch"]), "tpch");
  OrDie(session.AddTable("stars", tables["stars"]), "stars");
  for (const char* name : {"galaxy", "tpch"}) {
    TracedPartition(&t, *tables[name], options.planner);
  }
  // Warm-up: the engine builds its partitionings and fills its cache.
  for (const Statement& s : cycle) {
    Scope w(&t, "engine.warmup");
    OrDie(session.Execute(s.paql), s.name);
  }
  // The traced cycle: each statement once through the layers, then the
  // cycle twice through the engine, as a dashboard re-issues it.
  int64_t op = 0;
  for (const Statement& s : cycle) {
    t.SetOp(op++);
    bool direct = OrDie(session.PlanQuery(s.paql), "plan").strategy ==
                  paql::engine::Strategy::kDirect;
    ProbeStatement(&t, session, s.paql, /*solver=*/direct);
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const Statement& s : cycle) {
      t.SetOp(op++);
      TracedPlan(&t, &session, s.paql);
      TracedExecute(&t, &session, s.paql);
    }
  }
  // The wire: a server over the same tables.
  {
    paql::service::Catalog catalog;
    for (const auto& [name, table] : tables) {
      OrDie(catalog.AddTable(name, table), name);
    }
    paql::service::Server server(catalog, ServeServerOptions());
    OrDie(server.Start(), "server");
    std::vector<std::string> reqs;
    for (const Statement& s : cycle) reqs.push_back("RUN " + s.paql);
    ProbeWire(&t, server.port(), reqs, 3);
    server.Stop();
  }
  std::vector<std::string> texts;
  for (const Statement& s : cycle) texts.push_back(s.paql);
  LayerMetrics(t, TraceOverhead(&session, texts, 2), &out);
  Finish(t, args);
  return out;
}

Outcome TraceWatch(const Args& args) {
  Outcome out;
  Tracer t;
  const std::string& dir = args.data_dir;
  std::vector<Statement> watches = ReadStatements(dir + "/watches.tsv");
  std::vector<Statement> runs = ReadStatements(dir + "/statements.tsv");
  std::vector<std::string> updates = ReadLinesOrDie(dir + "/updates.txt");
  const std::string wal_dir = dir + "/wal-trace";
  const std::string side_wal_dir = dir + "/wal-side";
  fs::remove_all(wal_dir);
  fs::remove_all(side_wal_dir);
  paql::EngineOptions options = WatchServerOptions(wal_dir).scheduler.engine;

  auto base = std::make_shared<paql::relation::Table>(
      OrDie(paql::relation::ReadCsv(dir + "/galaxy.csv"), "galaxy"));
  Session session = OrDie(paql::Engine::Open(base, "galaxy", options), "open");
  paql::relation::WalOptions wal;
  wal.dir = wal_dir;
  wal.sync = kWalSync;
  OrDie(session.EnableDurability(wal), "durability");
  std::vector<uint64_t> ids;
  for (const Statement& w : watches) {
    Scope s(&t, "engine.watch");
    ids.push_back(OrDie(session.Watch(w.paql), "watch"));
  }

  // The side chain: the same batches through the layers one by one.
  auto version = OrDie(paql::relation::TableVersion::Wrap(base), "wrap");
  paql::partition::Partitioning partitioning =
      TracedPartition(&t, *base, options.planner);
  std::vector<paql::translate::CompiledQuery> compiled;
  std::vector<paql::core::Package> packages;
  for (size_t w = 0; w < watches.size(); ++w) {
    auto ast = OrDie(paql::lang::ParsePackageQuery(watches[w].paql), "parse");
    compiled.push_back(OrDie(
        paql::translate::CompiledQuery::Compile(ast, base->schema()), "cq"));
    packages.push_back(OrDie(session.GetStandingQuery(ids[w]), "sq").package);
  }
  paql::relation::WalOptions side_wal;
  side_wal.dir = side_wal_dir;
  side_wal.sync = kWalSync;
  auto side_writer = OrDie(paql::relation::WalWriter::Open(side_wal), "wal");
  paql::core::IncrementalOptions repair;
  repair.sketch_refine.threads = 1;

  Stopwatch loop;
  int64_t op = 0;
  for (size_t round = 0; loop.ElapsedSeconds() < args.seconds; ++round) {
    if (2 * round + 1 >= updates.size() || round >= runs.size()) {
      Die("update stream exhausted");
    }
    for (int u = 0; u < 2; ++u) {
      t.SetOp(op++);
      const std::string& line = updates[2 * round + u];
      const bool insert = line.rfind("INSERT", 0) == 0;
      const std::string payload = line.substr(line.find(' ', 7) + 1);
      paql::relation::TableDelta delta;
      OrDie(insert ? paql::relation::ParseInsertRows(base->schema(), payload,
                                                     &delta)
                   : paql::relation::ParseDeleteRows(payload, &delta),
            "batch");
      {
        Scope s(&t, "engine.apply_updates");
        OrDie(session.ApplyUpdates("galaxy", delta), "apply");
      }
      std::shared_ptr<const paql::relation::TableVersion> next;
      {
        Scope s(&t, "relation.apply");
        next = OrDie(version->Apply(delta), "apply");
      }
      {
        Scope s(&t, "relation.wal_append");
        paql::relation::WalRecord record;
        record.table = "galaxy";
        record.base_version = version->version();
        record.delta = delta;
        OrDie(side_writer->Append(record), "append");
      }
      paql::partition::AbsorbResult absorbed;
      {
        Scope s(&t, "partition.absorb");
        absorbed = OrDie(paql::partition::AbsorbBatch(*next, partitioning,
                                                      delta.deletes),
                         "absorb");
      }
      partitioning = std::move(absorbed.partitioning);
      version = next;
      for (size_t w = 0; w < watches.size(); ++w) {
        Scope s(&t, "core.repair");
        auto repaired = paql::core::ReEvaluatePackage(
            *version, partitioning, compiled[w], packages[w],
            absorbed.dirty_groups, repair);
        if (!repaired.ok()) {
          t.Count("engine.failed", 1);
          continue;
        }
        const paql::core::EvalStats& st = repaired->result.stats;
        t.Count("core.repair_fallback", repaired->used_fallback ? 1 : 0);
        t.Count("ilp.solve_s", st.solve_seconds);
        t.Count("ilp.bnb_nodes", static_cast<double>(st.bnb_nodes));
        t.Count("lp.iterations", static_cast<double>(st.lp_iterations));
        t.Count("lp.bound_flips", static_cast<double>(st.bound_flips));
        t.Count("lp.dse_pivots", static_cast<double>(st.dse_pivots));
        packages[w] = repaired->result.package;
      }
      // The repair's ILP layers, on the first rounds only: the statement's
      // ILP over the rows of the dirty groups.
      if (round < 2) {
        std::vector<paql::relation::RowId> dirty_rows;
        for (uint32_t g : absorbed.dirty_groups) {
          for (auto r : partitioning.groups[g]) dirty_rows.push_back(r);
        }
        for (size_t w = 0; w < watches.size(); ++w) {
          auto model = compiled[w].BuildModel(*version, dirty_rows);
          if (!model.ok()) continue;
          paql::lp::LpResult root;
          {
            Scope s(&t, "lp.root_lp");
            root = paql::ilp::SolveLpRelaxation(*model, kProbeBudgetSeconds);
          }
          if (root.status == paql::lp::LpStatus::kOptimal) {
            Scope s(&t, "ilp.root_cuts");
            (void)paql::ilp::SeparateCuts(*model, root.x,
                                          paql::ilp::CutOptions());
          }
          paql::engine::ExecContext exec = SerialContext();
          paql::ilp::IlpStats stats;
          Scope s(&t, "ilp.solve_probe");
          (void)paql::ilp::SolveIlp(*model, exec.limits,
                                    exec.EffectiveBranchAndBound(), nullptr,
                                    &stats);
          t.Count("ilp.cuts_added", static_cast<double>(stats.cuts_added));
          t.Count("ilp.cut_rounds", static_cast<double>(stats.cut_rounds));
        }
      }
    }
    t.SetOp(op++);
    ProbeStatement(&t, session, runs[round].paql, /*solver=*/false);
    TracedPlan(&t, &session, runs[round].paql);
    TracedExecute(&t, &session, runs[round].paql);
  }
  double overhead = TraceOverhead(&session, {runs[0].paql}, 3);
  side_writer.reset();
  LayerMetrics(t, overhead, &out);
  Finish(t, args);
  fs::remove_all(wal_dir);
  fs::remove_all(side_wal_dir);
  return out;
}

Outcome TraceRestart(const Args& args) {
  Outcome out;
  Tracer t;
  const std::string& dir = args.data_dir;
  const std::string store = dir + "/galaxy.pqb";
  const std::string wal_dir = dir + "/wal-trace";
  fs::remove_all(wal_dir);
  std::vector<Statement> windows = ReadStatements(dir + "/statements.tsv");
  std::vector<std::string> updates = ReadLinesOrDie(dir + "/updates.txt");
  paql::EngineOptions options = RestartServerOptions(wal_dir).scheduler.engine;
  options.block_cache_bytes = kRestartCacheBytes;

  {
    auto table = OrDie(paql::relation::ReadCsv(dir + "/galaxy.csv"), "csv");
    Scope s(&t, "relation.store_write");
    OrDie(paql::relation::WriteBlockStore(table, store), "store");
    double raw = 8.0 * static_cast<double>(table.num_rows() *
                                           table.num_columns());
    t.Count("relation.store_ratio",
            static_cast<double>(fs::file_size(store)) / raw);
  }
  paql::relation::WalOptions wal;
  wal.dir = wal_dir;
  wal.sync = kWalSync;
  // Ingest through the live path, with the version chain applied again
  // beside it to time TableVersion::Apply over the whole history.
  {
    Session session = OrDie(paql::Engine::OpenDisk(store, options), "open");
    OrDie(session.EnableDurability(wal), "durability");
    auto version =
        OrDie(paql::relation::TableVersion::Wrap(
                  OrDie(session.GetTable("galaxy"), "galaxy")),
              "wrap");
    int64_t op = 0;
    for (const std::string& line : updates) {
      t.SetOp(op++);
      const bool insert = line.rfind("INSERT", 0) == 0;
      const std::string payload = line.substr(line.find(' ', 7) + 1);
      paql::relation::TableDelta delta;
      OrDie(insert ? paql::relation::ParseInsertRows(version->schema(),
                                                     payload, &delta)
                   : paql::relation::ParseDeleteRows(payload, &delta),
            "batch");
      {
        Scope s(&t, "engine.apply_updates");
        OrDie(session.ApplyUpdates("galaxy", delta), "apply");
      }
      Scope s(&t, "relation.apply");
      version = OrDie(version->Apply(delta), "apply");
    }
  }
  // Restarts: replay alone, then recovery, planning and the query.
  Stopwatch loop;
  for (size_t k = 0; k == 0 || loop.ElapsedSeconds() < args.seconds; ++k) {
    if (k >= windows.size()) Die("query windows exhausted");
    t.SetOp(static_cast<int64_t>(updates.size() + k));
    const std::string& paql = windows[k].paql;
    {
      Scope s(&t, "relation.wal_replay");
      auto stats = OrDie(paql::relation::ReplayWal(
                             wal, [](const paql::relation::WalRecord&) {
                               return paql::Status::OK();
                             }),
                         "replay");
      t.Count("relation.wal_replay_bytes", static_cast<double>(stats.bytes));
    }
    Session session = OrDie(paql::Engine::OpenDisk(store, options), "open");
    {
      Scope s(&t, "engine.recover");
      OrDie(session.RecoverFromWal(wal), "recover");
    }
    TracedPlan(&t, &session, paql);
    TracedExecute(&t, &session, paql);
    ProbeStatement(&t, session, paql, /*solver=*/false);
    auto cache = session.block_cache()->stats();
    t.Count("relation.block_cache_hit_ratio", cache.hit_rate());
    t.Count("relation.block_cache_resident_mb",
            static_cast<double>(cache.resident_bytes) / (1 << 20));
    TracedPartition(&t, *OrDie(session.GetTable("galaxy"), "galaxy"),
                    options.planner);
  }
  double overhead = 0;
  {
    Session session = OrDie(paql::Engine::OpenDisk(store, options), "open");
    OrDie(session.RecoverFromWal(wal), "recover");
    overhead = TraceOverhead(&session, {windows[0].paql}, 3);
  }
  LayerMetrics(t, overhead, &out);
  Finish(t, args);
  fs::remove_all(wal_dir);
  fs::remove(store);
  return out;
}

}  // namespace pkgbench
