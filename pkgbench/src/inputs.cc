#include "inputs.h"

#include <filesystem>
#include <sstream>

#include "common/str_util.h"
#include "relation/csv.h"
#include "workload/galaxy.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace pkgbench {
namespace {

using paql::FormatDouble;
using paql::relation::Table;

void WriteTable(const Table& table, const std::string& path) {
  paql::Status status = paql::relation::WriteCsv(table, path);
  if (!status.ok()) Die("cannot write " + path + ": " + status.ToString());
}

std::string B(double v) { return FormatDouble(v, 17); }

std::vector<paql::workload::BenchQuery> GalaxyQueries(const Table& galaxy) {
  auto queries = paql::workload::MakeGalaxyQueries(galaxy);
  if (!queries.ok()) Die(queries.status().ToString());
  return *queries;
}

const paql::workload::BenchQuery& Named(
    const std::vector<paql::workload::BenchQuery>& queries,
    const std::string& name) {
  for (const auto& q : queries) {
    if (q.name == name) return q;
  }
  Die("no workload query " + name);
}

/// Protocol text of one inserted Galaxy-shaped row.
std::string RowText(const Table& rows, size_t r, int64_t objid) {
  std::string text = std::to_string(objid);
  for (size_t c = 1; c < rows.num_columns(); ++c) {
    text += "," + B(rows.GetDouble(r, c));
  }
  return text;
}

/// An update stream of `batches` lines alternating INSERT (`batch_rows`
/// fresh Galaxy-shaped rows) and DELETE (`batch_rows` ids). With
/// `stationary`, each DELETE takes back the rows the INSERT just before it
/// added, so every round starts from the base table and the stream does
/// not drift. Otherwise the ids are drawn from every row live at that
/// point.
std::vector<std::string> UpdateStream(size_t base_rows, size_t batches,
                                      size_t batch_rows, bool stationary,
                                      uint64_t seed) {
  const size_t inserts = (batches + 1) / 2 * batch_rows;
  Table fresh = paql::workload::MakeGalaxyTable(inserts, seed);
  SplitMix rng(DeriveSeed(seed, 17));
  std::vector<uint64_t> live(base_rows);
  for (size_t i = 0; i < base_rows; ++i) live[i] = i;
  uint64_t next_id = base_rows;
  size_t next_fresh = 0;
  std::vector<uint64_t> latest;  // ids of the last INSERT
  std::vector<std::string> lines;
  for (size_t b = 0; b < batches; ++b) {
    std::string line;
    if (b % 2 == 0) {
      line = "INSERT galaxy ";
      latest.clear();
      for (size_t k = 0; k < batch_rows; ++k) {
        if (k > 0) line += ";";
        int64_t objid = 1'000'000'000 + static_cast<int64_t>(next_id);
        line += RowText(fresh, next_fresh++, objid);
        latest.push_back(next_id);
        live.push_back(next_id++);
      }
    } else {
      line = "DELETE galaxy ";
      std::vector<uint64_t> victims;
      if (stationary) {
        victims = latest;
      } else {
        for (size_t k = 0; k < batch_rows; ++k) {
          size_t pick = rng.Below(live.size());
          victims.push_back(live[pick]);
          live[pick] = live.back();
          live.pop_back();
        }
      }
      for (size_t k = 0; k < victims.size(); ++k) {
        if (k > 0) line += ",";
        line += std::to_string(victims[k]);
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  WriteFileOrDie(path, text);
}

void GenerateServe(const Args& args) {
  const std::string& dir = args.data_dir;
  Table galaxy =
      paql::workload::MakeGalaxyTable(kServeGalaxyRows, kGalaxySeed);
  Table tpch = paql::workload::MakeTpchTable(kServeTpchRows, kTpchSeed);
  Table stars = paql::workload::MakeGalaxyTable(kServeStarsRows,
                                                DeriveSeed(args.seed, 1));
  std::vector<Statement> statements;
  auto galaxy_queries = GalaxyQueries(galaxy);
  for (const char* name : {"Q1", "Q3", "Q4", "Q5", "Q7"}) {
    statements.push_back(
        {std::string("galaxy.") + name, "ref", Named(galaxy_queries, name).paql});
  }
  auto tpch_queries = paql::workload::MakeTpchQueries(tpch);
  if (!tpch_queries.ok()) Die(tpch_queries.status().ToString());
  for (const auto& q : *tpch_queries) {
    statements.push_back({"tpch." + q.name, "ref", q.paql});
  }
  // DIRECT statements over the small table: top-k selections the checker
  // solves itself, over both REPEAT settings and objective directions.
  // Five of them make the cycle 17 statements long, so the median
  // operation falls inside one statement's latency band (TPC-H Q4's)
  // rather than in the gap between two.
  SplitMix rng(DeriveSeed(args.seed, 2));
  double red = rng.Uniform(0.08, 0.16);
  double dec_lo = rng.Uniform(-20, 0);
  double rad = rng.Uniform(2.0, 3.0);
  double ra = rng.Uniform(90, 270);
  statements.push_back(
      {"stars.top_flux", "topk",
       "SELECT PACKAGE(S) AS P FROM stars S REPEAT 0 WHERE S.redshift <= " +
           B(red) +
           " SUCH THAT COUNT(P.*) = 5 MAXIMIZE SUM(P.petroFlux_r)"});
  statements.push_back(
      {"stars.small_radius", "topk",
       "SELECT PACKAGE(S) AS P FROM stars S REPEAT 1 WHERE S.dec BETWEEN " +
           B(dec_lo) + " AND " + B(dec_lo + 15) +
           " SUCH THAT COUNT(P.*) = 6 MINIMIZE SUM(P.petroRad_r)"});
  statements.push_back(
      {"stars.red_band", "topk",
       "SELECT PACKAGE(S) AS P FROM stars S REPEAT 0 WHERE S.petroRad_r >= " +
           B(rad) + " SUCH THAT COUNT(P.*) = 8 MAXIMIZE SUM(P.redshift)"});
  statements.push_back(
      {"stars.east_faint", "topk",
       "SELECT PACKAGE(S) AS P FROM stars S REPEAT 2 WHERE S.ra >= " + B(ra) +
           " SUCH THAT COUNT(P.*) = 9 MAXIMIZE SUM(P.r)"});
  statements.push_back(
      {"stars.west_compact", "topk",
       "SELECT PACKAGE(S) AS P FROM stars S REPEAT 0 WHERE S.ra <= " + B(ra) +
           " AND S.redshift <= " + B(red) +
           " SUCH THAT COUNT(P.*) = 4 MINIMIZE SUM(P.petroR50_r)"});
  WriteTable(galaxy, dir + "/galaxy.csv");
  WriteTable(tpch, dir + "/tpch.csv");
  WriteTable(stars, dir + "/stars.csv");
  WriteStatements(dir + "/statements.tsv", statements);
}

/// A top-k selection over a WHERE window of the galaxy table, which the
/// checker solves exactly.
std::string TopK(const std::string& where, int count,
                 const std::string& objective) {
  return "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 WHERE " + where +
         " SUCH THAT COUNT(P.*) = " + std::to_string(count) + " " + objective;
}

/// `count` top-flux statements over seeded objid windows, each covering
/// `share` of the base table's rows.
std::vector<Statement> ObjidWindows(size_t count, size_t rows, double share,
                                   int k, uint64_t seed) {
  SplitMix rng(seed);
  const double width = share * static_cast<double>(rows);
  std::vector<Statement> out;
  for (size_t w = 0; w < count; ++w) {
    int64_t lo = 1'000'000'000 +
                 static_cast<int64_t>(rng.Uniform(0, static_cast<double>(rows) - width));
    out.push_back({"galaxy.window", "topk",
                   TopK("G.objid BETWEEN " + std::to_string(lo) + " AND " +
                            std::to_string(lo + static_cast<int64_t>(width)),
                        k, "MAXIMIZE SUM(P.petroFlux_r)")});
  }
  return out;
}

void GenerateWatch(const Args& args) {
  const std::string& dir = args.data_dir;
  Table galaxy = paql::workload::MakeGalaxyTable(kWatchGalaxyRows, kGalaxySeed);
  // Q4, Q5, Q3 and Q7 are left out: their repairs have multi-second
  // tails (see CHANGES.md), which no run length makes steady.
  std::vector<Statement> watches = {
      {"galaxy.Q1", "none", Named(GalaxyQueries(galaxy), "Q1").paql},
      {"galaxy.small_radius", "topk",
       TopK("G.dec <= 0", 5, "MINIMIZE SUM(P.petroRad_r)")},
      {"galaxy.bright_west", "topk",
       TopK("G.ra <= 180", 8, "MINIMIZE SUM(P.r)")}};
  // One cache-missing RUN per round, each over its own seeded objid window.
  std::vector<Statement> runs = ObjidWindows(
      kWatchRounds, kWatchGalaxyRows, 0.2, 10, DeriveSeed(args.seed, 3));
  WriteTable(galaxy, dir + "/galaxy.csv");
  WriteStatements(dir + "/watches.tsv", watches);
  WriteStatements(dir + "/statements.tsv", runs);
  WriteLines(dir + "/updates.txt",
             UpdateStream(kWatchGalaxyRows, 2 * kWatchRounds, kWatchBatchRows,
                          /*stationary=*/true, DeriveSeed(args.seed, 4)));
}

void GenerateRestart(const Args& args) {
  const std::string& dir = args.data_dir;
  Table galaxy =
      paql::workload::MakeGalaxyTable(kRestartGalaxyRows, kGalaxySeed);
  std::vector<Statement> windows =
      ObjidWindows(kRestartWindows, kRestartGalaxyRows, 0.02, 5,
                   DeriveSeed(args.seed, 5));
  WriteTable(galaxy, dir + "/galaxy.csv");
  WriteStatements(dir + "/statements.tsv", windows);
  WriteLines(dir + "/updates.txt",
             UpdateStream(kRestartGalaxyRows, kRestartBatches,
                          kRestartBatchRows, /*stationary=*/false,
                          DeriveSeed(args.seed, 6)));
}

}  // namespace

void WriteStatements(const std::string& path,
                     const std::vector<Statement>& statements) {
  std::string text;
  for (const Statement& s : statements) {
    text += s.name + "\t" + s.kind + "\t" + s.paql + "\n";
  }
  WriteFileOrDie(path, text);
}

Statement ParseStatement(const std::string& line) {
  size_t a = line.find('\t');
  size_t b = line.find('\t', a + 1);
  if (a == std::string::npos || b == std::string::npos) {
    Die("malformed statement line: " + line);
  }
  return {line.substr(0, a), line.substr(a + 1, b - a - 1), line.substr(b + 1)};
}

std::vector<Statement> ReadStatements(const std::string& path) {
  std::vector<Statement> out;
  for (const std::string& line : ReadLinesOrDie(path)) {
    out.push_back(ParseStatement(line));
  }
  return out;
}

void GenerateInputs(const Args& args) {
  if (args.data_dir.empty()) Die("gen needs --data");
  std::filesystem::create_directories(args.data_dir);
  if (args.workload == "serve") {
    GenerateServe(args);
  } else if (args.workload == "watch") {
    GenerateWatch(args);
  } else if (args.workload == "restart") {
    GenerateRestart(args);
  } else {
    Die("unknown workload " + args.workload);
  }
}

}  // namespace pkgbench
