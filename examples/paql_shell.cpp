// paql_shell: run PaQL queries against CSV files from the command line,
// through the paql::Engine facade.
//
// Usage:
//   paql_shell <table.csv> [more.csv ...] [options] [--query 'PAQL...']
//
// Options:
//   --sketchrefine <tau>   force the SKETCHREFINE strategy with size
//                          threshold tau (default: the planner decides)
//   --direct               force the DIRECT strategy
//   --threads <n>          worker threads for scans, partitioning and
//                          branch-and-bound (0 = hardware, 1 = serial)
//   --threshold <rows>     planner size threshold for auto DIRECT vs
//                          SKETCHREFINE routing
//   --topk <k>             enumerate the k best distinct packages
//                          (REPEAT 0 queries only)
//   --explain              print the evaluation plan (planner choice plus
//                          translated ILP / partitioning shape), no solve
//   --dump-lp              print the translated ILP in CPLEX LP format and
//                          exit (pipe it to an external solver)
//   --cache-mb <mb>        decoded-block cache budget for out-of-core
//                          tables registered via \store (default 256)
//   --query 'PAQL'         evaluate one query and exit (otherwise read
//                          ';'-terminated queries from stdin)
//
// Interactive meta-commands (statements starting with a backslash):
//   \plan <PAQL...>;       print the planner's choice for the query —
//                          strategy, reason, partitioning, thresholds —
//                          without solving it
//   \tables;               list the registered relations
//   \cache;                cross-query cache statistics (plans,
//                          partitionings, warm-start bases) plus the block
//                          cache of any out-of-core tables
//   \store <csv> [out];    convert a CSV to a compressed block store
//                          (default out: the CSV path with a .pqb
//                          extension) and register it as an out-of-core
//                          relation read through the session block cache
//   \insert <table> <v,v,..>[|<v,..>];
//                          append rows (comma-separated fields in schema
//                          order, NULL or empty for NULL; '|' separates
//                          rows since ';' ends the statement) and publish
//                          a new table version — standing queries repair
//   \delete <table> <id>[,<id>...];
//                          delete rows by id (row ids are stable across
//                          versions; \watch output and package listings
//                          print them)
//   \watch <PAQL...>;      register a standing package query, kept fresh
//                          after every \insert/\delete batch; \watch <id>;
//                          reprints one, \watch; lists them all
//   \help;                 this list
//
// Each CSV becomes a catalog relation named after its basename (without
// extension); a .pqb file (see \store) is opened out of core instead of
// loaded into memory. Multi-relation FROM clauses are joined by the
// session per paper §4.5. A single-table session answers any FROM name.
//
// Example:
//   ./build/examples/paql_shell recipes.csv --query "
//     SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
//     SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.kcal)"
#include <cctype>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "engine/engine.h"
#include "relation/block_store.h"

using paql::Engine;
using paql::QueryResult;
using paql::Session;
using paql::engine::Strategy;

namespace {

struct ShellOptions {
  std::optional<size_t> topk;
  bool explain = false;
  bool dump_lp = false;
};

void PrintHelp() {
  std::cout << "statements end with ';'. Meta-commands:\n"
               "  \\plan <PAQL...>;  show the planner's choice, don't solve\n"
               "  \\tables;          list registered relations\n"
               "  \\cache;           cross-query + block cache statistics\n"
               "  \\store <csv> [out]; convert a CSV to a block store and\n"
               "                    register it as an out-of-core relation\n"
               "  \\insert <table> <v,v,..>[|<v,..>]; append rows ('|'\n"
               "                    separates rows; ';' ends the statement)\n"
               "  \\delete <table> <id>[,<id>...]; delete rows by id\n"
               "  \\watch <PAQL...>; keep a package query fresh across\n"
               "                    \\insert/\\delete batches; \\watch <id>;\n"
               "                    reprints one, \\watch; lists all\n"
               "  \\help;            this list\n";
}

/// Whitespace-split `text` into at most 3 tokens (command + operands).
std::vector<std::string> SplitMeta(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size() && tokens.size() < 3) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

bool HasPqbExtension(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".pqb") == 0;
}

/// Split "\cmd <name> <rest...>" after the command word into the first
/// token and everything after it (whitespace-trimmed, spaces preserved) —
/// \insert and \delete payloads may contain spaces inside field values.
void SplitNameAndPayload(const std::string& text, size_t command_len,
                         std::string* name, std::string* payload) {
  std::string tail{paql::StripWhitespace(text.substr(command_len))};
  size_t split = tail.find_first_of(" \t");
  if (split == std::string::npos) {
    *name = tail;
    payload->clear();
    return;
  }
  *name = tail.substr(0, split);
  *payload = std::string{paql::StripWhitespace(tail.substr(split + 1))};
}

void PrintStandingQuery(const paql::StandingQuery& sq) {
  std::cout << "-- watch " << sq.id << " [" << sq.table_name << " v"
            << sq.version << ", " << sq.repairs << " repairs ("
            << sq.incremental_repairs << " incremental)] ";
  if (!sq.valid) {
    std::cout << "invalid: " << sq.error << "\n";
    return;
  }
  std::cout << "objective " << sq.objective << ",";
  for (size_t i = 0; i < sq.package.rows.size(); ++i) {
    std::cout << " " << sq.package.rows[i] << ":" << sq.package.multiplicity[i];
  }
  std::cout << "\n";
}

/// \insert / \delete: parse the batch, apply it through the session (one
/// version advance + dirty-group absorption + standing-query repair), and
/// report what happened.
int RunUpdate(Session& session, bool is_insert, const std::string& text,
              size_t command_len) {
  std::string table, payload;
  SplitNameAndPayload(text, command_len, &table, &payload);
  if (table.empty() || payload.empty()) {
    std::cerr << (is_insert
                      ? "usage: \\insert <table> <v,v,..>[|<v,..>];"
                      : "usage: \\delete <table> <id>[,<id>...];")
              << "\n";
    return 1;
  }

  paql::relation::TableDelta delta;
  if (is_insert) {
    auto resolved = session.GetTable(table);
    if (!resolved.ok()) {
      std::cerr << resolved.status() << "\n";
      return 1;
    }
    // ';' terminates shell statements, so rows arrive '|'-separated here;
    // ParseInsertRows (shared with the server's INSERT verb) wants ';'.
    for (char& c : payload) {
      if (c == '|') c = ';';
    }
    auto parsed = paql::relation::ParseInsertRows((*resolved)->schema(),
                                                  payload, &delta);
    if (!parsed.ok()) {
      std::cerr << parsed << "\n";
      return 1;
    }
  } else {
    auto parsed = paql::relation::ParseDeleteRows(payload, &delta);
    if (!parsed.ok()) {
      std::cerr << parsed << "\n";
      return 1;
    }
  }

  auto result = session.ApplyUpdates(table, delta);
  if (!result.ok()) {
    std::cerr << "update failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "-- " << result->table_name << " v" << result->version << ": +"
            << result->rows_inserted << " rows, -" << result->rows_deleted
            << " rows, " << result->partitionings_updated
            << " partitionings updated (" << result->dirty_groups
            << " dirty groups), " << result->standing_repaired
            << " standing queries repaired (" << result->standing_incremental
            << " incrementally), " << result->seconds << "s\n";
  for (const auto& sq : session.standing_queries()) {
    if (sq.table_name == result->table_name) PrintStandingQuery(sq);
  }
  return 0;
}

/// \watch: no argument lists registrations, an integer reprints one, and
/// anything else registers a new standing query.
int RunWatch(Session& session, const std::string& text) {
  std::string arg{paql::StripWhitespace(text.substr(6))};
  if (arg.empty()) {
    auto all = session.standing_queries();
    if (all.empty()) {
      std::cout << "-- no standing queries (register with \\watch "
                   "<PAQL...>;)\n";
      return 0;
    }
    for (const auto& sq : all) PrintStandingQuery(sq);
    return 0;
  }
  if (arg.find_first_not_of("0123456789") == std::string::npos) {
    auto sq = session.GetStandingQuery(std::stoull(arg));
    if (!sq.ok()) {
      std::cerr << sq.status() << "\n";
      return 1;
    }
    PrintStandingQuery(*sq);
    return 0;
  }
  auto id = session.Watch(arg);
  if (!id.ok()) {
    std::cerr << "watch failed: " << id.status() << "\n";
    return 1;
  }
  auto sq = session.GetStandingQuery(*id);
  if (!sq.ok()) {
    std::cerr << sq.status() << "\n";
    return 1;
  }
  PrintStandingQuery(*sq);
  return 0;
}

/// \store <csv> [out]: CSV -> block store conversion + registration.
int RunStore(Session& session, const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    std::cerr << "usage: \\store <table.csv> [out.pqb];\n";
    return 1;
  }
  const std::string& csv = tokens[1];
  std::string out = tokens.size() > 2 ? tokens[2] : csv;
  if (tokens.size() <= 2) {
    size_t dot = out.find_last_of('.');
    if (dot != std::string::npos && out.find('/', dot) == std::string::npos) {
      out = out.substr(0, dot);
    }
    out += ".pqb";
  }
  auto status = paql::relation::ConvertCsvToBlockStore(csv, out);
  if (!status.ok()) {
    std::cerr << "conversion failed: " << status << "\n";
    return 1;
  }
  auto added = session.AddTableFromDisk(out);
  if (!added.ok()) {
    std::cerr << out << ": " << added << "\n";
    return 1;
  }
  auto reader = paql::relation::BlockStoreReader::Open(out);
  if (reader.ok()) {
    const auto& r = **reader;
    const size_t raw = r.num_rows() * r.schema().num_columns() * 8;
    std::cout << "stored " << r.num_rows() << " rows x "
              << r.schema().num_columns() << " columns as " << out << " ("
              << r.stored_bytes() << " stored bytes, "
              << 100.0 * static_cast<double>(r.stored_bytes()) /
                     static_cast<double>(raw > 0 ? raw : 1)
              << "% of raw)\n";
  }
  return 0;
}

int RunStatement(Session& session, const ShellOptions& options,
                 const std::string& raw) {
  std::string text{paql::StripWhitespace(raw)};
  if (text.empty()) return 0;

  // Meta-commands.
  if (text[0] == '\\') {
    if (paql::StartsWith(text, "\\plan") &&
        (text.size() == 5 || std::isspace(static_cast<unsigned char>(text[5])))) {
      auto plan = session.PlanQuery(text.substr(5));
      if (!plan.ok()) {
        std::cerr << plan.status() << "\n";
        return 1;
      }
      std::cout << plan->Explain();
      return 0;
    }
    if (text == "\\tables") {
      for (const auto& name : session.table_names()) {
        std::cout << name << "\n";
      }
      return 0;
    }
    if (text == "\\cache") {
      paql::engine::QueryCacheStats stats = session.query_cache()->stats();
      std::cout << "statement artifacts: " << stats.entries << " entries, "
                << stats.hits << " hits, " << stats.misses << " misses, "
                << stats.insertions << " insertions, " << stats.evictions
                << " evictions\n"
                << "partitionings:       " << stats.partition_entries
                << " entries, " << stats.partition_hits << " hits, "
                << stats.partition_misses << " misses\n";
      if (session.block_cache() != nullptr) {
        paql::relation::BlockCacheStats bstats =
            session.block_cache()->stats();
        std::cout << "block cache:         " << bstats.resident_blocks
                  << " blocks / " << bstats.resident_bytes << " bytes of "
                  << session.block_cache()->capacity_bytes()
                  << " resident, " << bstats.hits << " hits, "
                  << bstats.misses << " misses ("
                  << 100.0 * bstats.hit_rate() << "% hit rate), "
                  << bstats.evictions << " evictions\n";
      }
      return 0;
    }
    if (paql::StartsWith(text, "\\store")) {
      return RunStore(session, SplitMeta(text));
    }
    if (paql::StartsWith(text, "\\insert") && text.size() > 7 &&
        std::isspace(static_cast<unsigned char>(text[7]))) {
      return RunUpdate(session, /*is_insert=*/true, text, 7);
    }
    if (paql::StartsWith(text, "\\delete") && text.size() > 7 &&
        std::isspace(static_cast<unsigned char>(text[7]))) {
      return RunUpdate(session, /*is_insert=*/false, text, 7);
    }
    if (paql::StartsWith(text, "\\watch") &&
        (text.size() == 6 ||
         std::isspace(static_cast<unsigned char>(text[6])))) {
      return RunWatch(session, text);
    }
    if (text == "\\help") {
      PrintHelp();
      return 0;
    }
    std::cerr << "unknown meta-command: " << text << " (try \\help;)\n";
    return 1;
  }

  if (options.dump_lp) {
    auto status = session.DumpLp(text, std::cout);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    return 0;
  }

  if (options.explain) {
    auto report = session.Explain(text);
    if (!report.ok()) {
      std::cerr << report.status() << "\n";
      return 1;
    }
    std::cout << *report;
    return 0;
  }

  if (options.topk.has_value()) {
    auto results = session.ExecuteTopK(text, *options.topk);
    if (!results.ok()) {
      std::cerr << "enumeration failed: " << results.status() << "\n";
      return 1;
    }
    for (size_t i = 0; i < results->size(); ++i) {
      const QueryResult& r = (*results)[i];
      std::cout << "-- package " << i + 1 << "/" << results->size()
                << " (objective " << r.objective << "):\n"
                << r.Materialize().ToString(50);
    }
    return 0;
  }

  auto result = session.Execute(text);
  if (!result.ok()) {
    std::cerr << "evaluation failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "-- package (" << result->package.TotalCount()
            << " tuples, objective " << result->objective << ", "
            << paql::engine::StrategyName(result->plan.strategy) << ", "
            << result->timings.total_seconds << "s):\n";
  std::cout << "-- solver: " << result->stats.bnb_nodes << " nodes, "
            << result->stats.lp_iterations << " pivots, "
            << result->stats.pricing_candidate_hits << " candidate hits, "
            << result->stats.bound_flips << " bound flips, "
            << result->stats.dse_pivots << " DSE pivots, "
            << result->stats.rc_fixed_vars << " reduced-cost-fixed, "
            << result->stats.presolve_fixed_vars << " presolve-fixed, "
            << result->stats.warm_lp_solves << " warm LP solves\n";
  if (result->stats.blocks_scanned > 0 || result->stats.blocks_pruned > 0) {
    std::cout << "-- storage: " << result->stats.blocks_scanned
              << " blocks scanned, " << result->stats.blocks_pruned
              << " zone-map pruned\n";
  }
  std::cout << result->Materialize().ToString(50);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " <table.csv|table.pqb> [more ...] [--sketchrefine tau]"
                 " [--direct] [--threads n]"
                 " [--threshold rows] [--topk k] [--cache-mb mb]"
                 " [--explain] [--dump-lp] [--query 'PAQL']\n";
    return 2;
  }

  // Positional arguments before the first option are catalog tables: CSVs
  // are loaded into memory, .pqb block stores are opened out of core.
  std::optional<paql::Result<Session>> session;
  ShellOptions options;
  std::optional<std::string> query_text;
  int i = 1;
  for (; i < argc && argv[i][0] != '-'; ++i) {
    const std::string path = argv[i];
    if (!session.has_value()) {
      session = HasPqbExtension(path) ? Engine::OpenDisk(path)
                                      : Engine::OpenCsv(path);
      if (!session->ok()) {
        std::cerr << path << ": " << session->status() << "\n";
        return 1;
      }
    } else {
      auto added = HasPqbExtension(path)
                       ? session->value().AddTableFromDisk(path)
                       : session->value().AddTableFromCsv(path);
      if (!added.ok()) {
        std::cerr << path << ": " << added << "\n";
        return 1;
      }
    }
  }
  if (!session.has_value()) {
    std::cerr << "no input tables given\n";
    return 2;
  }
  if (!session->ok()) {
    std::cerr << session->status() << "\n";
    return 1;
  }
  Session& live = session->value();
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sketchrefine" && i + 1 < argc) {
      live.options().planner.force = Strategy::kSketchRefine;
      live.options().planner.partition_size_threshold =
          static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--direct") {
      live.options().planner.force = Strategy::kDirect;
    } else if (arg == "--threads" && i + 1 < argc) {
      // Engine-wide morsel parallelism (0 = hardware, 1 = serial): scans,
      // partitioning statistics, and the branch-and-bound search.
      live.options().exec.threads = std::atoi(argv[++i]);
    } else if (arg == "--cache-mb" && i + 1 < argc) {
      // Decoded-block budget for out-of-core tables opened after this
      // point (the \store command and .pqb positional args honor it).
      live.options().block_cache_bytes =
          static_cast<size_t>(std::stoul(argv[++i])) << 20;
    } else if (arg == "--threshold" && i + 1 < argc) {
      live.options().planner.direct_row_threshold =
          static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--topk" && i + 1 < argc) {
      options.topk = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--dump-lp") {
      options.dump_lp = true;
    } else if (arg == "--query" && i + 1 < argc) {
      query_text = argv[++i];
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (query_text.has_value()) {
    return RunStatement(live, options, *query_text);
  }
  // Interactive: read ';'-terminated statements from stdin.
  std::string buffer, line;
  int status = 0;
  while (std::getline(std::cin, line)) {
    buffer += line + "\n";
    auto pos = buffer.find(';');
    if (pos != std::string::npos) {
      status |= RunStatement(live, options, buffer.substr(0, pos));
      buffer.erase(0, pos + 1);
    }
  }
  return status;
}
