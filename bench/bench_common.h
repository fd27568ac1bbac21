// Shared support for the figure/table reproduction benches.
//
// Every bench binary prints paper-style rows to stdout and accepts:
//   --scale <f>      scale dataset sizes by f (default 1.0; also via the
//                    PAQL_BENCH_SCALE environment variable)
//   --quick          shrink sweeps for smoke runs
//
// The benches do not try to match the paper's absolute numbers (the paper's
// testbed is a 24-core Xeon running CPLEX over PostgreSQL); they regenerate
// the *shape* of each figure: who wins, by what factor, where failures and
// crossovers appear. See EXPERIMENTS.md for paper-vs-measured notes.
#ifndef PAQL_BENCH_BENCH_COMMON_H_
#define PAQL_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "core/direct.h"
#include "core/sketch_refine.h"
#include "engine/engine.h"
#include "ilp/solver_limits.h"
#include "paql/parser.h"
#include "partition/partitioner.h"
#include "translate/compiled_query.h"
#include "workload/galaxy.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace paql::bench {

struct BenchConfig {
  double scale = 1.0;
  bool quick = false;

  /// Default full-dataset sizes (scaled). The paper uses 5.5M Galaxy and
  /// 17.5M TPC-H rows on a 24-core server; these defaults keep a full bench
  /// run in minutes on a laptop while preserving the relative shapes.
  size_t galaxy_rows() const {
    return static_cast<size_t>(40000 * scale * (quick ? 0.25 : 1.0));
  }
  size_t tpch_rows() const {
    return static_cast<size_t>(60000 * scale * (quick ? 0.25 : 1.0));
  }

  /// The solver budget DIRECT runs under — the scaled analogue of the
  /// paper's CPLEX setup (512MB working memory, 1h limit). Subproblems in
  /// SKETCHREFINE get the same budget, mirroring "same settings for all
  /// solver executions" (Section 5.1).
  ilp::SolverLimits solver_limits() const {
    ilp::SolverLimits limits;
    limits.time_limit_s = quick ? 10.0 : 30.0;
    limits.memory_budget_bytes = 32ull << 20;  // ~64k B&B nodes
    return limits;
  }
};

inline BenchConfig ParseBenchArgs(int argc, char** argv) {
  BenchConfig config;
  if (const char* env = std::getenv("PAQL_BENCH_SCALE")) {
    config.scale = std::atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) {
      config.scale = std::atof(argv[++i]);
    } else if (arg == "--quick") {
      config.quick = true;
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // Ignore google-benchmark style flags so `for b in bench/*` works.
    } else {
      std::cerr << "ignoring unknown bench argument: " << arg << "\n";
    }
  }
  if (config.scale <= 0) config.scale = 1.0;
  return config;
}

/// Compile one workload query against a table schema (aborts on error —
/// workload queries are validated by tests).
inline translate::CompiledQuery MustCompileBench(
    const workload::BenchQuery& bq, const relation::Table& table) {
  auto parsed = lang::ParsePackageQuery(bq.paql);
  PAQL_CHECK_MSG(parsed.ok(), bq.name << ": " << parsed.status());
  auto cq = translate::CompiledQuery::Compile(*parsed, table.schema());
  PAQL_CHECK_MSG(cq.ok(), bq.name << ": " << cq.status());
  return std::move(*cq);
}

/// Outcome of one evaluator run: seconds or a failure tag.
struct RunCell {
  bool ok = false;
  bool resource_failure = false;  // the paper's "solver failed" case
  bool infeasible = false;
  double seconds = 0;
  double objective = 0;

  std::string TimeString() const {
    if (ok) return FormatDouble(seconds, 3);
    if (resource_failure) return "FAIL";
    if (infeasible) return "infeas";
    return "error";
  }
};

/// CPLEX's default relative MIP gap tolerance (1e-4); both engines run the
/// solver with the same settings, as in the paper.
inline constexpr double kCplexDefaultGap = 1e-4;

inline RunCell RunDirect(const relation::Table& table,
                         const translate::CompiledQuery& query,
                         const ilp::SolverLimits& limits) {
  engine::ExecContext options;
  options.limits = limits;
  options.branch_and_bound.gap_tol = kCplexDefaultGap;
  core::DirectEvaluator direct(table, options);
  Stopwatch watch;
  auto r = direct.Evaluate(query);
  RunCell cell;
  cell.seconds = watch.ElapsedSeconds();
  if (r.ok()) {
    cell.ok = true;
    cell.objective = r->objective;
  } else if (r.status().IsResourceExhausted()) {
    cell.resource_failure = true;
  } else if (r.status().IsInfeasible()) {
    cell.infeasible = true;
  }
  return cell;
}

inline RunCell RunSketchRefine(const relation::Table& table,
                               const partition::Partitioning& partitioning,
                               const translate::CompiledQuery& query,
                               const ilp::SolverLimits& limits) {
  core::SketchRefineOptions options;
  options.limits = limits;
  options.branch_and_bound.gap_tol = kCplexDefaultGap;
  core::SketchRefineEvaluator sr(table, partitioning, options);
  Stopwatch watch;
  auto r = sr.Evaluate(query);
  RunCell cell;
  cell.seconds = watch.ElapsedSeconds();
  if (r.ok()) {
    cell.ok = true;
    cell.objective = r->objective;
  } else if (r.status().IsResourceExhausted()) {
    cell.resource_failure = true;
  } else if (r.status().IsInfeasible()) {
    cell.infeasible = true;
  }
  return cell;
}

/// Open an engine session over `table` — shared, not copied; the caller's
/// table must outlive the session (always true in the benches, whose
/// tables are function-scope locals) — with bench solver settings (the
/// paper's CPLEX emulation budgets + default MIP gap).
inline paql::Session OpenBenchSession(const relation::Table& table,
                                      const ilp::SolverLimits& limits,
                                      const std::string& name = "R") {
  EngineOptions options;
  options.exec.limits = limits;
  options.exec.branch_and_bound.gap_tol = kCplexDefaultGap;
  std::shared_ptr<const relation::Table> shared(
      std::shared_ptr<const relation::Table>(), &table);  // non-owning alias
  auto session = Engine::Open(std::move(shared), name, options);
  PAQL_CHECK_MSG(session.ok(), session.status());
  return std::move(*session);
}

/// Run one query through the engine facade and fold the outcome into a
/// RunCell. Reported seconds cover evaluation only (the plan phase —
/// partitioning build/lookup — is offline in the paper's methodology).
inline RunCell RunViaEngine(paql::Session& session, const std::string& paql) {
  auto r = session.Execute(paql);
  RunCell cell;
  if (r.ok()) {
    cell.ok = true;
    cell.seconds = r->timings.evaluate_seconds;
    cell.objective = r->objective;
  } else if (r.status().IsResourceExhausted()) {
    cell.resource_failure = true;
  } else if (r.status().IsInfeasible()) {
    cell.infeasible = true;
  }
  return cell;
}

/// Empirical approximation ratio per the paper's definition: >= 1 when
/// SketchRefine is no better than Direct; "--" when Direct failed.
inline std::string ApproxRatio(const RunCell& direct, const RunCell& sr,
                               bool maximize) {
  if (!direct.ok || !sr.ok) return "--";
  double ratio = maximize ? direct.objective / sr.objective
                          : sr.objective / direct.objective;
  return FormatDouble(ratio, 4);
}

// ---------------------------------------------------------------------------
// Machine-readable micro-benchmark output (BENCH_*.json)
// ---------------------------------------------------------------------------

/// One micro measurement: a named kernel and its per-row cost.
struct MicroMeasurement {
  std::string name;
  double ns_per_row = 0;
};

/// Derived scalar/vectorized ratios, keyed by kernel family.
struct MicroSpeedup {
  std::string name;
  double factor = 0;
};

/// A speedup the JSON writer derives at write time:
/// factor = entries[baseline] / entries[optimized]. Suites declare the
/// pairing and never hand-compute (or worse, hand-maintain) the factor,
/// so the top-level "speedup" map can never drift from the measurements
/// it summarizes.
struct SpeedupRule {
  std::string name;
  std::string baseline;   // entry name of the unoptimized path
  std::string optimized;  // entry name of the optimized path
};

/// Resolve one rule against the measured entry lists (pipeline entries
/// first, then solver entries). Aborts on a dangling entry name: a rule
/// referencing a measurement nobody recorded is a bench bug.
inline std::vector<MicroSpeedup> DeriveSpeedups(
    const std::vector<SpeedupRule>& rules,
    const std::vector<MicroMeasurement>& entries,
    const std::vector<MicroMeasurement>& solver_entries) {
  auto lookup = [&](const std::string& name) {
    for (const auto& e : entries) {
      if (e.name == name) return e.ns_per_row;
    }
    for (const auto& e : solver_entries) {
      if (e.name == name) return e.ns_per_row;
    }
    PAQL_CHECK_MSG(false, "speedup rule references unmeasured entry '"
                              << name << "'");
    return 0.0;
  };
  std::vector<MicroSpeedup> out;
  out.reserve(rules.size());
  for (const auto& rule : rules) {
    double baseline = lookup(rule.baseline);
    double optimized = lookup(rule.optimized);
    PAQL_CHECK_MSG(optimized > 0, "speedup rule '" << rule.name
                                                   << "' divides by zero");
    out.push_back({rule.name, baseline / optimized});
  }
  return out;
}

/// The morsel-parallel suite's own BENCH_micro.json section. Parallel
/// speedups scale with the core count, so they carry the worker count and
/// the machine's hardware threads; the regression guard only compares two
/// files whose hardware matches (a 1-core container measuring ~1x is not
/// a regression against a 8-core baseline's 4x).
struct ParallelBenchSection {
  int workers = 0;
  int hardware_threads = 0;
  size_t scan_rows = 0;
  int64_t bnb_nodes = 0;
  std::vector<MicroMeasurement> entries;
  std::vector<MicroSpeedup> speedups;
};

/// The SIMD-kernel suite's BENCH_micro.json section. Each entry pair is
/// the same dispatched kernel with SIMD active vs forced onto its scalar
/// fallback, so the ratios are a property of the instruction set, not the
/// machine's clock; the section carries the dispatch level so the
/// regression guard only compares files measured at the same level (a
/// scalar-only container measuring ~1x is not a regression against an
/// AVX2 baseline's 4x).
struct SimdBenchSection {
  std::string level;  // simd::LevelName(simd::ActiveLevel()) at run time
  size_t rows = 0;    // lanes per kernel invocation
  std::vector<MicroMeasurement> entries;
  std::vector<SpeedupRule> rules;  // derived at write time, like the rest
};

/// The CRC-32 suite's BENCH_micro.json section: checksum throughput of the
/// dispatched kernel vs the forced slicing-by-8 fallback over block-sized
/// buffers. `kernel` is simd::CrcKernelName at run time, so the regression
/// guard compares (and floors) the ratio only between runs of one kernel.
struct Crc32BenchSection {
  std::string kernel;
  size_t buffer_bytes = 0;
  double forced_scalar_mb_per_s = 0;
  double dispatched_mb_per_s = 0;
};

/// The dual-pricing suite's BENCH_micro.json section: warm knapsack node
/// re-solves with steepest-edge pricing + bound flips vs the
/// most-violated-row baseline. Pivot counts are deterministic for a fixed
/// model, so the pivot ratio transfers across machines and is the number
/// the regression guard watches; the wall-clock entries live in the
/// solver section like every other per-solve timing.
struct DsePricingSection {
  int resolves = 0;             // warm re-solves per mode
  int64_t baseline_pivots = 0;  // total simplex iterations, DSE off
  int64_t dse_pivots = 0;       // total simplex iterations, DSE on
  int64_t bound_flips = 0;      // nonbasic bound flips the DSE runs took
  double pivot_ratio = 0;       // baseline_pivots / dse_pivots
};

/// Write the BENCH_micro.json perf-trajectory record: per-kernel ns/row for
/// the expression pipelines, per-solve µs for the solver paths (their own
/// section, since the unit and problem size differ), plus the speedup
/// factors (unitless ratios, shared across both suites). Every factor in
/// the top-level "speedup" map is derived HERE, at write time, from the
/// named measurements via `rules` — the suites only declare which two
/// entries form each ratio. The format is flat on purpose — stable keys —
/// so successive PRs diff cleanly.
inline Status WriteBenchMicroJson(
    const std::string& path, size_t rows,
    const std::vector<MicroMeasurement>& entries,
    const std::vector<SpeedupRule>& rules,
    const std::vector<MicroMeasurement>& solver_entries = {},
    size_t solver_rows = 0, const ParallelBenchSection* parallel = nullptr,
    const SimdBenchSection* simd = nullptr,
    const DsePricingSection* dse = nullptr,
    const Crc32BenchSection* crc32 = nullptr) {
  std::vector<MicroSpeedup> speedups =
      DeriveSpeedups(rules, entries, solver_entries);
  std::ofstream os(path);
  if (!os) {
    return Status::InvalidArgument(StrCat("cannot write ", path));
  }
  os << "{\n";
  os << "  \"bench\": \"micro_components\",\n";
  os << "  \"unit\": \"ns_per_row\",\n";
  os << "  \"rows\": " << rows << ",\n";
  os << "  \"entries\": {\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    os << "    \"" << entries[i].name
       << "\": " << FormatDouble(entries[i].ns_per_row, 3)
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  },\n";
  if (!solver_entries.empty()) {
    os << "  \"solver\": {\n";
    os << "    \"unit\": \"us_per_solve\",\n";
    os << "    \"rows\": " << solver_rows << ",\n";
    os << "    \"entries\": {\n";
    for (size_t i = 0; i < solver_entries.size(); ++i) {
      os << "      \"" << solver_entries[i].name
         << "\": " << FormatDouble(solver_entries[i].ns_per_row, 3)
         << (i + 1 < solver_entries.size() ? "," : "") << "\n";
    }
    os << "    }\n";
    os << "  },\n";
  }
  if (parallel != nullptr) {
    os << "  \"parallel\": {\n";
    os << "    \"workers\": " << parallel->workers << ",\n";
    os << "    \"hardware_threads\": " << parallel->hardware_threads
       << ",\n";
    os << "    \"scan_rows\": " << parallel->scan_rows << ",\n";
    os << "    \"bnb_nodes\": " << parallel->bnb_nodes << ",\n";
    os << "    \"entries\": {\n";
    for (size_t i = 0; i < parallel->entries.size(); ++i) {
      os << "      \"" << parallel->entries[i].name
         << "\": " << FormatDouble(parallel->entries[i].ns_per_row, 3)
         << (i + 1 < parallel->entries.size() ? "," : "") << "\n";
    }
    os << "    },\n";
    os << "    \"speedup\": {\n";
    for (size_t i = 0; i < parallel->speedups.size(); ++i) {
      os << "      \"" << parallel->speedups[i].name
         << "\": " << FormatDouble(parallel->speedups[i].factor, 2)
         << (i + 1 < parallel->speedups.size() ? "," : "") << "\n";
    }
    os << "    }\n";
    os << "  },\n";
  }
  if (simd != nullptr) {
    std::vector<MicroSpeedup> simd_speedups =
        DeriveSpeedups(simd->rules, simd->entries, {});
    os << "  \"simd\": {\n";
    os << "    \"level\": \"" << simd->level << "\",\n";
    os << "    \"rows\": " << simd->rows << ",\n";
    os << "    \"entries\": {\n";
    for (size_t i = 0; i < simd->entries.size(); ++i) {
      os << "      \"" << simd->entries[i].name
         << "\": " << FormatDouble(simd->entries[i].ns_per_row, 3)
         << (i + 1 < simd->entries.size() ? "," : "") << "\n";
    }
    os << "    },\n";
    os << "    \"speedup\": {\n";
    for (size_t i = 0; i < simd_speedups.size(); ++i) {
      os << "      \"" << simd_speedups[i].name
         << "\": " << FormatDouble(simd_speedups[i].factor, 2)
         << (i + 1 < simd_speedups.size() ? "," : "") << "\n";
    }
    os << "    }\n";
    os << "  },\n";
  }
  if (crc32 != nullptr) {
    os << "  \"crc32\": {\n";
    os << "    \"level\": \"" << crc32->kernel << "\",\n";
    os << "    \"buffer_bytes\": " << crc32->buffer_bytes << ",\n";
    os << "    \"unit\": \"mb_per_s\",\n";
    os << "    \"entries\": {\n";
    os << "      \"crc32_forced_scalar\": "
       << FormatDouble(crc32->forced_scalar_mb_per_s, 6) << ",\n";
    os << "      \"crc32_dispatched\": "
       << FormatDouble(crc32->dispatched_mb_per_s, 6) << "\n";
    os << "    },\n";
    os << "    \"speedup\": {\n";
    os << "      \"crc32_dispatched_vs_scalar\": "
       << FormatDouble(
              crc32->dispatched_mb_per_s / crc32->forced_scalar_mb_per_s, 3)
       << "\n";
    os << "    }\n";
    os << "  },\n";
  }
  if (dse != nullptr) {
    os << "  \"dse_pricing\": {\n";
    os << "    \"resolves\": " << dse->resolves << ",\n";
    os << "    \"baseline_pivots\": " << dse->baseline_pivots << ",\n";
    os << "    \"dse_pivots\": " << dse->dse_pivots << ",\n";
    os << "    \"bound_flips\": " << dse->bound_flips << ",\n";
    os << "    \"pivot_ratio\": " << FormatDouble(dse->pivot_ratio, 2)
       << "\n";
    os << "  },\n";
  }
  os << "  \"speedup\": {\n";
  for (size_t i = 0; i < speedups.size(); ++i) {
    os << "    \"" << speedups[i].name
       << "\": " << FormatDouble(speedups[i].factor, 2)
       << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
  return Status::OK();
}

}  // namespace paql::bench

#endif  // PAQL_BENCH_BENCH_COMMON_H_
