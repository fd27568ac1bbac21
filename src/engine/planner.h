// The strategy planner: DIRECT vs SKETCHREFINE, chosen by the system.
//
// The paper's central promise is declarativity — the user writes one PaQL
// statement, the system decides how to evaluate it. The planner encodes
// that decision: exact DIRECT while the base relation is small enough for
// one whole-problem ILP, SKETCHREFINE (over an offline partitioning) past
// a configurable size threshold, and the Dinkelbach parametric strategy
// for ratio (AVG) objectives. An explicit override skips the heuristics
// entirely, and every plan carries an Explain() report saying what was
// chosen and why. Worker threads are not a routing input: every strategy
// runs with ExecContext::threads.
#ifndef PAQL_ENGINE_PLANNER_H_
#define PAQL_ENGINE_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::engine {

enum class Strategy {
  kAuto,                   // let the planner decide (PlannerOptions only)
  kDirect,                 // exact ILP over the full base relation (§3.2)
  kSketchRefine,           // sketch + refine over a partitioning (§4)
  kRatioObjective,         // Dinkelbach for AVG objectives
};

/// Strategy name as printed by plans ("DIRECT", "SKETCHREFINE", ...).
const char* StrategyName(Strategy strategy);

struct PlannerOptions {
  /// Explicit override: any value other than kAuto wins over every
  /// heuristic below (the escape hatch for benchmarking and debugging).
  Strategy force = Strategy::kAuto;

  /// Tables with at least this many rows route to SKETCHREFINE; smaller
  /// ones are solved exactly with DIRECT. The default mirrors the scale at
  /// which the repo's benches first observe DIRECT's solver failures.
  size_t direct_row_threshold = 20'000;

  /// Partitioning policy for SKETCHREFINE plans. Empty attributes = all
  /// numeric columns of the table (the paper's "workload attributes"
  /// default when no workload is known). size_threshold 0 = max(rows/10,
  /// 64), the paper's tau = 10% default.
  std::vector<std::string> partition_attributes;
  size_t partition_size_threshold = 0;
};

/// Facts about the query that influence routing, extracted by the session
/// from the parsed + compiled artifacts.
struct QueryShape {
  bool ratio_objective = false;  // MINIMIZE/MAXIMIZE AVG(...)
  bool joined_from = false;      // multi-relation FROM was materialized
  size_t topk = 0;               // top-k enumeration requested (0 = no)
};

/// The planner's decision plus everything Explain() needs to justify it.
struct Plan {
  Strategy strategy = Strategy::kDirect;
  std::string reason;       // one line: why this strategy won
  size_t table_rows = 0;
  size_t direct_row_threshold = 0;
  QueryShape shape;

  /// Whether LP solves warm-start (dual-simplex re-optimization from the
  /// parent/previous basis, cached refine models). Filled by the session
  /// from the ExecContext's BranchAndBoundOptions::warm_start.
  bool warm_start = true;

  /// Effective degree of parallelism: the resolved ExecContext::threads
  /// worker count the morsel-driven pipeline and the concurrent
  /// branch-and-bound run with (1 = serial). Filled by the session.
  int exec_threads = 1;

  /// This plan was served from the cross-query artifact cache (the same
  /// normalized statement ran before against the same table). Filled by
  /// the session; reported on Explain's pipeline: line.
  bool plan_cached = false;

  /// The final ILP solve was seeded with the cached root basis of the
  /// previous identical statement. Filled by the session; reported on
  /// Explain's solver: line.
  bool warm_cached = false;

  // Partitioning details, filled by the session for SKETCHREFINE plans.
  std::vector<std::string> partition_attributes;
  size_t partition_size_threshold = 0;  // tau
  size_t partition_groups = 0;
  bool partitioning_reused = false;     // cache hit (vs built for this query)
  /// The build of a partitioning made for this query: wall time and
  /// blocks decoded from storage (partition::Partitioning::build_*).
  double partition_build_ms = 0;
  int64_t partition_block_reads = 0;

  /// The partitioning's representative relation: numeric columns filled
  /// (after the evaluation, on an executed plan) out of all numeric
  /// columns of the table, and the columns this plan's evaluation filled
  /// on demand with the blocks those fills decoded
  /// (partition::Partitioning::Representatives). Filled by the session;
  /// reported on Explain's representatives: line.
  struct Representatives {
    size_t filled = 0;
    size_t columns = 0;
    int64_t filled_on_demand = 0;
    int64_t fill_block_reads = 0;
  };
  std::optional<Representatives> representatives;

  /// The root cut loop of an executed plan, summed over its ILP solves
  /// (core::EvalStats::cut_*). Filled by the session after evaluation and
  /// reported on Explain's root cuts: line; empty on a plan that has not
  /// run (\plan, Session::Explain).
  struct RootCuts {
    double seconds = 0;
    int64_t rounds = 0;
    int64_t added = 0;
  };
  std::optional<RootCuts> root_cuts;

  bool uses_partitioning() const {
    return strategy == Strategy::kSketchRefine;
  }

  /// Multi-line human-readable report (strategy, reason, thresholds,
  /// partitioning), stable enough to test against.
  std::string Explain() const;
};

class Planner {
 public:
  explicit Planner(PlannerOptions options = {});

  /// Choose a strategy for a query of shape `shape` over `table`. Pure
  /// decision: building or looking up the partitioning a SKETCHREFINE
  /// plan needs is the session's job (see Session::Execute).
  Plan Decide(const relation::ColumnSource& table, const QueryShape& shape) const;

  /// Resolved partitioning attributes for `table`: the configured list,
  /// or all numeric columns when none was configured.
  std::vector<std::string> PartitionAttributes(
      const relation::ColumnSource& table) const;

  /// Resolved size threshold tau for `table`: the configured value, or
  /// max(rows/10, 64).
  size_t PartitionSizeThreshold(const relation::ColumnSource& table) const;

  const PlannerOptions& options() const { return options_; }

 private:
  PlannerOptions options_;
};

}  // namespace paql::engine

#endif  // PAQL_ENGINE_PLANNER_H_
