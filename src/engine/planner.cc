#include "engine/planner.h"

#include <algorithm>
#include <sstream>

#include "common/str_util.h"
#include "relation/schema.h"

namespace paql::engine {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAuto: return "AUTO";
    case Strategy::kDirect: return "DIRECT";
    case Strategy::kSketchRefine: return "SKETCHREFINE";
    case Strategy::kRatioObjective: return "RATIO_OBJECTIVE";
  }
  return "?";
}

Planner::Planner(PlannerOptions options) : options_(std::move(options)) {}

Plan Planner::Decide(const relation::ColumnSource& table,
                     const QueryShape& shape) const {
  Plan plan;
  plan.table_rows = table.num_rows();
  plan.direct_row_threshold = options_.direct_row_threshold;
  plan.shape = shape;

  // Ratio objectives have exactly one capable strategy: no other evaluator
  // accepts an AVG objective, so the shape check outranks even an explicit
  // override (forcing DIRECT here could only fail at evaluation time).
  if (shape.ratio_objective) {
    plan.strategy = Strategy::kRatioObjective;
    plan.reason =
        "objective is AVG (a ratio): only the Dinkelbach parametric "
        "strategy can evaluate it";
    return plan;
  }

  // Top-k enumeration repeatedly re-solves the whole-problem ILP with
  // exclusion cuts; it is DIRECT-shaped by construction, so — like the
  // ratio case — the shape outranks an explicit override (no other
  // strategy can enumerate, and the plan must name what actually runs).
  if (shape.topk > 0) {
    plan.strategy = Strategy::kDirect;
    plan.reason = StrCat("top-", shape.topk,
                         " enumeration solves whole-problem ILPs with "
                         "exclusion cuts (DIRECT-based)");
    return plan;
  }

  if (options_.force != Strategy::kAuto) {
    plan.strategy = options_.force;
    plan.reason = StrCat("explicit override: strategy forced to ",
                         StrategyName(options_.force));
    return plan;
  }

  // SKETCHREFINE needs numeric columns to partition on; a large all-string
  // table can only be answered by DIRECT (COUNT-style queries still work).
  if (plan.table_rows >= options_.direct_row_threshold &&
      PartitionAttributes(table).empty()) {
    plan.strategy = Strategy::kDirect;
    plan.reason =
        StrCat("table has ", plan.table_rows,
               " rows >= threshold but no numeric partitioning "
               "attributes: SKETCHREFINE is impossible, fall back to DIRECT");
    return plan;
  }

  if (plan.table_rows >= options_.direct_row_threshold) {
    plan.strategy = Strategy::kSketchRefine;
    plan.reason =
        StrCat("table has ", plan.table_rows, " rows >= threshold ",
               options_.direct_row_threshold,
               ": one whole-problem ILP risks solver failure, use "
               "SKETCHREFINE over an offline partitioning");
    return plan;
  }

  plan.strategy = Strategy::kDirect;
  plan.reason = StrCat("table has ", plan.table_rows, " rows < threshold ",
                       options_.direct_row_threshold,
                       ": solve one exact ILP over the base relation");
  return plan;
}

std::vector<std::string> Planner::PartitionAttributes(
    const relation::ColumnSource& table) const {
  if (!options_.partition_attributes.empty()) {
    return options_.partition_attributes;
  }
  std::vector<std::string> attributes;
  for (const auto& column : table.schema().columns()) {
    if (column.type != relation::DataType::kString) {
      attributes.push_back(column.name);
    }
  }
  return attributes;
}

size_t Planner::PartitionSizeThreshold(const relation::ColumnSource& table) const {
  if (options_.partition_size_threshold > 0) {
    return options_.partition_size_threshold;
  }
  return std::max<size_t>(table.num_rows() / 10, 64);
}

std::string Plan::Explain() const {
  std::ostringstream os;
  os << "strategy: " << StrategyName(strategy) << "\n";
  os << "reason: " << reason << "\n";
  os << "table rows: " << table_rows << "\n";
  os << "direct row threshold: " << direct_row_threshold << "\n";
  os << "pipeline: 1024-row batches";
  if (exec_threads > 1) {
    os << ", morsel-parallel x" << exec_threads;
  }
  if (plan_cached) os << ", plan from cross-query cache";
  os << "\n";
  os << "solver: "
     << (warm_start ? "warm-started (dual simplex basis reuse)"
                    : "cold (primal from scratch per node)")
     << ", "
     << (exec_threads > 1
             ? StrCat("concurrent branch-and-bound x", exec_threads)
             : "serial branch-and-bound");
  if (warm_cached) os << ", root basis from cross-query cache";
  os << "\n";
  if (shape.ratio_objective) os << "ratio objective: yes\n";
  if (shape.joined_from) os << "joined FROM: materialized before planning\n";
  if (shape.topk > 0) os << "top-k: " << shape.topk << "\n";
  if (uses_partitioning()) {
    os << "partitioning: tau " << partition_size_threshold << ", "
       << partition_groups << " groups, attributes [";
    for (size_t i = 0; i < partition_attributes.size(); ++i) {
      if (i > 0) os << ", ";
      os << partition_attributes[i];
    }
    os << "] (";
    if (partitioning_reused) {
      os << "cached";
    } else {
      os << "built in " << FormatDouble(partition_build_ms, 3) << " ms, "
         << partition_block_reads << " block reads";
    }
    os << ")\n";
  }
  if (representatives.has_value()) {
    os << "representatives: " << representatives->filled << " of "
       << representatives->columns << " columns";
    if (representatives->filled_on_demand > 0) {
      os << " (" << representatives->filled_on_demand
         << " filled on demand, " << representatives->fill_block_reads
         << " block reads)";
    }
    os << "\n";
  }
  if (root_cuts.has_value()) {
    os << "root cuts: " << root_cuts->added << " added in "
       << root_cuts->rounds << " rounds, "
       << FormatDouble(root_cuts->seconds * 1e3, 3) << " ms\n";
  }
  return os.str();
}

}  // namespace paql::engine
