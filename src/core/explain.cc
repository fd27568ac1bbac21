#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/str_util.h"

namespace paql::core {

using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

namespace {

/// min / median / max of a non-empty vector (sorted copy).
struct Spread {
  double min = 0, median = 0, max = 0;
};
Spread ComputeSpread(std::vector<double> values) {
  Spread s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.median = values[values.size() / 2];
  return s;
}

void DescribeIlp(const CompiledQuery& query, const ColumnSource& table,
                 const std::vector<RowId>& rows, std::ostringstream& out) {
  auto model = query.BuildModel(table, rows);
  if (!model.ok()) {
    out << "  ILP: translation failed: " << model.status().message() << "\n";
    return;
  }
  int indicators = model->num_vars() - static_cast<int>(rows.size());
  out << "  ILP: " << model->num_vars() << " integer variables ("
      << rows.size() << " tuple vars";
  if (indicators > 0) out << " + " << indicators << " OR indicators";
  out << "), " << model->num_rows() << " rows\n";
  for (const auto& row : model->rows()) {
    out << "    row [" << (std::isinf(row.lo) ? "-inf" : FormatDouble(row.lo))
        << ", " << (std::isinf(row.hi) ? "+inf" : FormatDouble(row.hi))
        << "]  " << (row.name.empty() ? "(unnamed)" : row.name) << "\n";
  }
  out << "  objective: ";
  if (!query.has_objective()) {
    out << "none (vacuous max 0; first feasible package wins)\n";
  } else {
    out << (query.maximize() ? "MAXIMIZE" : "MINIMIZE");
    if (!query.objective_columns().empty()) {
      out << " over columns " << Join(query.objective_columns(), ", ");
    }
    out << "\n";
  }
}

}  // namespace

std::string ExplainDirect(const CompiledQuery& query, const ColumnSource& table) {
  std::ostringstream out;
  out << "DIRECT plan (paper Section 3.2)\n";
  out << "  input relation: " << table.num_rows() << " rows\n";
  std::vector<RowId> base = query.ComputeBaseRowsVectorized(table);
  if (query.has_base_predicate()) {
    out << "  base relation (WHERE): " << base.size() << " rows ("
        << table.num_rows() - base.size() << " excluded; their variables "
        << "are eliminated)\n";
  } else {
    out << "  base relation: no WHERE clause; all " << base.size()
        << " rows are candidates\n";
  }
  double ub = query.per_tuple_ub();
  if (std::isinf(ub)) {
    out << "  repetition: unbounded (no REPEAT clause)\n";
  } else {
    out << "  repetition: 0 <= x_i <= " << FormatDouble(ub) << " (REPEAT "
        << FormatDouble(ub - 1) << ")\n";
  }
  DescribeIlp(query, table, base, out);
  return out.str();
}

std::string ExplainSketchRefine(const CompiledQuery& query, const ColumnSource& table,
                                const partition::Partitioning& partitioning) {
  std::ostringstream out;
  out << "SKETCHREFINE plan (paper Section 4)\n";
  out << "  input relation: " << table.num_rows() << " rows\n";

  // Candidate rows per group after the base predicate.
  std::vector<size_t> group_candidates(partitioning.num_groups(), 0);
  const std::vector<RowId> base = query.ComputeBaseRowsVectorized(table);
  const size_t base_rows = base.size();
  for (RowId r : base) ++group_candidates[partitioning.gid[r]];
  size_t nonempty = 0;
  std::vector<double> sizes;
  for (size_t g = 0; g < group_candidates.size(); ++g) {
    if (group_candidates[g] > 0) {
      ++nonempty;
      sizes.push_back(static_cast<double>(group_candidates[g]));
    }
  }
  out << "  base relation: " << base_rows << " candidate rows\n";
  out << "  partitioning: " << partitioning.num_groups() << " groups ("
      << nonempty << " with candidates), size threshold tau = "
      << partitioning.size_threshold << ", attributes: "
      << Join(partitioning.attributes, ", ") << "\n";
  if (!sizes.empty()) {
    Spread s = ComputeSpread(sizes);
    out << "  group sizes (candidates): min " << s.min << ", median "
        << s.median << ", max " << s.max << "\n";
  }
  if (!partitioning.radius.empty()) {
    std::vector<double> radii(partitioning.radius.begin(),
                              partitioning.radius.end());
    Spread r = ComputeSpread(radii);
    out << "  group radii: min " << FormatDouble(r.min) << ", median "
        << FormatDouble(r.median) << ", max " << FormatDouble(r.max);
    if (partitioning.radius_limit > 0 &&
        std::isfinite(partitioning.radius_limit)) {
      out << " (radius limit omega = "
          << FormatDouble(partitioning.radius_limit)
          << "; Theorem 3 approximation bounds apply)";
    } else {
      out << " (no radius limit; no formal approximation guarantee)";
    }
    out << "\n";
  }
  out << "  SKETCH: one ILP over the " << nonempty
      << " group representatives\n";
  if (!sizes.empty()) {
    Spread s = ComputeSpread(sizes);
    out << "  REFINE: up to " << nonempty
        << " ILPs, one per group with representatives in the sketch "
        << "package, each over at most " << s.max << " tuple variables\n";
  }
  out << "  fallback: hybrid sketch query on sketch infeasibility "
      << "(Section 4.4 remedy 1)\n";
  return out.str();
}

}  // namespace paql::core
