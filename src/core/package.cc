#include "core/package.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/str_util.h"

namespace paql::core {

int64_t Package::TotalCount() const {
  return std::accumulate(multiplicity.begin(), multiplicity.end(),
                         int64_t{0});
}

relation::Table Package::Materialize(const relation::ColumnSource& source) const {
  std::vector<relation::RowId> expanded;
  expanded.reserve(static_cast<size_t>(TotalCount()));
  for (size_t k = 0; k < rows.size(); ++k) {
    for (int64_t i = 0; i < multiplicity[k]; ++i) expanded.push_back(rows[k]);
  }
  return relation::MaterializeRows(source, expanded);
}

void Package::Normalize() {
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return rows[a] < rows[b]; });
  std::vector<relation::RowId> new_rows(rows.size());
  std::vector<int64_t> new_mult(rows.size());
  for (size_t i = 0; i < order.size(); ++i) {
    new_rows[i] = rows[order[i]];
    new_mult[i] = multiplicity[order[i]];
  }
  rows = std::move(new_rows);
  multiplicity = std::move(new_mult);
}

std::string Package::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t k = 0; k < rows.size(); ++k) {
    if (k > 0) os << ", ";
    os << rows[k];
    if (multiplicity[k] != 1) os << "x" << multiplicity[k];
  }
  os << "}";
  return os.str();
}

Status ValidatePackage(const translate::CompiledQuery& query,
                       const relation::ColumnSource& table, const Package& package,
                       double tol) {
  if (package.rows.size() != package.multiplicity.size()) {
    return Status::InvalidArgument("package rows/multiplicity mismatch");
  }
  for (size_t k = 0; k < package.rows.size(); ++k) {
    relation::RowId r = package.rows[k];
    if (r >= table.num_rows()) {
      return Status::InvalidArgument(StrCat("package row ", r, " out of range"));
    }
    if (package.multiplicity[k] <= 0) {
      return Status::InvalidArgument(
          StrCat("package row ", r, " has non-positive multiplicity"));
    }
    if (static_cast<double>(package.multiplicity[k]) > query.per_tuple_ub()) {
      return Status::InvalidArgument(
          StrCat("package row ", r, " repeats ", package.multiplicity[k],
                 " times, exceeding the REPEAT bound ",
                 query.per_tuple_ub()));
    }
    if (table.RowDeleted(r)) {
      return Status::InvalidArgument(
          StrCat("package row ", r, " has been deleted"));
    }
    if (!query.BaseAccepts(table, r)) {
      return Status::InvalidArgument(
          StrCat("package row ", r, " violates the base predicate"));
    }
  }
  if (!query.PackageSatisfiesGlobals(table, package.rows,
                                     package.multiplicity, tol)) {
    return Status::Infeasible("package violates a global predicate");
  }
  return Status::OK();
}

void EvalStats::Accumulate(const ilp::IlpStats& ilp) {
  ++ilp_solves;
  lp_iterations += ilp.lp_iterations;
  bnb_nodes += ilp.nodes;
  solve_seconds += ilp.wall_seconds;
  warm_lp_solves += ilp.warm_lp_solves;
  pricing_candidate_hits += ilp.pricing_candidate_hits;
  bound_flips += ilp.bound_flips;
  dse_pivots += ilp.dse_pivots;
  rc_fixed_vars += ilp.rc_fixed_vars;
  presolve_fixed_vars += ilp.presolve_fixed_vars;
  cut_seconds += ilp.root_cut_seconds;
  cut_rounds += ilp.cut_rounds;
  cuts_added += ilp.cuts_added;
  parallel_bnb_nodes += ilp.parallel_nodes;
  peak_memory_bytes = std::max(peak_memory_bytes, ilp.peak_memory_bytes);
}

}  // namespace paql::core
