#include "core/lp_rounding.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "common/str_util.h"

namespace paql::core {

using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

namespace {

constexpr double kIntTol = 1e-6;

bool IsIntegral(double v) { return std::abs(v - std::llround(v)) <= kIntTol; }

}  // namespace

LpRoundingEvaluator::LpRoundingEvaluator(const ColumnSource& table,
                                         LpRoundingOptions options)
    : table_(&table), options_(std::move(options)) {}

Result<EvalResult> LpRoundingEvaluator::Evaluate(
    const lang::PackageQuery& query) const {
  PAQL_ASSIGN_OR_RETURN(
      CompiledQuery cq, CompiledQuery::Compile(query, table_->schema()));
  return Evaluate(cq);
}

Result<EvalResult> LpRoundingEvaluator::Evaluate(
    const CompiledQuery& query) const {
  LpRoundingInfo info;
  return EvaluateWithInfo(query, &info);
}

Result<EvalResult> LpRoundingEvaluator::EvaluateWithInfo(
    const CompiledQuery& query, LpRoundingInfo* info) const {
  Stopwatch total;
  EvalResult result;
  *info = LpRoundingInfo();
  if (options_.Cancelled()) {
    return Status::ResourceExhausted("evaluation cancelled");
  }

  Stopwatch translate_watch;
  std::vector<RowId> candidates =
      query.ComputeBaseRowsVectorized(*table_, options_.EffectiveThreads());
  CompiledQuery::BuildOptions base_build;
  base_build.threads = options_.EffectiveThreads();
  PAQL_ASSIGN_OR_RETURN(lp::Model model,
                        query.BuildModel(*table_, candidates, base_build));
  result.stats.translate_seconds = translate_watch.ElapsedSeconds();

  // Step 1: one LP relaxation over the whole problem.
  Stopwatch solve_watch;
  lp::LpResult lp = ilp::SolveLpRelaxation(model);
  result.stats.lp_iterations += lp.iterations;
  switch (lp.status) {
    case lp::LpStatus::kOptimal:
      break;
    case lp::LpStatus::kInfeasible:
      return Status::Infeasible("LP relaxation is infeasible");
    case lp::LpStatus::kUnbounded:
      return Status::Unbounded("LP relaxation is unbounded");
    default:
      return Status::ResourceExhausted("LP relaxation did not converge");
  }
  info->lp_objective = lp.objective;

  // Step 2: split candidates into integral (fixed at their LP value) and
  // fractional (left to the repair ILP). A basic optimum has at most m
  // fractional variables, m = #rows.
  std::vector<size_t> fixed;     // indices into candidates
  std::vector<size_t> repair;    // indices into candidates
  for (size_t k = 0; k < candidates.size(); ++k) {
    if (IsIntegral(lp.x[k])) {
      fixed.push_back(k);
    } else {
      repair.push_back(k);
    }
  }
  info->fractional_vars = repair.size();

  auto assemble = [&](const std::vector<size_t>& fixed_set,
                      const std::vector<int64_t>& repair_mults,
                      const std::vector<size_t>& repair_set) {
    for (size_t k : fixed_set) {
      int64_t mult = std::llround(lp.x[k]);
      if (mult > 0) {
        result.package.rows.push_back(candidates[k]);
        result.package.multiplicity.push_back(mult);
      }
    }
    for (size_t i = 0; i < repair_set.size(); ++i) {
      if (repair_mults[i] > 0) {
        result.package.rows.push_back(candidates[repair_set[i]]);
        result.package.multiplicity.push_back(repair_mults[i]);
      }
    }
    result.package.Normalize();
  };

  // All-integral LP optimum: nothing to repair.
  if (repair.empty()) {
    assemble(fixed, {}, {});
    result.stats.solve_seconds = solve_watch.ElapsedSeconds();
    result.objective = query.ObjectiveValue(*table_, result.package.rows,
                                            result.package.multiplicity);
    result.stats.wall_seconds = total.ElapsedSeconds();
    return result;
  }

  // Step 3: repair ILP over the fractional candidates, bounds shifted by
  // the fixed part's activities.
  auto try_repair = [&](const std::vector<size_t>& fixed_set,
                        const std::vector<size_t>& repair_set)
      -> Result<std::vector<int64_t>> {
    std::vector<RowId> fixed_rows;
    std::vector<int64_t> fixed_mults;
    for (size_t k : fixed_set) {
      int64_t mult = std::llround(lp.x[k]);
      if (mult > 0) {
        fixed_rows.push_back(candidates[k]);
        fixed_mults.push_back(mult);
      }
    }
    std::vector<double> offsets =
        query.LeafActivitiesVectorized(*table_, fixed_rows, fixed_mults);
    std::vector<RowId> repair_rows;
    repair_rows.reserve(repair_set.size());
    for (size_t k : repair_set) repair_rows.push_back(candidates[k]);
    CompiledQuery::BuildOptions build;
    build.activity_offset = &offsets;
    build.threads = options_.EffectiveThreads();
    PAQL_ASSIGN_OR_RETURN(lp::Model repair_model,
                          query.BuildModel(*table_, repair_rows, build));
    PAQL_ASSIGN_OR_RETURN(
        ilp::IlpSolution sol,
        ilp::SolveIlp(repair_model, options_.limits,
                      options_.EffectiveBranchAndBound()));
    result.stats.Accumulate(sol.stats);
    std::vector<int64_t> mults(repair_set.size());
    for (size_t i = 0; i < repair_set.size(); ++i) {
      mults[i] = std::llround(sol.x[i]);
    }
    return mults;
  };

  auto repaired = try_repair(fixed, repair);
  if (!repaired.ok() && repaired.status().IsInfeasible() &&
      options_.widen_candidates > 0 && !fixed.empty()) {
    // Widen once: un-fix the largest-LP-value fixed candidates too, giving
    // the repair ILP room to trade quantity between tuples.
    info->widened = true;
    std::vector<size_t> by_value = fixed;
    std::sort(by_value.begin(), by_value.end(), [&](size_t a, size_t b) {
      if (lp.x[a] != lp.x[b]) return lp.x[a] > lp.x[b];
      return a < b;
    });
    size_t take = std::min(options_.widen_candidates, by_value.size());
    std::vector<size_t> wide_repair = repair;
    wide_repair.insert(wide_repair.end(), by_value.begin(),
                       by_value.begin() + static_cast<long>(take));
    std::vector<size_t> wide_fixed(by_value.begin() + static_cast<long>(take),
                                   by_value.end());
    auto second = try_repair(wide_fixed, wide_repair);
    if (second.ok()) {
      assemble(wide_fixed, *second, wide_repair);
      result.stats.solve_seconds = solve_watch.ElapsedSeconds();
      result.objective = query.ObjectiveValue(*table_, result.package.rows,
                                              result.package.multiplicity);
      result.stats.wall_seconds = total.ElapsedSeconds();
      return result;
    }
    if (second.status().IsInfeasible()) {
      return Status::Infeasible(
          "LP rounding could not repair integrality (even after widening); "
          "the instance needs an exact method");
    }
    return second.status();
  }
  if (!repaired.ok()) {
    if (repaired.status().IsInfeasible()) {
      return Status::Infeasible(
          "LP rounding could not repair integrality; the instance needs an "
          "exact method");
    }
    return repaired.status();
  }
  assemble(fixed, *repaired, repair);
  result.stats.solve_seconds = solve_watch.ElapsedSeconds();
  result.objective = query.ObjectiveValue(*table_, result.package.rows,
                                          result.package.multiplicity);
  result.stats.wall_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace paql::core
