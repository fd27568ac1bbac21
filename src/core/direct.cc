#include "core/direct.h"

#include <cmath>

#include "common/stopwatch.h"

namespace paql::core {

DirectEvaluator::DirectEvaluator(const relation::ColumnSource& table,
                                 engine::ExecContext options)
    : table_(&table), options_(std::move(options)) {}

Result<EvalResult> DirectEvaluator::Evaluate(
    const lang::PackageQuery& query) const {
  PAQL_ASSIGN_OR_RETURN(
      translate::CompiledQuery cq,
      translate::CompiledQuery::Compile(query, table_->schema()));
  return Evaluate(cq);
}

Result<EvalResult> DirectEvaluator::Evaluate(
    const translate::CompiledQuery& query) const {
  if (options_.Cancelled()) {
    return Status::ResourceExhausted("evaluation cancelled");
  }
  Stopwatch translate_watch;
  // Step 2 (paper): the base relation over the whole table, a contiguous
  // chunked scan. Over a DiskTable the scan consults zone maps and skips
  // blocks the WHERE clause rules out.
  translate::ScanCounters scan;
  std::vector<relation::RowId> candidates = query.ComputeBaseRowsVectorized(
      *table_, options_.EffectiveThreads(), &scan);
  auto result = SolveCandidates(query, candidates,
                                translate_watch.ElapsedSeconds());
  if (result.ok()) {
    result->stats.blocks_scanned = scan.blocks_scanned.load();
    result->stats.blocks_pruned = scan.blocks_pruned.load();
  }
  return result;
}

Result<EvalResult> DirectEvaluator::EvaluateOnRows(
    const translate::CompiledQuery& query,
    const std::vector<relation::RowId>& rows) const {
  if (options_.Cancelled()) {
    return Status::ResourceExhausted("evaluation cancelled");
  }
  Stopwatch translate_watch;
  std::vector<relation::RowId> candidates =
      query.FilterBaseRows(*table_, rows, options_.EffectiveThreads());
  return SolveCandidates(query, candidates,
                         translate_watch.ElapsedSeconds());
}

Result<EvalResult> DirectEvaluator::SolveCandidates(
    const translate::CompiledQuery& query,
    const std::vector<relation::RowId>& candidates,
    double filter_seconds) const {
  Stopwatch total;
  EvalResult result;
  if (options_.Cancelled()) {
    return Status::ResourceExhausted("evaluation cancelled");
  }

  // Step 1 (paper): ILP formulation.
  Stopwatch translate_watch;
  translate::CompiledQuery::BuildOptions build;
  build.threads = options_.EffectiveThreads();
  PAQL_ASSIGN_OR_RETURN(lp::Model model,
                        query.BuildModel(*table_, candidates, build));
  result.stats.translate_seconds =
      filter_seconds + translate_watch.ElapsedSeconds();

  // Step 3 (paper): ILP execution by the black-box solver. The optional
  // warm carrier seeds the root LP from the previous identical
  // statement's basis (cross-query cache) and collects this solve's; the
  // solver ignores it when warm starting is off.
  auto solution =
      ilp::SolveIlp(model, options_.limits, options_.EffectiveBranchAndBound(),
                    options_.warm_basis);
  if (!solution.ok()) {
    return solution.status();
  }
  result.stats.Accumulate(solution->stats);

  // x*_i gives the multiplicity of tuple i in the answer package. Indicator
  // variables (appended after the tuple variables by the translator) are
  // not part of the package.
  for (size_t k = 0; k < candidates.size(); ++k) {
    int64_t mult = static_cast<int64_t>(std::llround(solution->x[k]));
    if (mult > 0) {
      result.package.rows.push_back(candidates[k]);
      result.package.multiplicity.push_back(mult);
    }
  }
  result.objective = query.ObjectiveValue(*table_, result.package.rows,
                                          result.package.multiplicity);
  result.stats.wall_seconds = total.ElapsedSeconds() + filter_seconds;
  return result;
}

}  // namespace paql::core
