#include "core/incremental.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "ilp/branch_and_bound.h"

namespace paql::core {

using partition::Partitioning;
using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

Result<IncrementalResult> ReEvaluatePackage(
    const ColumnSource& table, const Partitioning& partitioning,
    const CompiledQuery& query, const Package& previous,
    const std::vector<uint32_t>& dirty_groups,
    const IncrementalOptions& options) {
  Stopwatch total;
  if (partitioning.gid.size() != table.num_rows()) {
    return Status::InvalidArgument(
        "partitioning does not cover the table (absorb appended rows "
        "first: partition::AbsorbAppendedRows)");
  }
  std::vector<bool> is_dirty(partitioning.num_groups(), false);
  for (uint32_t g : dirty_groups) {
    if (g >= partitioning.num_groups()) {
      return Status::InvalidArgument(StrCat("dirty group ", g,
                                            " out of range"));
    }
    is_dirty[g] = true;
  }

  // Split the previous package into the fixed (clean-group) part and the
  // released (dirty-group) part. Deleted rows are dropped outright: the
  // batch that deleted them dirtied their group (AbsorbBatch's contract),
  // so the subproblem below re-chooses their replacements.
  IncrementalResult out;
  std::vector<RowId> fixed_rows;
  std::vector<int64_t> fixed_mults;
  for (size_t i = 0; i < previous.rows.size(); ++i) {
    RowId r = previous.rows[i];
    if (r >= table.num_rows()) {
      return Status::InvalidArgument(
          StrCat("previous package row ", r, " out of range"));
    }
    if (table.RowDeleted(r) || partitioning.gid[r] == partition::kNoGroup) {
      ++out.previous_rows_deleted;
      continue;
    }
    if (!is_dirty[partitioning.gid[r]]) {
      fixed_rows.push_back(r);
      fixed_mults.push_back(previous.multiplicity[i]);
    }
  }

  // Candidates: base-relation rows of the dirty groups. Iterate the
  // `is_dirty` mask, not `dirty_groups` — a duplicated id in the caller's
  // list would otherwise create duplicate ILP variables for the same row
  // and duplicated package entries.
  Stopwatch translate_watch;
  std::vector<RowId> dirty_rows;
  for (uint32_t g = 0; g < partitioning.num_groups(); ++g) {
    if (!is_dirty[g]) continue;
    dirty_rows.insert(dirty_rows.end(), partitioning.groups[g].begin(),
                      partitioning.groups[g].end());
  }
  std::sort(dirty_rows.begin(), dirty_rows.end());
  std::vector<RowId> candidates = query.FilterBaseRows(table, dirty_rows);
  out.dirty_candidates = candidates.size();

  // Refine-style subproblem: dirty-group candidates under bounds shifted by
  // the fixed part's aggregates (Algorithm 2's Q[G_j], with G_j = the union
  // of the dirty groups).
  std::vector<double> offsets =
      query.LeafActivitiesVectorized(table, fixed_rows, fixed_mults);
  CompiledQuery::BuildOptions bopts;
  bopts.activity_offset = &offsets;
  PAQL_ASSIGN_OR_RETURN(lp::Model model,
                        query.BuildModel(table, candidates, bopts));
  double translate_seconds = translate_watch.ElapsedSeconds();
  ilp::IlpStats subproblem_stats;
  auto sol = ilp::SolveIlp(model, options.sketch_refine.limits,
                           options.sketch_refine.EffectiveBranchAndBound(),
                           /*warm=*/nullptr, &subproblem_stats);
  if (sol.ok()) {
    out.result.stats.Accumulate(sol->stats);
    out.result.stats.translate_seconds = translate_seconds;
    out.result.package.rows = fixed_rows;
    out.result.package.multiplicity = fixed_mults;
    for (size_t k = 0; k < candidates.size(); ++k) {
      int64_t mult = static_cast<int64_t>(std::llround(sol->x[k]));
      if (mult > 0) {
        out.result.package.rows.push_back(candidates[k]);
        out.result.package.multiplicity.push_back(mult);
      }
    }
    out.result.package.Normalize();
    PAQL_RETURN_IF_ERROR(ValidatePackage(query, table, out.result.package));
    out.result.objective = query.ObjectiveValue(
        table, out.result.package.rows, out.result.package.multiplicity);
    out.result.stats.wall_seconds = total.ElapsedSeconds();
    return out;
  }
  if (!sol.status().IsInfeasible()) return sol.status();

  // The fixed part over-constrains the subproblem (e.g. the query changed
  // since `previous` was computed, or the batch deleted a tuple the rest of
  // the package depended on): fall back to a full run. The translate time
  // and solver effort spent on the abandoned incremental subproblem are
  // real work this call performed, so they ride along in the reported
  // stats, and dirty_candidates keeps describing the subproblem that was
  // attempted.
  SketchRefineEvaluator full(table, partitioning, options.sketch_refine);
  PAQL_ASSIGN_OR_RETURN(out.result, full.Evaluate(query));
  out.used_fallback = true;
  out.result.stats.Accumulate(subproblem_stats);
  out.result.stats.translate_seconds += translate_seconds;
  out.result.stats.wall_seconds = total.ElapsedSeconds();
  return out;
}

}  // namespace paql::core
