#include "core/sketch_refine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"

namespace paql::core {

using partition::Partitioning;
using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

namespace {

/// Cap on refine-query solves before giving up (guards the worst-case
/// exponential backtracking): kRefineAttemptsPerGroup * m +
/// kRefineAttemptsBase over a partitioning of m groups.
constexpr int64_t kRefineAttemptsPerGroup = 10;
constexpr int64_t kRefineAttemptsBase = 1000;

/// Multiplicities (rounded) from an ILP solution over the first `n` vars.
std::vector<int64_t> RoundMults(const std::vector<double>& x, size_t n) {
  std::vector<int64_t> out(n, 0);
  for (size_t k = 0; k < n; ++k) {
    out[k] = static_cast<int64_t>(std::llround(x[k]));
  }
  return out;
}

/// The per-evaluation solver driving one SKETCHREFINE run. Holds the
/// compiled query, the candidate rows grouped by the offline partitioning,
/// the run's deadline and its counters.
class Driver {
 public:
  Driver(const ColumnSource& table, const Partitioning& partitioning,
         const CompiledQuery& query, const SketchRefineOptions& options)
      : table_(table),
        partitioning_(partitioning),
        query_(query),
        options_(options),
        rng_(options.seed),
        deadline_(0) {}

  Result<EvalResult> Run() {
    Stopwatch total;
    // One deadline for the whole run: every sketch, refine and hybrid
    // solve gets only the time that remains of the query's limit.
    deadline_ = Deadline(options_.limits.time_limit_s);
    EvalResult result;

    // Group the base relation by the offline partitioning.
    Stopwatch translate_watch;
    std::vector<std::vector<RowId>> group_rows(partitioning_.num_groups());
    translate::ScanCounters scan;
    std::vector<RowId> base = query_.ComputeBaseRowsVectorized(
        table_, options_.EffectiveThreads(), &scan);
    stats_.blocks_scanned = scan.blocks_scanned.load();
    stats_.blocks_pruned = scan.blocks_pruned.load();
    for (RowId r : base) {
      group_rows[partitioning_.gid[r]].push_back(r);
    }
    partition::RepresentativeFill fill;
    reps_ = &QueryRepresentatives(table_, partitioning_, query_, &fill);
    stats_.representative_columns_filled = static_cast<int64_t>(fill.columns);
    stats_.representative_block_reads = fill.block_reads;
    stats_.translate_seconds += translate_watch.ElapsedSeconds();

    max_attempts_ = kRefineAttemptsPerGroup *
                        static_cast<int64_t>(partitioning_.num_groups()) +
                    kRefineAttemptsBase;

    for (size_t g = 0; g < group_rows.size(); ++g) {
      if (group_rows[g].empty()) continue;  // no candidates in this group
      members_.push_back(std::move(group_rows[g]));
      // Representative-relation row g is the representative of group g.
      rep_rows_.push_back(static_cast<RowId>(g));
    }

    PAQL_ASSIGN_OR_RETURN(std::vector<GroupState> state, SketchAndRefine());
    for (size_t g = 0; g < members_.size(); ++g) {
      PAQL_CHECK_MSG(state[g].refined, "group left unrefined");
      for (size_t i = 0; i < members_[g].size(); ++i) {
        if (state[g].member_mult[i] > 0) {
          result.package.rows.push_back(members_[g][i]);
          result.package.multiplicity.push_back(state[g].member_mult[i]);
        }
      }
    }
    result.package.Normalize();
    result.objective = query_.ObjectiveValue(table_, result.package.rows,
                                             result.package.multiplicity);
    result.stats = stats_;
    result.stats.wall_seconds = total.ElapsedSeconds();
    return result;
  }

 private:
  /// Refinement state of one group.
  struct GroupState {
    bool refined = false;
    int64_t rep_mult = 0;              // valid while !refined
    std::vector<int64_t> member_mult;  // valid when refined (per member)
  };

  // ------------------------------------------------------------------
  // Subproblem solving
  // ------------------------------------------------------------------

  /// Budgeted ILP solve with stats accounting. `warm` (optional) carries
  /// the root basis across consecutive solves of the same column set.
  Result<ilp::IlpSolution> SolveModel(const lp::Model& model,
                                      ilp::IlpWarmStart* warm = nullptr) {
    if (options_.Cancelled()) {
      return Status::ResourceExhausted("evaluation cancelled");
    }
    if (++attempts_ > max_attempts_) {
      return Status::ResourceExhausted(
          StrCat("SketchRefine exceeded ", max_attempts_,
                 " subproblem solves (excessive backtracking)"));
    }
    PAQL_ASSIGN_OR_RETURN(
        ilp::SolverLimits limits,
        ilp::RemainingLimits(options_.limits, deadline_, "SketchRefine"));
    auto sol = ilp::SolveIlp(model, limits, options_.EffectiveBranchAndBound(),
                             warm);
    if (sol.ok()) stats_.Accumulate(sol->stats);
    return sol;
  }

  /// Cached refine-subproblem state for one group: the built model
  /// (re-targeted in place between solves when the query allows it) and
  /// the warm-start basis of the previous solve. Groups are revisited
  /// during backtracking with the same column set and different activity
  /// offsets — exactly the reuse this cache exploits.
  struct SubCache {
    lp::Model model;
    bool built = false;
    ilp::IlpWarmStart warm;
  };

  /// Solve group g's refine query Q[G_g]: its original tuples, with
  /// constraint bounds shifted by `offsets`. With warm starting on, the
  /// group's cached model is re-targeted and its basis reused; otherwise
  /// every visit rebuilds the model and solves it cold.
  Result<std::vector<int64_t>> SolveGroup(size_t g,
                                          const std::vector<double>& offsets,
                                          SubCache* cache) {
    const std::vector<RowId>& rows = members_[g];
    if (options_.branch_and_bound.warm_start && cache->built &&
        query_.CanUpdateOffsets()) {
      PAQL_RETURN_IF_ERROR(query_.UpdateModelOffsets(offsets, &cache->model));
      ++stats_.warm_model_reuses;
    } else {
      // First visit, a cold run, or an OR query whose big-M coefficients
      // bake in the offsets: (re)build. A warm run's basis still carries
      // over — the column set is identical.
      CompiledQuery::Segment seg;
      seg.table = &table_;
      seg.rows = &rows;
      PAQL_ASSIGN_OR_RETURN(cache->model,
                            query_.BuildModelSegments(
                                {seg}, &offsets, options_.EffectiveThreads()));
      cache->built = true;
    }
    // The solver consults the carried basis only when warm starting is on.
    PAQL_ASSIGN_OR_RETURN(ilp::IlpSolution sol,
                          SolveModel(cache->model, &cache->warm));
    return RoundMults(sol.x, rows.size());
  }

  // ------------------------------------------------------------------
  // SKETCH + REFINE
  // ------------------------------------------------------------------

  Result<std::vector<GroupState>> SketchAndRefine() {
    size_t m = members_.size();
    // Per-representative upper bound |G_j| * (K+1) (Section 4.2.1): the
    // sum of its members' repetition bounds (integers or +inf, so exact).
    std::vector<double> rep_ub(m);
    for (size_t g = 0; g < m; ++g) {
      rep_ub[g] =
          static_cast<double>(members_[g].size()) * query_.per_tuple_ub();
    }

    std::vector<GroupState> state(m);
    bool sketched = false;

    // --- SKETCH over the representatives. ---
    {
      CompiledQuery::Segment seg;
      seg.table = reps_;
      seg.rows = &rep_rows_;
      seg.ub_override = &rep_ub;
      PAQL_ASSIGN_OR_RETURN(
          lp::Model model,
          query_.BuildModelSegments({seg}, /*activity_offset=*/nullptr,
                                    options_.EffectiveThreads()));
      auto sol = SolveModel(model);
      if (sol.ok()) {
        std::vector<int64_t> mults = RoundMults(sol->x, m);
        for (size_t g = 0; g < m; ++g) state[g].rep_mult = mults[g];
        sketched = true;
      } else if (!sol.status().IsInfeasible()) {
        return sol.status();
      }
    }

    // --- Hybrid sketch fallback (Section 4.4, remedy 1). ---
    if (!sketched) {
      if (!options_.use_hybrid_sketch) {
        return Status::Infeasible(
            "sketch query infeasible (possible false infeasibility; enable "
            "the hybrid sketch fallback)");
      }
      std::vector<size_t> order(m);
      std::iota(order.begin(), order.end(), 0);
      rng_.Shuffle(order);
      for (size_t g : order) {
        auto hybrid = TryHybridSketch(rep_ub, g);
        if (hybrid.ok()) {
          stats_.used_hybrid_sketch = true;
          // Group g is refined directly by the hybrid solution.
          state[g].refined = true;
          state[g].member_mult = std::move(hybrid->group_mults);
          for (size_t other = 0; other < m; ++other) {
            if (other != g) state[other].rep_mult = hybrid->rep_mults[other];
          }
          sketched = true;
          break;
        }
        if (!hybrid.status().IsInfeasible()) return hybrid.status();
      }
      if (!sketched) {
        return Status::Infeasible(
            "sketch and all hybrid sketch queries are infeasible "
            "(possible false infeasibility)");
      }
    }

    // --- REFINE (Algorithm 2, greedy backtracking). ---
    std::vector<size_t> unrefined;
    for (size_t g = 0; g < m; ++g) {
      if (state[g].refined) continue;
      if (state[g].rep_mult == 0) {
        // Skip groups with no representative in the sketch package: they
        // refine trivially to the empty set (Algorithm 2, line 10).
        state[g].refined = true;
        state[g].member_mult.assign(members_[g].size(), 0);
      } else {
        unrefined.push_back(g);
      }
    }
    rng_.Shuffle(unrefined);
    std::vector<size_t> failed;
    // One model+basis cache per group, shared across the whole
    // backtracking recursion (a group keeps its column set however often
    // it is revisited).
    std::vector<SubCache> cache(m);
    PAQL_ASSIGN_OR_RETURN(bool ok, RefineRec(state, unrefined,
                                             /*initial=*/true, &failed,
                                             &cache));
    if (!ok) {
      return Status::Infeasible(
          "greedy backtracking failed to refine the sketch package "
          "(possible false infeasibility)");
    }
    return state;
  }

  /// Activities contributed by all groups except `skip_group` under `state`.
  std::vector<double> StateActivities(const std::vector<GroupState>& state,
                                      size_t skip_group) const {
    std::vector<RowId> orig_rows;
    std::vector<int64_t> orig_mults;
    std::vector<RowId> rep_rows;
    std::vector<int64_t> rep_mults;
    for (size_t g = 0; g < state.size(); ++g) {
      if (g == skip_group) continue;
      if (state[g].refined) {
        for (size_t i = 0; i < members_[g].size(); ++i) {
          if (state[g].member_mult[i] > 0) {
            orig_rows.push_back(members_[g][i]);
            orig_mults.push_back(state[g].member_mult[i]);
          }
        }
      } else if (state[g].rep_mult > 0) {
        rep_rows.push_back(rep_rows_[g]);
        rep_mults.push_back(state[g].rep_mult);
      }
    }
    std::vector<double> acts = query_.LeafActivitiesVectorized(
        table_, orig_rows, orig_mults, options_.EffectiveThreads());
    std::vector<double> rep_acts =
        query_.LeafActivitiesVectorized(*reps_, rep_rows, rep_mults);
    for (size_t i = 0; i < acts.size(); ++i) acts[i] += rep_acts[i];
    return acts;
  }

  /// One recursion level of Algorithm 2. `pending` lists the unrefined
  /// groups; each is dequeued at most once per level as the next group to
  /// refine. Returns true when a complete refinement was found (state
  /// updated in place); false = failure, with the groups whose refine
  /// queries were infeasible appended to `failed` for prioritization
  /// upstream. `initial` marks the level where pS is still the initial
  /// sketch package (Algorithm 2's "S == P" test).
  Result<bool> RefineRec(std::vector<GroupState>& state,
                         std::vector<size_t> pending, bool initial,
                         std::vector<size_t>* failed,
                         std::vector<SubCache>* cache) {
    if (pending.empty()) return true;
    std::deque<size_t> queue(pending.begin(), pending.end());
    std::vector<size_t> dequeued_failed;  // groups that failed at this level
    std::vector<size_t> local_failed;
    while (!queue.empty()) {
      size_t g = queue.front();
      queue.pop_front();

      // Refine query Q[G_g]: the group's original tuples, with bounds
      // shifted by the rest of the package.
      auto mults = SolveGroup(g, StateActivities(state, /*skip_group=*/g),
                              &(*cache)[g]);
      if (!mults.ok()) {
        if (!mults.status().IsInfeasible()) return mults.status();
        // Q[G_g] infeasible (Algorithm 2, lines 13-17).
        local_failed.push_back(g);
        dequeued_failed.push_back(g);
        if (!initial) {
          // Greedy backtrack: likely caused by earlier refinements.
          ++stats_.backtracks;
          failed->insert(failed->end(), local_failed.begin(),
                         local_failed.end());
          return false;
        }
        continue;  // initial package: try a different first group
      }
      // Recurse on all remaining unrefined groups with g refined. Failed
      // groups from this level go first (greedy prioritization).
      std::vector<GroupState> next_state = state;
      next_state[g].refined = true;
      next_state[g].rep_mult = 0;
      next_state[g].member_mult = std::move(*mults);
      ++stats_.groups_refined;
      std::vector<size_t> rest(dequeued_failed.begin(),
                               dequeued_failed.end());
      rest.insert(rest.end(), queue.begin(), queue.end());
      std::vector<size_t> child_failed;
      PAQL_ASSIGN_OR_RETURN(
          bool ok, RefineRec(next_state, std::move(rest), /*initial=*/false,
                             &child_failed, cache));
      if (ok) {
        state = std::move(next_state);
        return true;
      }
      // The subtree under g failed: record g, prioritize the reported
      // infeasible groups within the remaining queue (Algorithm 2, l.24).
      local_failed.insert(local_failed.end(), child_failed.begin(),
                          child_failed.end());
      dequeued_failed.push_back(g);
      std::deque<size_t> reordered;
      for (size_t f : child_failed) {
        auto it = std::find(queue.begin(), queue.end(), f);
        if (it != queue.end()) {
          queue.erase(it);
          reordered.push_back(f);
        }
      }
      for (auto it = reordered.rbegin(); it != reordered.rend(); ++it) {
        queue.push_front(*it);
      }
    }
    // Every group at this level was tried and failed.
    if (!initial) {
      failed->insert(failed->end(), local_failed.begin(), local_failed.end());
    }
    return false;
  }

  /// Hybrid sketch: group g's original tuples + other representatives.
  struct HybridResult {
    std::vector<int64_t> group_mults;  // per member of g
    std::vector<int64_t> rep_mults;    // per group (g's entry unused)
  };
  Result<HybridResult> TryHybridSketch(const std::vector<double>& rep_ub,
                                       size_t g) {
    const std::vector<RowId>& orig_rows = members_[g];
    std::vector<RowId> other_reps;
    std::vector<double> other_ub;
    for (size_t other = 0; other < members_.size(); ++other) {
      if (other == g) continue;
      other_reps.push_back(rep_rows_[other]);
      other_ub.push_back(rep_ub[other]);
    }
    CompiledQuery::Segment seg_orig, seg_rep;
    seg_orig.table = &table_;
    seg_orig.rows = &orig_rows;
    seg_rep.table = reps_;
    seg_rep.rows = &other_reps;
    seg_rep.ub_override = &other_ub;
    PAQL_ASSIGN_OR_RETURN(
        lp::Model model,
        query_.BuildModelSegments({seg_orig, seg_rep},
                                  /*activity_offset=*/nullptr,
                                  options_.EffectiveThreads()));
    PAQL_ASSIGN_OR_RETURN(ilp::IlpSolution sol, SolveModel(model));
    HybridResult out;
    out.group_mults = RoundMults(sol.x, orig_rows.size());
    out.rep_mults.assign(members_.size(), 0);
    size_t idx = orig_rows.size();
    for (size_t other = 0; other < members_.size(); ++other) {
      if (other == g) continue;
      out.rep_mults[other] = static_cast<int64_t>(std::llround(sol.x[idx]));
      ++idx;
    }
    return out;
  }

  const ColumnSource& table_;
  const Partitioning& partitioning_;
  // One representative row per partitioning group, with the columns the
  // query reads filled; set by Run().
  const Table* reps_ = nullptr;
  const CompiledQuery& query_;
  const SketchRefineOptions& options_;
  Rng rng_;
  Deadline deadline_;
  EvalStats stats_;
  // Candidate rows of every group with at least one, in group order, and
  // that group's representative row in `reps_`.
  std::vector<std::vector<RowId>> members_;
  std::vector<RowId> rep_rows_;
  int64_t attempts_ = 0;
  int64_t max_attempts_ = 0;
};

}  // namespace

const Table& QueryRepresentatives(const ColumnSource& table,
                                  const Partitioning& partitioning,
                                  const CompiledQuery& query,
                                  partition::RepresentativeFill* fill) {
  std::vector<std::string> names = query.objective_columns();
  for (size_t i = 0; i < query.num_leaf_constraints(); ++i) {
    const std::vector<std::string>& leaf = query.leaf_columns(i);
    names.insert(names.end(), leaf.begin(), leaf.end());
  }
  std::vector<size_t> cols;
  for (const std::string& name : names) {
    auto col = table.schema().FindColumn(name);
    if (col.has_value() &&
        table.schema().column(*col).type != relation::DataType::kString) {
      cols.push_back(*col);
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return partitioning.Representatives(table, cols, fill);
}

SketchRefineEvaluator::SketchRefineEvaluator(const ColumnSource& table,
                                             const Partitioning& partitioning,
                                             SketchRefineOptions options)
    : table_(&table),
      partitioning_(&partitioning),
      options_(std::move(options)) {
  PAQL_CHECK_MSG(partitioning.gid.size() == table.num_rows(),
                 "partitioning does not cover the table");
}

Result<EvalResult> SketchRefineEvaluator::Evaluate(
    const lang::PackageQuery& query) const {
  PAQL_ASSIGN_OR_RETURN(
      translate::CompiledQuery cq,
      translate::CompiledQuery::Compile(query, table_->schema()));
  return Evaluate(cq);
}

Result<EvalResult> SketchRefineEvaluator::Evaluate(
    const translate::CompiledQuery& query) const {
  Driver driver(*table_, *partitioning_, query, options_);
  return driver.Run();
}

}  // namespace paql::core
