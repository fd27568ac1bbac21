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

constexpr double kInf = lp::kInf;

/// Multiplicities (rounded) from an ILP solution over the first `n` vars.
std::vector<int64_t> RoundMults(const std::vector<double>& x, size_t n) {
  std::vector<int64_t> out(n, 0);
  for (size_t k = 0; k < n; ++k) {
    out[k] = static_cast<int64_t>(std::llround(x[k]));
  }
  return out;
}

/// The per-evaluation solver driving one SKETCHREFINE run. Holds the
/// compiled query and global counters; the recursive machinery passes
/// explicit "node problems" (candidate rows of some table, with per-row
/// repetition bounds).
class Driver {
 public:
  Driver(const ColumnSource& table, const Partitioning& partitioning,
         const CompiledQuery& query, const SketchRefineOptions& options)
      : table_(table),
        partitioning_(partitioning),
        query_(query),
        options_(options),
        rng_(options.seed) {}

  Result<EvalResult> Run() {
    Stopwatch total;
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
    stats_.translate_seconds += translate_watch.ElapsedSeconds();

    max_attempts_ = options_.max_refine_attempts > 0
                        ? options_.max_refine_attempts
                        : static_cast<int64_t>(
                              10 * partitioning_.num_groups() + 1000);

    NodeProblem root;
    root.table = &table_;
    GroupsView groups;
    for (size_t g = 0; g < group_rows.size(); ++g) {
      if (group_rows[g].empty()) continue;  // no candidates in this group
      groups.members.push_back(group_rows[g]);
      // Representative-relation row g is the representative of group g.
      groups.rep_rows.push_back(static_cast<RowId>(g));
    }
    groups.rep_table = &partitioning_.representatives;
    for (const auto& members : groups.members) {
      root.rows.insert(root.rows.end(), members.begin(), members.end());
    }
    root.ub.assign(root.rows.size(), query_.per_tuple_ub());
    // Re-index group members as positions within root.rows.
    size_t pos = 0;
    for (auto& members : groups.members) {
      for (auto& m : members) m = static_cast<RowId>(pos++);
    }

    std::vector<double> zero_offsets(query_.num_leaf_constraints(), 0.0);
    PAQL_ASSIGN_OR_RETURN(std::vector<int64_t> mults,
                          SketchAndRefine(root, groups, zero_offsets,
                                          /*depth=*/0));

    for (size_t k = 0; k < root.rows.size(); ++k) {
      if (mults[k] > 0) {
        result.package.rows.push_back(root.rows[k]);
        result.package.multiplicity.push_back(mults[k]);
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
  /// Candidate rows of some table with per-row repetition upper bounds.
  struct NodeProblem {
    const ColumnSource* table = nullptr;
    std::vector<RowId> rows;
    std::vector<double> ub;
  };

  /// A partitioning of a NodeProblem's candidates: `members[g]` holds
  /// *positions into prob.rows*; `rep_rows[g]` is the representative's row
  /// in `rep_table`.
  struct GroupsView {
    const ColumnSource* rep_table = nullptr;
    std::vector<std::vector<RowId>> members;
    std::vector<RowId> rep_rows;
  };

  /// Refinement state of one group.
  struct GroupState {
    bool refined = false;
    int64_t rep_mult = 0;              // valid while !refined
    std::vector<int64_t> member_mult;  // valid when refined (per member)
  };

  // ------------------------------------------------------------------
  // Subproblem solving (with optional recursion)
  // ------------------------------------------------------------------

  /// Solve the package subproblem over `prob` with constraint bounds
  /// shifted by `offsets`. Returns per-candidate multiplicities.
  Result<std::vector<int64_t>> SolveNode(const NodeProblem& prob,
                                         const std::vector<double>& offsets,
                                         int depth) {
    stats_.recursion_depth = std::max<int64_t>(stats_.recursion_depth, depth);
    if (options_.max_subproblem_size == 0 ||
        prob.rows.size() <= options_.max_subproblem_size) {
      CompiledQuery::Segment seg;
      seg.table = prob.table;
      seg.rows = &prob.rows;
      seg.ub_override = &prob.ub;
      PAQL_ASSIGN_OR_RETURN(lp::Model model,
                            query_.BuildModelSegments({seg}, &offsets,
                                                      options_.EffectiveThreads()));
      PAQL_ASSIGN_OR_RETURN(ilp::IlpSolution sol, SolveModel(model));
      return RoundMults(sol.x, prob.rows.size());
    }
    // Recursive case: partition the candidates on the fly and run a nested
    // sketch+refine one level down.
    PAQL_ASSIGN_OR_RETURN(auto nested, MakeNestedGroups(prob));
    return SketchAndRefine(*nested.problem, nested.groups, offsets,
                           depth + 1);
  }

  /// Budgeted ILP solve with stats accounting. `warm` (optional) carries
  /// the root basis across consecutive solves of the same column set.
  Result<ilp::IlpSolution> SolveModel(const lp::Model& model,
                                      ilp::IlpWarmStart* warm = nullptr) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      return Status::ResourceExhausted("evaluation cancelled");
    }
    if (++attempts_ > max_attempts_) {
      return Status::ResourceExhausted(
          StrCat("SketchRefine exceeded ", max_attempts_,
                 " subproblem solves (excessive backtracking)"));
    }
    auto sol = ilp::SolveIlp(model, options_.limits,
                             options_.EffectiveBranchAndBound(), warm);
    if (sol.ok()) stats_.Accumulate(sol->stats);
    return sol;
  }

  /// Cached refine-subproblem state for one group at one recursion level:
  /// the built model (re-targeted in place between solves when the query
  /// allows it) and the warm-start basis of the previous solve. Groups are
  /// revisited during backtracking with the same column set and different
  /// activity offsets — exactly the reuse this cache exploits.
  struct SubCache {
    lp::Model model;
    bool built = false;
    ilp::IlpWarmStart warm;
  };

  /// Solve group g's refine query Q[G_g] through the per-level cache. Falls
  /// back to the uncached SolveNode path when the subproblem must recurse
  /// or warm starting is off.
  Result<std::vector<int64_t>> SolveGroupCached(
      const NodeProblem& prob, const GroupsView& groups, size_t g,
      const std::vector<double>& offsets, int depth, SubCache* cache) {
    const size_t group_size = groups.members[g].size();
    // Materialized only on the paths that need the candidate rows; a
    // cache-hit revisit must stay O(#constraints), not O(#candidates).
    auto make_sub = [&]() {
      NodeProblem sub;
      sub.table = prob.table;
      sub.rows.reserve(group_size);
      sub.ub.reserve(group_size);
      for (RowId pos : groups.members[g]) {
        sub.rows.push_back(prob.rows[pos]);
        sub.ub.push_back(prob.ub[pos]);
      }
      return sub;
    };
    bool small = options_.max_subproblem_size == 0 ||
                 group_size <= options_.max_subproblem_size;
    if (!small || !options_.warm_start) {
      return SolveNode(make_sub(), offsets, depth);
    }
    stats_.recursion_depth = std::max<int64_t>(stats_.recursion_depth, depth);
    if (cache->built && query_.CanUpdateOffsets()) {
      PAQL_RETURN_IF_ERROR(query_.UpdateModelOffsets(offsets, &cache->model));
      ++stats_.warm_model_reuses;
    } else {
      // First visit, or an OR query whose big-M coefficients bake in the
      // offsets: (re)build. The basis still carries over — the column set
      // is identical.
      NodeProblem sub = make_sub();
      CompiledQuery::Segment seg;
      seg.table = sub.table;
      seg.rows = &sub.rows;
      seg.ub_override = &sub.ub;
      PAQL_ASSIGN_OR_RETURN(lp::Model model,
                            query_.BuildModelSegments({seg}, &offsets,
                                                      options_.EffectiveThreads()));
      cache->model = std::move(model);
      cache->built = true;
    }
    PAQL_ASSIGN_OR_RETURN(ilp::IlpSolution sol,
                          SolveModel(cache->model, &cache->warm));
    return RoundMults(sol.x, group_size);
  }

  /// On-the-fly partitioning for recursion: materializes the candidate rows
  /// as a sub-table and quad-tree-partitions it.
  struct NestedGroups {
    std::unique_ptr<NodeProblem> problem;
    GroupsView groups;
    std::unique_ptr<Table> sub_table;
    std::unique_ptr<Table> rep_table;
  };
  Result<NestedGroups> MakeNestedGroups(const NodeProblem& prob) {
    NestedGroups out;
    out.sub_table = std::make_unique<Table>(
        relation::MaterializeRows(*prob.table, prob.rows));
    partition::PartitionOptions popts;
    popts.attributes = partitioning_.attributes;
    popts.size_threshold = options_.max_subproblem_size;
    PAQL_ASSIGN_OR_RETURN(Partitioning nested,
                          partition::PartitionTable(*out.sub_table, popts));
    out.rep_table = std::make_unique<Table>(std::move(nested.representatives));
    out.problem = std::make_unique<NodeProblem>();
    out.problem->table = out.sub_table.get();
    out.problem->rows.resize(prob.rows.size());
    out.problem->ub.resize(prob.rows.size());
    // Order candidates group-by-group; members hold positions.
    size_t pos = 0;
    out.groups.rep_table = out.rep_table.get();
    for (size_t g = 0; g < nested.num_groups(); ++g) {
      std::vector<RowId> members;
      members.reserve(nested.groups[g].size());
      for (RowId sub_row : nested.groups[g]) {
        out.problem->rows[pos] = sub_row;
        out.problem->ub[pos] = prob.ub[sub_row];
        members.push_back(static_cast<RowId>(pos));
        ++pos;
      }
      out.groups.members.push_back(std::move(members));
      out.groups.rep_rows.push_back(static_cast<RowId>(g));
    }
    return out;
  }

  // ------------------------------------------------------------------
  // SKETCH + REFINE over one node problem
  // ------------------------------------------------------------------

  Result<std::vector<int64_t>> SketchAndRefine(
      const NodeProblem& prob, const GroupsView& groups,
      const std::vector<double>& offsets, int depth) {
    size_t m = groups.members.size();
    // Per-representative upper bound: sum of its members' bounds.
    std::vector<double> rep_ub(m, 0.0);
    for (size_t g = 0; g < m; ++g) {
      double total = 0;
      for (RowId pos : groups.members[g]) {
        total += prob.ub[pos];
        if (std::isinf(prob.ub[pos])) total = kInf;
      }
      rep_ub[g] = total;
    }

    std::vector<GroupState> state(m);
    bool sketched = false;

    // --- SKETCH over the representatives. ---
    {
      NodeProblem sketch;
      sketch.table = groups.rep_table;
      sketch.rows = groups.rep_rows;
      sketch.ub = rep_ub;
      auto mults = SolveNode(sketch, offsets, depth);
      if (mults.ok()) {
        for (size_t g = 0; g < m; ++g) state[g].rep_mult = (*mults)[g];
        sketched = true;
      } else if (!mults.status().IsInfeasible()) {
        return mults.status();
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
      Status last = Status::Infeasible("hybrid sketch: no groups");
      for (size_t g : order) {
        auto hybrid = TryHybridSketch(prob, groups, rep_ub, offsets, g);
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
        last = hybrid.status();
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
        state[g].member_mult.assign(groups.members[g].size(), 0);
      } else {
        unrefined.push_back(g);
      }
    }
    rng_.Shuffle(unrefined);
    std::vector<size_t> failed;
    // One model+basis cache per group for this level, shared across the
    // whole backtracking recursion (a group keeps its column set however
    // often it is revisited).
    std::vector<SubCache> cache(m);
    PAQL_ASSIGN_OR_RETURN(
        bool ok, RefineRec(prob, groups, offsets, depth, state, unrefined,
                           /*initial=*/true, &failed, &cache));
    if (!ok) {
      return Status::Infeasible(
          "greedy backtracking failed to refine the sketch package "
          "(possible false infeasibility)");
    }

    // Assemble final multiplicities over prob.rows.
    std::vector<int64_t> out(prob.rows.size(), 0);
    for (size_t g = 0; g < m; ++g) {
      PAQL_CHECK_MSG(state[g].refined, "group left unrefined");
      for (size_t i = 0; i < groups.members[g].size(); ++i) {
        out[groups.members[g][i]] += state[g].member_mult[i];
      }
    }
    return out;
  }

  /// Activities contributed by all groups except `skip_group` under `state`.
  std::vector<double> StateActivities(const NodeProblem& prob,
                                      const GroupsView& groups,
                                      const std::vector<GroupState>& state,
                                      size_t skip_group) const {
    std::vector<RowId> orig_rows;
    std::vector<int64_t> orig_mults;
    std::vector<RowId> rep_rows;
    std::vector<int64_t> rep_mults;
    for (size_t g = 0; g < state.size(); ++g) {
      if (g == skip_group) continue;
      if (state[g].refined) {
        for (size_t i = 0; i < groups.members[g].size(); ++i) {
          if (state[g].member_mult[i] > 0) {
            orig_rows.push_back(prob.rows[groups.members[g][i]]);
            orig_mults.push_back(state[g].member_mult[i]);
          }
        }
      } else if (state[g].rep_mult > 0) {
        rep_rows.push_back(groups.rep_rows[g]);
        rep_mults.push_back(state[g].rep_mult);
      }
    }
    std::vector<double> acts = query_.LeafActivitiesVectorized(
        *prob.table, orig_rows, orig_mults, options_.EffectiveThreads());
    std::vector<double> rep_acts =
        query_.LeafActivitiesVectorized(*groups.rep_table, rep_rows, rep_mults);
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
  Result<bool> RefineRec(const NodeProblem& prob, const GroupsView& groups,
                         const std::vector<double>& outer_offsets, int depth,
                         std::vector<GroupState>& state,
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
      // shifted by the rest of the package plus the outer fixed part.
      std::vector<double> offsets =
          StateActivities(prob, groups, state, /*skip_group=*/g);
      for (size_t i = 0; i < offsets.size(); ++i) {
        offsets[i] += outer_offsets[i];
      }
      auto mults =
          SolveGroupCached(prob, groups, g, offsets, depth, &(*cache)[g]);
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
          bool ok, RefineRec(prob, groups, outer_offsets, depth, next_state,
                             std::move(rest), /*initial=*/false,
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
  Result<HybridResult> TryHybridSketch(const NodeProblem& prob,
                                       const GroupsView& groups,
                                       const std::vector<double>& rep_ub,
                                       const std::vector<double>& offsets,
                                       size_t g) {
    std::vector<RowId> orig_rows;
    std::vector<double> orig_ub;
    for (RowId pos : groups.members[g]) {
      orig_rows.push_back(prob.rows[pos]);
      orig_ub.push_back(prob.ub[pos]);
    }
    std::vector<RowId> other_reps;
    std::vector<double> other_ub;
    for (size_t other = 0; other < groups.members.size(); ++other) {
      if (other == g) continue;
      other_reps.push_back(groups.rep_rows[other]);
      other_ub.push_back(rep_ub[other]);
    }
    CompiledQuery::Segment seg_orig, seg_rep;
    seg_orig.table = prob.table;
    seg_orig.rows = &orig_rows;
    seg_orig.ub_override = &orig_ub;
    seg_rep.table = groups.rep_table;
    seg_rep.rows = &other_reps;
    seg_rep.ub_override = &other_ub;
    PAQL_ASSIGN_OR_RETURN(
        lp::Model model,
        query_.BuildModelSegments({seg_orig, seg_rep}, &offsets,
                                  options_.EffectiveThreads()));
    PAQL_ASSIGN_OR_RETURN(ilp::IlpSolution sol, SolveModel(model));
    HybridResult out;
    out.group_mults = RoundMults(sol.x, orig_rows.size());
    out.rep_mults.assign(groups.members.size(), 0);
    size_t idx = orig_rows.size();
    for (size_t other = 0; other < groups.members.size(); ++other) {
      if (other == g) continue;
      out.rep_mults[other] = static_cast<int64_t>(std::llround(sol.x[idx]));
      ++idx;
    }
    return out;
  }

  const ColumnSource& table_;
  const Partitioning& partitioning_;
  const CompiledQuery& query_;
  const SketchRefineOptions& options_;
  Rng rng_;
  EvalStats stats_;
  int64_t attempts_ = 0;
  int64_t max_attempts_ = 0;
};

}  // namespace

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
