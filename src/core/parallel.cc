#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

namespace paql::core {

using partition::Partitioning;
using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

namespace {

/// The evaluator's fan-out: the explicit num_threads override when set,
/// otherwise the engine-level ExecContext::threads knob.
int ResolveWorkers(const ParallelOptions& options) {
  int requested = options.num_threads > 0 ? options.num_threads
                                          : options.sketch_refine.threads;
  return ClampThreads(requested);
}

/// Per-worker solver settings: each racer / group subproblem is one unit
/// of the fan-out, so nested morsel parallelism and the concurrent
/// branch-and-bound stay off inside it (the thread budget is already
/// spent at this level).
SketchRefineOptions SerialInner(const SketchRefineOptions& base) {
  SketchRefineOptions opts = base;
  opts.threads = 1;
  return opts;
}

}  // namespace

const char* ParallelModeName(ParallelMode mode) {
  switch (mode) {
    case ParallelMode::kGroupParallel: return "group_parallel";
    case ParallelMode::kOrderingRace: return "ordering_race";
  }
  return "?";
}

ParallelSketchRefineEvaluator::ParallelSketchRefineEvaluator(
    const ColumnSource& table, const Partitioning& partitioning,
    ParallelOptions options)
    : table_(&table),
      partitioning_(&partitioning),
      options_(std::move(options)) {
  PAQL_CHECK_MSG(partitioning.gid.size() == table.num_rows(),
                 "partitioning does not cover the table");
}

Result<EvalResult> ParallelSketchRefineEvaluator::Evaluate(
    const lang::PackageQuery& query) const {
  PAQL_ASSIGN_OR_RETURN(
      CompiledQuery cq, CompiledQuery::Compile(query, table_->schema()));
  return Evaluate(cq);
}

Result<EvalResult> ParallelSketchRefineEvaluator::Evaluate(
    const CompiledQuery& query) const {
  switch (options_.mode) {
    case ParallelMode::kGroupParallel:
      return EvaluateGroupParallel(query);
    case ParallelMode::kOrderingRace:
      return EvaluateOrderingRace(query);
  }
  return Status::InvalidArgument("unknown parallel mode");
}

// ---------------------------------------------------------------------------
// kOrderingRace
// ---------------------------------------------------------------------------

Result<EvalResult> ParallelSketchRefineEvaluator::EvaluateOrderingRace(
    const CompiledQuery& query) const {
  Stopwatch total;
  const int threads = ResolveWorkers(options_);
  // The race needs its own cancel flag (the winner stops the losers), but
  // the caller may have supplied one too; a monitor bridges it so external
  // cancellation still stops every racer.
  const std::atomic<bool>* external = options_.sketch_refine.cancel;
  std::atomic<bool> cancel{false};
  std::mutex mu;
  std::optional<EvalResult> winner;
  Status first_error = Status::OK();
  int infeasible_count = 0;

  auto racer = [&](int i) {
    SketchRefineOptions opts = SerialInner(options_.sketch_refine);
    opts.seed = options_.sketch_refine.seed + static_cast<uint64_t>(i);
    opts.cancel = &cancel;
    SketchRefineEvaluator evaluator(*table_, *partitioning_, opts);
    auto result = evaluator.Evaluate(query);
    std::lock_guard<std::mutex> lock(mu);
    if (result.ok()) {
      if (!winner.has_value()) {
        winner = std::move(*result);
        cancel.store(true, std::memory_order_relaxed);
      }
      return;
    }
    if (result.status().IsInfeasible()) {
      ++infeasible_count;
    } else if (first_error.ok() &&
               !(cancel.load(std::memory_order_relaxed) &&
                 result.status().IsResourceExhausted())) {
      // Real failures are reported; cancellation-induced aborts are not.
      first_error = result.status();
    }
  };

  // Racers borrow shared-pool workers (the calling thread participates);
  // the only raw thread left is the cancellation monitor, a sleeping
  // poller that bridges the caller's flag into the race.
  std::atomic<bool> race_done{false};
  std::thread monitor;
  if (external != nullptr) {
    monitor = std::thread([&] {
      while (!race_done.load(std::memory_order_relaxed)) {
        if (external->load(std::memory_order_relaxed)) {
          cancel.store(true, std::memory_order_relaxed);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ThreadPool::Global().ParallelFor(
      static_cast<size_t>(threads), 1, threads,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) racer(static_cast<int>(i));
      });
  race_done.store(true, std::memory_order_relaxed);
  if (monitor.joinable()) monitor.join();

  // A completed winner is returned even when cancellation landed late —
  // the work is done and the package is valid.
  if (winner.has_value()) {
    winner->stats.threads_used = threads;
    winner->stats.wall_seconds = total.ElapsedSeconds();
    return std::move(*winner);
  }
  if (external != nullptr && external->load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted("evaluation cancelled");
  }
  if (!first_error.ok()) return first_error;
  return Status::Infeasible(
      StrCat("all ", threads, " refinement orderings reported infeasible (",
             infeasible_count, " certain)"));
}

// ---------------------------------------------------------------------------
// kGroupParallel
// ---------------------------------------------------------------------------

Result<EvalResult> ParallelSketchRefineEvaluator::EvaluateGroupParallel(
    const CompiledQuery& query) const {
  Stopwatch total;
  const int threads = ResolveWorkers(options_);
  EvalStats stats;

  // The fallback inherits whatever the speculative attempt already paid for
  // — the base scan and any sketch/refine ILP work — so the reported stats
  // cover the whole call, not just the sequential rerun.
  auto fall_back = [&](const EvalStats& partial) -> Result<EvalResult> {
    SketchRefineEvaluator sequential(*table_, *partitioning_,
                                     options_.sketch_refine);
    auto result = sequential.Evaluate(query);
    if (result.ok()) {
      result->stats.translate_seconds += partial.translate_seconds;
      result->stats.solve_seconds += partial.solve_seconds;
      result->stats.ilp_solves += partial.ilp_solves;
      result->stats.lp_iterations += partial.lp_iterations;
      result->stats.bnb_nodes += partial.bnb_nodes;
      result->stats.warm_lp_solves += partial.warm_lp_solves;
      result->stats.pricing_candidate_hits += partial.pricing_candidate_hits;
      result->stats.bound_flips += partial.bound_flips;
      result->stats.dse_pivots += partial.dse_pivots;
      result->stats.rc_fixed_vars += partial.rc_fixed_vars;
      result->stats.presolve_fixed_vars += partial.presolve_fixed_vars;
      result->stats.cut_seconds += partial.cut_seconds;
      result->stats.cut_rounds += partial.cut_rounds;
      result->stats.cuts_added += partial.cuts_added;
      result->stats.parallel_bnb_nodes += partial.parallel_bnb_nodes;
      result->stats.peak_memory_bytes = std::max(
          result->stats.peak_memory_bytes, partial.peak_memory_bytes);
      result->stats.parallel_fallback = true;
      result->stats.threads_used = threads;
      result->stats.wall_seconds = total.ElapsedSeconds();
    }
    return result;
  };

  // Group the base relation by the offline partitioning (as the sequential
  // driver does).
  Stopwatch translate_watch;
  std::vector<std::vector<RowId>> group_rows(partitioning_->num_groups());
  std::vector<RowId> base = query.ComputeBaseRowsVectorized(*table_, threads);
  for (RowId r : base) {
    group_rows[partitioning_->gid[r]].push_back(r);
  }
  std::vector<size_t> active;  // groups with candidates
  for (size_t g = 0; g < group_rows.size(); ++g) {
    if (!group_rows[g].empty()) active.push_back(g);
  }
  stats.translate_seconds = translate_watch.ElapsedSeconds();
  if (active.empty()) return fall_back(stats);

  // --- SKETCH (one ILP, not parallelized: it is small by design). ---
  std::vector<RowId> rep_rows;
  std::vector<double> rep_ub;
  rep_rows.reserve(active.size());
  for (size_t g : active) {
    rep_rows.push_back(static_cast<RowId>(g));
    double ub = query.per_tuple_ub();
    rep_ub.push_back(std::isinf(ub)
                         ? ub
                         : ub * static_cast<double>(group_rows[g].size()));
  }
  CompiledQuery::Segment seg;
  seg.table = &partitioning_->representatives;
  seg.rows = &rep_rows;
  seg.ub_override = &rep_ub;
  PAQL_ASSIGN_OR_RETURN(lp::Model sketch_model,
                        query.BuildModelSegments({seg}, nullptr));
  auto sketch =
      ilp::SolveIlp(sketch_model, options_.sketch_refine.limits,
                    options_.sketch_refine.EffectiveBranchAndBound());
  if (!sketch.ok()) {
    // Infeasible sketch: the sequential path owns the hybrid-sketch and
    // backtracking machinery.
    if (sketch.status().IsInfeasible()) return fall_back(stats);
    return sketch.status();
  }
  stats.Accumulate(sketch->stats);

  std::vector<int64_t> rep_mult(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    rep_mult[i] = std::llround(sketch->x[i]);
  }

  // Total sketch activities; per-group offsets subtract the group's own
  // representative contribution (activities are linear in the package).
  std::vector<RowId> picked_reps;
  std::vector<int64_t> picked_mults;
  for (size_t i = 0; i < active.size(); ++i) {
    if (rep_mult[i] > 0) {
      picked_reps.push_back(rep_rows[i]);
      picked_mults.push_back(rep_mult[i]);
    }
  }
  std::vector<double> total_acts = query.LeafActivitiesVectorized(
      partitioning_->representatives, picked_reps, picked_mults);

  // --- Speculative parallel REFINE: one subproblem per picked group. ---
  struct GroupOutcome {
    Status status = Status::OK();
    std::vector<int64_t> mults;  // per candidate of the group
    ilp::IlpStats ilp;
  };
  std::vector<size_t> picked_groups;  // indices into `active`
  for (size_t i = 0; i < active.size(); ++i) {
    if (rep_mult[i] > 0) picked_groups.push_back(i);
  }
  std::vector<GroupOutcome> outcomes(picked_groups.size());

  // Per-group refine subproblems are the units of the fan-out: one morsel
  // each, claimed off the shared pool (the calling thread participates),
  // with morsel parallelism and the concurrent search disabled inside.
  const SketchRefineOptions inner = SerialInner(options_.sketch_refine);
  auto run_job = [&](size_t job) {
    if (options_.sketch_refine.Cancelled()) {
      outcomes[job].status = Status::ResourceExhausted("evaluation cancelled");
      return;
    }
    size_t i = picked_groups[job];
    size_t g = active[i];
    GroupOutcome& out = outcomes[job];
    // Offsets: everything in the sketch except this group's rep.
    std::vector<double> offsets = query.LeafActivitiesVectorized(
        partitioning_->representatives, {rep_rows[i]}, {rep_mult[i]});
    for (size_t k = 0; k < offsets.size(); ++k) {
      offsets[k] = total_acts[k] - offsets[k];
    }
    CompiledQuery::BuildOptions build;
    build.activity_offset = &offsets;
    auto model = query.BuildModel(*table_, group_rows[g], build);
    if (!model.ok()) {
      out.status = model.status();
      return;  // keep draining the queue; assembly reports the failure
    }
    auto sol = ilp::SolveIlp(*model, inner.limits,
                             inner.EffectiveBranchAndBound());
    if (!sol.ok()) {
      out.status = sol.status();
      return;  // other groups may still be useful for diagnostics
    }
    out.ilp = sol->stats;
    out.mults.resize(group_rows[g].size());
    for (size_t k = 0; k < group_rows[g].size(); ++k) {
      out.mults[k] = std::llround(sol->x[k]);
    }
  };
  ThreadPool::Global().ParallelFor(
      picked_groups.size(), 1, threads, [&](size_t begin, size_t end) {
        for (size_t job = begin; job < end; ++job) run_job(job);
      });

  // Charge every completed group solve to the stats first, so a failure in
  // one group does not silently discard the others' solver work.
  for (size_t job = 0; job < picked_groups.size(); ++job) {
    if (outcomes[job].status.ok()) stats.Accumulate(outcomes[job].ilp);
  }

  // Any per-group failure, or a combined package that misses the global
  // constraints, falls back to the sequential algorithm.
  EvalResult result;
  for (size_t job = 0; job < picked_groups.size(); ++job) {
    const GroupOutcome& out = outcomes[job];
    if (!out.status.ok()) {
      if (out.status.IsInfeasible() || out.status.IsResourceExhausted()) {
        return fall_back(stats);
      }
      return out.status;
    }
    size_t g = active[picked_groups[job]];
    for (size_t k = 0; k < group_rows[g].size(); ++k) {
      if (out.mults[k] > 0) {
        result.package.rows.push_back(group_rows[g][k]);
        result.package.multiplicity.push_back(out.mults[k]);
      }
    }
  }
  result.package.Normalize();
  if (!query.GlobalsSatisfied(query.LeafActivitiesVectorized(
          *table_, result.package.rows, result.package.multiplicity))) {
    // Local refinements conflicted — the failure mode §4.5 predicts.
    return fall_back(stats);
  }
  stats.groups_refined = static_cast<int64_t>(picked_groups.size());
  result.objective = query.ObjectiveValue(*table_, result.package.rows,
                                          result.package.multiplicity);
  result.stats = stats;
  result.stats.threads_used = threads;
  result.stats.wall_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace paql::core
