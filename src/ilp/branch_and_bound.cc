#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "lp/presolve.h"

namespace paql::ilp {
namespace {

/// The context-level warm_start toggle overrides the simplex-level one so
/// one flag controls the whole solver stack (node LPs and the root-cut
/// separation LP alike).
lp::SimplexOptions SimplexOptionsFor(const BranchAndBoundOptions& options) {
  lp::SimplexOptions simplex = options.simplex;
  simplex.warm_start = options.warm_start;
  return simplex;
}

/// Trees smaller than this many integer columns are searched by one worker
/// even when threads are granted: sharing a two-level tree across workers
/// costs more in solver construction and queue traffic than the search
/// itself.
constexpr int kMinVarsForParallelSearch = 64;

/// Most-fractional branching ("maximum infeasibility"): the integer
/// variable farthest from an integer value, or -1 when `x` is integral
/// within `tol`.
int PickBranchVar(const lp::Model& model, const std::vector<double>& x,
                  double tol) {
  int best = -1;
  double best_dist = tol;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (!model.is_integer()[j]) continue;
    double frac = x[j] - std::floor(x[j]);
    double dist = std::min(frac, 1.0 - frac);  // distance to integer
    if (dist > best_dist) {
      best_dist = dist;
      best = j;
    }
  }
  return best;
}

/// The budget failure an LP solve that stopped on a limit reports.
Status LpLimitStatus(lp::LpStatus status) {
  return status == lp::LpStatus::kTimeLimit
             ? Status::ResourceExhausted("LP time limit during node solve")
             : Status::ResourceExhausted("LP iteration limit");
}

/// The branch-and-bound search. Works in "internal minimize" space:
/// objectives are multiplied by `sign` (+1 minimize, -1 maximize) so that
/// smaller is always better.
///
/// The root (LP solve, rounding and diving heuristics, reduced-cost
/// fixing) runs on the calling thread. Its open children then go onto a
/// work deque of frames that `threads` workers drain, each with its own
/// SimplexSolver: one worker drains it on the calling thread with the root
/// solver, more share it through the process-wide pool. Workers pop
/// newest-first (the depth-first, warm-basis-friendly order) and prune
/// against a shared incumbent. Every frame carries the bound changes on
/// its path from the root plus its parent's basis, so any worker can
/// evaluate any frame: it resets its solver to the (post-fixing) root
/// bounds, applies the path, restores the parent basis, and re-optimizes
/// with the dual simplex.
class Searcher {
 public:
  Searcher(const lp::Model& model, const SolverLimits& limits,
           const BranchAndBoundOptions& options, IlpWarmStart* warm,
           int threads)
      : model_(model),
        limits_(limits),
        options_(options),
        warm_(options.warm_start ? warm : nullptr),
        threads_(threads),
        deadline_(limits.time_limit_s),
        sign_(model.sense() == lp::Sense::kMaximize ? -1.0 : 1.0),
        incumbent_obj_atomic_(std::numeric_limits<double>::infinity()) {}

  Result<IlpSolution> Run() {
    Stopwatch watch;
    Status status = Search();
    stats_.wall_seconds = watch.ElapsedSeconds();
    stats_.peak_memory_bytes = EstimatedBytes();
    // A budget overrun fails the solve even with an incumbent in hand: the
    // paper's evaluators require the solver's (near-)optimal answer, and
    // CPLEX aborting mid-search is reported as a failure.
    if (!status.ok()) return status;
    if (!has_incumbent_) {
      return Status::Infeasible("no feasible package assignment exists");
    }
    IlpSolution solution;
    solution.x = incumbent_;
    solution.objective = sign_ * incumbent_obj_;
    solution.stats = Stats();
    return solution;
  }

  /// Statistics of the search so far; meaningful after Run() even when it
  /// returned a failure status (infeasible / budget exceeded).
  IlpStats Stats() const {
    IlpStats out = stats_;
    out.nodes = nodes_.load(std::memory_order_relaxed);
    out.parallel_nodes = threads_ > 1 ? out.nodes : 0;
    return out;
  }

 private:
  struct BoundChange {
    int var;
    double lb, ub;
    bool operator==(const BoundChange&) const = default;
  };

  /// A bound change a worker's solver holds, with the bounds it replaced.
  struct AppliedChange {
    BoundChange change;
    double prev_lb, prev_ub;
  };

  /// One open node: the bound changes on its root path and the basis its
  /// parent LP solved to (shared between siblings).
  struct Frame {
    std::vector<BoundChange> path;
    std::shared_ptr<const lp::Basis> parent_basis;
    double parent_bound = 0;  // internal-minimize LP bound of the parent
    uint64_t seq = 0;         // creation order, the incumbent tie-break
  };

  size_t EstimatedBytes() const {
    return base_bytes_ +
           static_cast<size_t>(nodes_.load(std::memory_order_relaxed)) *
               (SolverLimits::kBytesPerOpenNode / 2);
  }

  Status CheckBudgets() const {
    if (limits_.time_limit_s > 0 && deadline_.Expired()) {
      return Status::ResourceExhausted(
          StrCat("ILP time limit of ", limits_.time_limit_s, "s exceeded"));
    }
    int64_t nodes = nodes_.load(std::memory_order_relaxed);
    if (limits_.max_nodes > 0 && nodes >= limits_.max_nodes) {
      return Status::ResourceExhausted(
          StrCat("ILP node limit of ", limits_.max_nodes, " exceeded"));
    }
    if (limits_.memory_budget_bytes > 0 &&
        EstimatedBytes() > limits_.memory_budget_bytes) {
      return Status::ResourceExhausted(
          StrCat("ILP memory budget of ",
                 FormatBytes(limits_.memory_budget_bytes), " exceeded (",
                 FormatBytes(EstimatedBytes()), " in use; solver thrashing)"));
    }
    return Status::OK();
  }

  double IncumbentCutoff(double obj) const {
    return obj - options_.gap_tol * (1.0 + std::abs(obj));
  }

  /// Try to install `x` (snapped to integers) as the shared incumbent.
  /// Acceptance is strict improvement by 1e-12, with the frame sequence
  /// number breaking near-ties deterministically, so which of two
  /// equally-good solutions wins does not depend on which worker got there
  /// first. The root's heuristics offer with sequence 0.
  void OfferIncumbent(const std::vector<double>& x, uint64_t seq) {
    std::vector<double> snapped = x;
    for (int j = 0; j < model_.num_vars(); ++j) {
      if (model_.is_integer()[j]) snapped[j] = std::round(snapped[j]);
    }
    if (!model_.IsFeasible(snapped, 1e-6)) return;
    double obj = sign_ * model_.ObjectiveValue(snapped);
    std::lock_guard<std::mutex> lock(incumbent_mu_);
    bool better = !has_incumbent_ || obj < incumbent_obj_ - 1e-12;
    bool tied_earlier = has_incumbent_ && !better &&
                        obj < incumbent_obj_ + 1e-12 && seq < incumbent_seq_;
    if (better || tied_earlier) {
      has_incumbent_ = true;
      incumbent_obj_ = obj;
      incumbent_seq_ = seq;
      incumbent_ = std::move(snapped);
      incumbent_obj_atomic_.store(obj, std::memory_order_relaxed);
    }
  }

  /// The basis a node's children re-optimize from (null when warm starting
  /// is off).
  std::shared_ptr<const lp::Basis> ChildBasis(
      const lp::SimplexSolver& solver) const {
    if (!options_.warm_start) return nullptr;
    return std::make_shared<const lp::Basis>(solver.SnapshotBasis());
  }

  /// Record a failure (first one wins) and wake every waiting worker.
  void Abort(Status status) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (abort_status_.ok()) abort_status_ = status;
    aborted_.store(true, std::memory_order_relaxed);
    queue_cv_.notify_all();
  }

  /// Queue the two children of a node on `path` whose LP solution puts
  /// branch variable `var` at fractional value `v`: [lb, floor v] and
  /// [floor v + 1, ub] under `solver`'s current bounds. The far child goes
  /// in first, so the nearest child is popped first; an empty child
  /// (branching at a bound) is not queued.
  void Branch(const lp::SimplexSolver& solver,
              const std::vector<BoundChange>& path, int var, double v,
              double bound, std::shared_ptr<const lp::Basis> basis) {
    double floor_v = std::floor(v);
    Frame down, up;
    down.path = path;
    down.path.push_back({var, solver.var_lb(var), floor_v});
    up.path = path;
    up.path.push_back({var, floor_v + 1.0, solver.var_ub(var)});
    down.parent_basis = basis;
    up.parent_basis = std::move(basis);
    down.parent_bound = up.parent_bound = bound;
    down.seq = next_seq_.fetch_add(2, std::memory_order_relaxed);
    up.seq = down.seq + 1;
    bool down_first = (v - floor_v) <= 0.5;
    Frame* order[2] = {down_first ? &up : &down, down_first ? &down : &up};
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (Frame* child : order) {
      if (child->path.back().lb > child->path.back().ub) continue;
      ++outstanding_;
      queue_.push_back(std::move(*child));
    }
    queue_cv_.notify_all();
  }

  /// Mark one popped frame fully processed; wakes everyone when the last
  /// one finishes so idle workers can exit.
  void FinishFrame() {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (--outstanding_ == 0) queue_cv_.notify_all();
  }

  /// Pop the next frame, waiting while the deque is empty but other
  /// workers may still produce children. Returns false when the search is
  /// over (drained or aborted).
  bool PopFrame(Frame* out) {
    std::unique_lock<std::mutex> lock(queue_mu_);
    for (;;) {
      if (aborted_.load(std::memory_order_relaxed)) return false;
      if (!queue_.empty()) {
        *out = std::move(queue_.back());
        queue_.pop_back();
        return true;
      }
      if (outstanding_ == 0) return false;
      queue_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }

  /// One worker: drain frames until the tree is exhausted or a budget
  /// trips. `solver` starts at the post-fixing root bounds.
  void WorkerLoop(lp::SimplexSolver* solver) {
    IlpStats local;
    std::vector<AppliedChange> applied;  // the path `solver` is set to
    Frame frame;
    while (PopFrame(&frame)) {
      // Node boundary = the cooperative preemption point: a batch-class
      // solve steps aside here while interactive queries are in flight.
      // PopFrame released the queue lock, so waiting blocks only this
      // worker.
      PriorityGate::Global().YieldIfContended();
      Status budget = CheckBudgets();
      if (!budget.ok()) {
        FinishFrame();
        Abort(budget);
        break;
      }
      // The parent LP bound is a valid bound for the child. No incumbent
      // yet = +inf sentinel; the cutoff arithmetic would turn that into
      // NaN, so the prune tests are guarded on finiteness.
      double inc = incumbent_obj_atomic_.load(std::memory_order_relaxed);
      if (std::isfinite(inc) && frame.parent_bound >= IncumbentCutoff(inc)) {
        FinishFrame();
        continue;
      }
      nodes_.fetch_add(1, std::memory_order_relaxed);
      local.max_depth = std::max<int64_t>(
          local.max_depth, static_cast<int64_t>(frame.path.size()));
      // Rebase the solver onto this frame: undo the previous frame's
      // bound changes past the paths' common prefix, newest first (so a
      // variable branched on twice gets its earlier bounds back), apply
      // the rest of this one's path, re-seed the parent basis. A
      // depth-first pop shares all but the last change with the previous
      // frame. The child differs from its parent by one variable bound, so
      // the dual simplex re-optimizes in a few pivots.
      size_t keep = 0;
      while (keep < applied.size() && keep < frame.path.size() &&
             applied[keep].change == frame.path[keep]) {
        ++keep;
      }
      for (; applied.size() > keep; applied.pop_back()) {
        const AppliedChange& undo = applied.back();
        solver->SetVarBounds(undo.change.var, undo.prev_lb, undo.prev_ub);
      }
      for (size_t i = keep; i < frame.path.size(); ++i) {
        const BoundChange& bc = frame.path[i];
        applied.push_back(
            {bc, solver->var_lb(bc.var), solver->var_ub(bc.var)});
        solver->SetVarBounds(bc.var, bc.lb, bc.ub);
      }
      if (frame.parent_basis != nullptr && frame.parent_basis->valid) {
        solver->RestoreBasis(*frame.parent_basis);
      }
      lp::LpResult lp = solver->Solve(deadline_);
      local.AddLp(lp);
      if (lp.status == lp::LpStatus::kTimeLimit ||
          lp.status == lp::LpStatus::kIterationLimit) {
        FinishFrame();
        Abort(LpLimitStatus(lp.status));
        break;
      }
      // kInfeasible and (defensively: a bounded-variable child LP cannot
      // be unbounded when the root was not) kUnbounded children are pruned.
      if (lp.status == lp::LpStatus::kOptimal) {
        double bound = sign_ * lp.objective;
        inc = incumbent_obj_atomic_.load(std::memory_order_relaxed);
        if (!std::isfinite(inc) || bound < IncumbentCutoff(inc)) {
          int var = PickBranchVar(model_, lp.x, options_.integrality_tol);
          if (var < 0) {
            OfferIncumbent(lp.x, frame.seq);
          } else {
            Branch(*solver, frame.path, var, lp.x[var], bound,
                   ChildBasis(*solver));
          }
        }
      }
      FinishFrame();
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.AddLpCounters(local);
    stats_.max_depth = std::max(stats_.max_depth, local.max_depth);
  }

  /// Root reduced-cost fixing: an integer variable nonbasic at a bound in
  /// the root LP with reduced cost d can only reach its next integer value
  /// at objective cost >= root_bound + |d|; when that already lands past
  /// the incumbent cutoff, the variable can never flip in any improving
  /// solution, so it is fixed at its bound permanently (shrinking every
  /// child LP's active column set). Called only on the root solver before
  /// any frame is queued, so every worker copies the post-fixing bounds as
  /// its root state and no frame's path can undo a fix.
  void ApplyReducedCostFixing(lp::SimplexSolver* solver) {
    if (!options_.reduced_cost_fixing || !root_data_valid_ || !has_incumbent_) {
      return;
    }
    double gap = IncumbentCutoff(incumbent_obj_) - root_bound_internal_;
    if (gap < 0) gap = 0;  // numerically tied incumbent and root bound
    const double margin = 1e-9 * (1.0 + std::abs(root_bound_internal_));
    using VarStatus = lp::SimplexSolver::VarStatus;
    for (int j = 0; j < model_.num_vars(); ++j) {
      if (!model_.is_integer()[j]) continue;
      double lbj = solver->var_lb(j), ubj = solver->var_ub(j);
      if (lbj == ubj) continue;  // already fixed
      auto st = static_cast<VarStatus>(root_status_[static_cast<size_t>(j)]);
      double d = root_reduced_costs_[static_cast<size_t>(j)];
      // The d > gap test assumes the cheapest move away from the bound is
      // a full unit step — true only when the bound itself is integral
      // (fixing at a fractional bound would not even be integer-feasible,
      // and the step to the nearest integer can be < 1, making the proof
      // invalid). Presolve rounds integer bounds inward, so fractional
      // bounds only appear with presolve off; skip those variables.
      if (st == VarStatus::kAtLower && lbj == std::floor(lbj) &&
          d > gap + margin) {
        solver->SetVarBounds(j, lbj, lbj);
        ++stats_.rc_fixed_vars;
      } else if (st == VarStatus::kAtUpper && ubj == std::floor(ubj) &&
                 -d > gap + margin) {
        solver->SetVarBounds(j, ubj, ubj);
        ++stats_.rc_fixed_vars;
      }
    }
  }

  /// Diving heuristic on the root solver: repeatedly fix the most
  /// fractional variable to its nearest integer and re-solve, hoping to
  /// land on a feasible integer point quickly. All bound changes are
  /// rolled back before returning.
  void Dive(lp::SimplexSolver* solver, const std::vector<double>& root_x) {
    std::vector<std::tuple<int, double, double>> undo;
    std::vector<double> x = root_x;
    for (int depth = 0; depth < options_.dive_max_depth; ++depth) {
      int j = PickBranchVar(model_, x, options_.integrality_tol);
      if (j < 0) {
        OfferIncumbent(x, 0);
        break;
      }
      double target = std::round(x[j]);
      target = std::clamp(target, solver->var_lb(j), solver->var_ub(j));
      undo.emplace_back(j, solver->var_lb(j), solver->var_ub(j));
      solver->SetVarBounds(j, target, target);
      lp::LpResult lp = solver->Solve(deadline_);
      stats_.AddLp(lp);
      if (lp.status != lp::LpStatus::kOptimal) break;
      x = lp.x;
    }
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      solver->SetVarBounds(std::get<0>(*it), std::get<1>(*it),
                           std::get<2>(*it));
    }
  }

  /// Ends a search that ran out of open nodes. The budgets are checked
  /// once more, so a search that spent its whole node budget fails like
  /// one that needed more.
  Status Finish() {
    PAQL_RETURN_IF_ERROR(CheckBudgets());
    stats_.proven_optimal = has_incumbent_;
    return Status::OK();
  }

  Status Search() {
    lp::SimplexSolver root_solver(model_, SimplexOptionsFor(options_));
    base_bytes_ = root_solver.ApproximateBytes() *
                      static_cast<size_t>(threads_) +
                  model_.ApproximateBytes();
    PAQL_RETURN_IF_ERROR(CheckBudgets());
    nodes_.fetch_add(1, std::memory_order_relaxed);
    // Seed the root LP from the previous solve's root basis (ignored on
    // dimension mismatch — e.g. a different cut count).
    if (warm_ != nullptr) root_solver.RestoreBasis(warm_->root_basis);
    lp::LpResult lp = root_solver.Solve(deadline_);
    stats_.AddLp(lp);
    if (warm_ != nullptr) warm_->root_basis = root_solver.SnapshotBasis();
    if (lp.status == lp::LpStatus::kTimeLimit ||
        lp.status == lp::LpStatus::kIterationLimit) {
      return LpLimitStatus(lp.status);
    }
    if (lp.status == lp::LpStatus::kUnbounded) {
      return Status::Unbounded("ILP relaxation is unbounded");
    }
    if (lp.status != lp::LpStatus::kOptimal) {
      return Finish();  // infeasible root: no package exists
    }
    double bound = sign_ * lp.objective;
    stats_.root_bound = lp.objective;
    if (options_.reduced_cost_fixing && model_.num_integer_vars() > 0) {
      // Capture the root duals before any heuristic pivots the solver
      // away from the root-optimal basis.
      root_bound_internal_ = bound;
      root_reduced_costs_ = root_solver.ReducedCosts();
      root_status_ = root_solver.SnapshotBasis().status;
      root_data_valid_ = true;
    }
    if (options_.enable_rounding_heuristic) OfferIncumbent(lp.x, 0);
    // The rounding incumbent may already prove columns immovable.
    ApplyReducedCostFixing(&root_solver);
    if (has_incumbent_ && bound >= IncumbentCutoff(incumbent_obj_)) {
      return Finish();
    }
    int branch_var = PickBranchVar(model_, lp.x, options_.integrality_tol);
    if (branch_var < 0) {
      OfferIncumbent(lp.x, 0);
      return Finish();
    }
    // The basis snapshot must precede the dive, which pivots the solver
    // away from the root's optimal basis.
    std::shared_ptr<const lp::Basis> root_basis = ChildBasis(root_solver);
    if (options_.enable_diving_heuristic) {
      Dive(&root_solver, lp.x);
      // A dive incumbent tightens the gap; nothing is queued yet, so
      // fixing here is as permanent as at the root.
      ApplyReducedCostFixing(&root_solver);
    }
    Branch(root_solver, {}, branch_var, lp.x[branch_var], bound,
           std::move(root_basis));

    if (threads_ == 1) {
      WorkerLoop(&root_solver);
    } else {
      // Each further worker gets its own simplex instance set to the
      // post-fixing root bounds, copied before worker 0 starts changing
      // the root solver's; worker 0 reuses the root solver (and its basis).
      std::vector<double> root_lb(static_cast<size_t>(model_.num_vars()));
      std::vector<double> root_ub(root_lb.size());
      for (int j = 0; j < model_.num_vars(); ++j) {
        root_lb[static_cast<size_t>(j)] = root_solver.var_lb(j);
        root_ub[static_cast<size_t>(j)] = root_solver.var_ub(j);
      }
      ThreadPool::Global().ParallelFor(
          static_cast<size_t>(threads_), 1, threads_,
          [&](size_t begin, size_t end) {
            for (size_t w = begin; w < end; ++w) {
              if (w == 0) {
                WorkerLoop(&root_solver);
                continue;
              }
              lp::SimplexSolver solver(model_, SimplexOptionsFor(options_));
              for (int j = 0; j < model_.num_vars(); ++j) {
                solver.SetVarBounds(j, root_lb[static_cast<size_t>(j)],
                                    root_ub[static_cast<size_t>(j)]);
              }
              WorkerLoop(&solver);
            }
          });
    }
    if (aborted_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      return abort_status_;
    }
    return Finish();
  }

  const lp::Model& model_;
  SolverLimits limits_;
  BranchAndBoundOptions options_;
  IlpWarmStart* warm_;  // not owned; null when warm starting is off
  int threads_;
  Deadline deadline_;
  double sign_;
  size_t base_bytes_ = 0;

  // Counters. Workers bump `nodes_` (the budget check reads it) and merge
  // the rest into `stats_` under `stats_mu_` when they exit.
  IlpStats stats_;
  std::atomic<int64_t> nodes_{0};
  std::mutex stats_mu_;

  // Shared incumbent.
  std::mutex incumbent_mu_;
  bool has_incumbent_ = false;
  double incumbent_obj_ = 0;
  uint64_t incumbent_seq_ = 0;
  std::vector<double> incumbent_;
  std::atomic<double> incumbent_obj_atomic_;

  // Shared work deque.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Frame> queue_;
  size_t outstanding_ = 0;  // popped-or-queued frames not yet finished
  std::atomic<bool> aborted_{false};
  Status abort_status_;
  std::atomic<uint64_t> next_seq_{1};

  // Root LP data for reduced-cost fixing (internal minimize space).
  bool root_data_valid_ = false;
  double root_bound_internal_ = 0;
  std::vector<double> root_reduced_costs_;
  std::vector<uint8_t> root_status_;
};

/// Root cut loop (cut-and-branch): separate valid inequalities at the LP
/// optimum, append them, re-solve, repeat. Returns the augmented model and
/// counts the cuts, rounds and LP work in `stats`; on any LP hiccup it
/// stops early and the search proceeds with whatever cuts were added so far
/// (correctness never depends on cuts).
lp::Model AddRootCuts(const lp::Model& model,
                      const BranchAndBoundOptions& options,
                      const Deadline& deadline, IlpWarmStart* warm,
                      IlpStats* stats) {
  lp::Model augmented = model;
  for (int round = 0; round < options.cuts.max_rounds; ++round) {
    if (deadline.Expired()) break;
    lp::SimplexSolver solver(augmented, SimplexOptionsFor(options));
    if (round == 0 && warm != nullptr && options.warm_start) {
      // The separation LP is the same root LP the previous solve ended on
      // whenever no cuts were added then; re-optimize from its basis.
      // (Once cuts ARE added, the stored basis is sized for the augmented
      // model and this restore degrades to a cold start — acceptable, since
      // the Searcher's root restore still matches when consecutive solves
      // separate the same number of cuts.)
      solver.RestoreBasis(warm->root_basis);
    }
    lp::LpResult lp = solver.Solve(deadline);
    stats->AddLp(lp);
    if (lp.status != lp::LpStatus::kOptimal) break;
    // Nothing to separate at an integral point.
    if (PickBranchVar(augmented, lp.x, options.integrality_tol) < 0) break;
    std::vector<Cut> cuts = SeparateCuts(augmented, lp.x, options.cuts);
    if (cuts.empty()) break;
    for (Cut& cut : cuts) {
      if (augmented.AddRow(std::move(cut.row)).ok()) ++stats->cuts_added;
    }
    ++stats->cut_rounds;
  }
  return augmented;
}

/// Run the branch-and-bound search over `model` with the granted workers,
/// or with one when the model is below the size floor.
Result<IlpSolution> RunSearch(const lp::Model& model,
                              const SolverLimits& limits,
                              const BranchAndBoundOptions& options,
                              IlpWarmStart* warm, IlpStats* stats_out) {
  int threads = ClampThreads(options.threads);
  if (model.num_integer_vars() < kMinVarsForParallelSearch) threads = 1;
  Searcher searcher(model, limits, options, warm, threads);
  auto solution = searcher.Run();
  if (stats_out) *stats_out = searcher.Stats();
  return solution;
}

/// Cut-and-branch over a (possibly presolved) model.
Result<IlpSolution> SolveWithCuts(const lp::Model& model,
                                  const SolverLimits& limits,
                                  const BranchAndBoundOptions& options,
                                  IlpWarmStart* warm, IlpStats* stats_out) {
  if (!options.cuts.enable || model.num_integer_vars() == 0 ||
      model.num_rows() == 0) {
    return RunSearch(model, limits, options, warm, stats_out);
  }
  Stopwatch cut_watch;
  Deadline deadline(limits.time_limit_s);
  IlpStats cut_stats;
  lp::Model augmented = AddRootCuts(model, options, deadline, warm, &cut_stats);
  double cut_seconds = cut_watch.ElapsedSeconds();
  SolverLimits search_limits = limits;
  if (search_limits.time_limit_s > 0) {
    search_limits.time_limit_s =
        std::max(1e-3, search_limits.time_limit_s - cut_seconds);
  }
  auto solution = RunSearch(augmented, search_limits, options, warm, stats_out);
  auto add_cut_phase = [&](IlpStats* stats) {
    stats->cuts_added = cut_stats.cuts_added;
    stats->cut_rounds = cut_stats.cut_rounds;
    stats->root_cut_seconds = cut_seconds;
    stats->AddLpCounters(cut_stats);
    stats->wall_seconds += cut_seconds;
  };
  if (solution.ok()) add_cut_phase(&solution->stats);
  if (stats_out) add_cut_phase(stats_out);
  return solution;
}

}  // namespace

Result<IlpSolution> SolveIlp(const lp::Model& model, const SolverLimits& limits,
                             const BranchAndBoundOptions& options,
                             IlpWarmStart* warm, IlpStats* stats_out) {
  if (stats_out) *stats_out = IlpStats{};
  // A caller-supplied warm context means consecutive solves over one
  // column set (the refine loop, top-k enumeration) reuse the stored root
  // basis. Presolve would reshape the model per call — its reductions
  // depend on the very bounds those callers keep shifting — so every
  // RestoreBasis would fail on dimension mismatch and silently degrade the
  // warm path to cold solves. Basis reuse wins there; presolve stays for
  // the one-shot solves.
  const bool warm_chain = warm != nullptr && warm->chain && options.warm_start;
  if (!options.presolve || warm_chain || model.num_vars() == 0 ||
      model.num_rows() == 0) {
    return SolveWithCuts(model, limits, options, warm, stats_out);
  }
  Stopwatch presolve_watch;
  lp::PresolveInfo info;
  lp::Model reduced = lp::PresolveModel(model, {}, &info);
  if (info.infeasible) {
    if (stats_out) {
      stats_out->presolve_fixed_vars = info.vars_fixed;
      stats_out->presolve_dropped_rows = info.rows_dropped;
      stats_out->wall_seconds = presolve_watch.ElapsedSeconds();
    }
    return Status::Infeasible("presolve proved the model infeasible");
  }
  // The presolve pass spent part of the caller's budget on every path.
  auto deduct_presolve = [&](double seconds) {
    SolverLimits out = limits;
    if (out.time_limit_s > 0) {
      // Keep the budget positive (0 would mean unlimited) but never
      // extend an already-blown deadline.
      out.time_limit_s = std::max(1e-9, out.time_limit_s - seconds);
    }
    return out;
  };
  if (info.identity || (info.vars_fixed == 0 && info.rows_dropped == 0)) {
    // identity: presolve found nothing — solve the original model (which
    // also keeps any attached CSC view). Otherwise bound tightening alone
    // still helps: solve the tightened (same-shaped) model and copy the
    // solution through.
    const lp::Model& solve_model = info.identity ? model : reduced;
    double presolve_seconds = presolve_watch.ElapsedSeconds();
    auto solution =
        SolveWithCuts(solve_model, deduct_presolve(presolve_seconds), options,
                      warm, stats_out);
    if (solution.ok()) {
      solution->stats.wall_seconds += presolve_seconds;
    }
    if (stats_out) stats_out->wall_seconds += presolve_seconds;
    return solution;
  }
  // Objective contribution of the columns presolve removed (model sense).
  double fixed_obj = 0;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (info.fixed[static_cast<size_t>(j)]) {
      fixed_obj += model.obj()[j] * info.fixed_value[static_cast<size_t>(j)];
    }
  }
  if (reduced.num_vars() == 0) {
    // Every variable fixed: the model is a single point.
    IlpSolution solution;
    solution.x = lp::PostsolveSolution(info, {});
    if (!model.IsFeasible(solution.x, 1e-6)) {
      if (stats_out) {
        stats_out->presolve_fixed_vars = info.vars_fixed;
        stats_out->presolve_dropped_rows = info.rows_dropped;
        stats_out->wall_seconds = presolve_watch.ElapsedSeconds();
      }
      return Status::Infeasible("presolve fixed the model to an infeasible point");
    }
    solution.objective = model.ObjectiveValue(solution.x);
    solution.stats.proven_optimal = true;
    solution.stats.root_bound = solution.objective;
    solution.stats.presolve_fixed_vars = info.vars_fixed;
    solution.stats.presolve_dropped_rows = info.rows_dropped;
    solution.stats.wall_seconds = presolve_watch.ElapsedSeconds();
    if (stats_out) *stats_out = solution.stats;
    return solution;
  }
  double presolve_seconds = presolve_watch.ElapsedSeconds();
  auto solution =
      SolveWithCuts(reduced, deduct_presolve(presolve_seconds), options, warm,
                    stats_out);
  if (stats_out) {
    stats_out->presolve_fixed_vars = info.vars_fixed;
    stats_out->presolve_dropped_rows = info.rows_dropped;
    stats_out->wall_seconds += presolve_seconds;
  }
  if (!solution.ok()) return solution;
  solution->x = lp::PostsolveSolution(info, solution->x);
  solution->objective = model.ObjectiveValue(solution->x);
  solution->stats.root_bound += fixed_obj;
  solution->stats.presolve_fixed_vars = info.vars_fixed;
  solution->stats.presolve_dropped_rows = info.rows_dropped;
  solution->stats.wall_seconds += presolve_seconds;
  return solution;
}

lp::LpResult SolveLpRelaxation(const lp::Model& model, double time_limit_s) {
  lp::SimplexSolver solver(model);
  return solver.Solve(Deadline(time_limit_s));
}

}  // namespace paql::ilp
