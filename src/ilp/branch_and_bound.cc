#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
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

/// Internal search driver. Works in "internal minimize" space: objectives
/// are multiplied by `sign` (+1 minimize, -1 maximize) so that smaller is
/// always better.
class Searcher {
 public:
  Searcher(const lp::Model& model, const SolverLimits& limits,
           const BranchAndBoundOptions& options, IlpWarmStart* warm)
      : model_(model),
        limits_(limits),
        options_(options),
        solver_(model, SimplexOptionsFor(options)),
        warm_(options.warm_start ? warm : nullptr),
        deadline_(limits.time_limit_s),
        sign_(model.sense() == lp::Sense::kMaximize ? -1.0 : 1.0) {
    if (options_.branch_rule == BranchRule::kPseudoCost) {
      size_t n = static_cast<size_t>(model.num_vars());
      pc_down_.assign(n, 0.0);
      pc_up_.assign(n, 0.0);
      pc_count_down_.assign(n, 0);
      pc_count_up_.assign(n, 0);
    }
  }

  Result<IlpSolution> Run() {
    Stopwatch watch;
    base_bytes_ = solver_.ApproximateBytes() + model_.ApproximateBytes();
    Status status = Search();
    stats_.wall_seconds = watch.ElapsedSeconds();
    stats_.peak_memory_bytes = EstimatedBytes();
    if (!status.ok() && !status.IsResourceExhausted()) return status;
    if (!has_incumbent_) {
      if (status.IsResourceExhausted()) return status;
      return Status::Infeasible("no feasible package assignment exists");
    }
    // A budget overrun with an incumbent still fails the solve: the paper's
    // evaluators require the solver's (near-)optimal answer, and CPLEX
    // aborting mid-search is reported as a failure. The incumbent is kept in
    // the solution only when optimality was proven or the gap closed.
    if (status.IsResourceExhausted() && !stats_.proven_optimal) {
      return status;
    }
    IlpSolution solution;
    solution.x = incumbent_;
    solution.objective = sign_ * incumbent_obj_;
    solution.stats = stats_;
    return solution;
  }

  /// Statistics of the search so far; meaningful after Run() even when it
  /// returned a failure status (infeasible / budget exceeded).
  const IlpStats& stats() const { return stats_; }

 private:
  struct Frame {
    int var = -1;
    // The two children: [lb, v] and [v+1, ub]; `next_child` counts how many
    // children have been expanded so far (0, 1, 2).
    double child_values[2][2];  // [child][{lb, ub}]
    bool child_is_down[2] = {true, false};
    int next_child = 0;
    double saved_lb = 0;
    double saved_ub = 0;
    double parent_bound = 0;  // LP bound inherited by both children
    double frac = 0.5;        // fractional part of the branch variable
    // The basis the parent LP solved to; both children re-optimize from it
    // with the dual simplex (they differ from the parent by one variable
    // bound). Invalid when warm starting is off.
    lp::Basis parent_basis;
  };

  /// Attribution of the node about to be evaluated to the branching that
  /// produced it (pseudo-cost bookkeeping).
  struct PendingBranch {
    bool active = false;
    int var = -1;
    bool down = true;
    double frac = 0.5;
    double parent_bound = 0;
  };

  size_t EstimatedBytes() const {
    return base_bytes_ + static_cast<size_t>(stats_.nodes) *
                             (SolverLimits::kBytesPerOpenNode / 2);
  }

  Status CheckBudgets() {
    if (limits_.time_limit_s > 0 && deadline_.Expired()) {
      return Status::ResourceExhausted(
          StrCat("ILP time limit of ", limits_.time_limit_s, "s exceeded"));
    }
    if (limits_.max_nodes > 0 && stats_.nodes >= limits_.max_nodes) {
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

  /// Index of the integer variable to branch on, or -1 if integral.
  int PickBranchVar(const std::vector<double>& x) const {
    switch (options_.branch_rule) {
      case BranchRule::kFirstFractional: {
        for (int j = 0; j < model_.num_vars(); ++j) {
          if (!model_.is_integer()[j]) continue;
          double frac = x[j] - std::floor(x[j]);
          if (std::min(frac, 1.0 - frac) > options_.integrality_tol) {
            return j;
          }
        }
        return -1;
      }
      case BranchRule::kPseudoCost: {
        int best = -1;
        double best_score = -1;
        int fallback = -1;
        double fallback_dist = options_.integrality_tol;
        for (int j = 0; j < model_.num_vars(); ++j) {
          if (!model_.is_integer()[j]) continue;
          double frac = x[j] - std::floor(x[j]);
          double dist = std::min(frac, 1.0 - frac);
          if (dist <= options_.integrality_tol) continue;
          if (dist > fallback_dist) {
            fallback_dist = dist;
            fallback = j;
          }
          size_t uj = static_cast<size_t>(j);
          if (pc_count_down_[uj] == 0 || pc_count_up_[uj] == 0) continue;
          double down = pc_down_[uj] / pc_count_down_[uj];
          double up = pc_up_[uj] / pc_count_up_[uj];
          // Classic product score; epsilon keeps zero-cost directions from
          // zeroing the whole score.
          double score = std::max(down * frac, 1e-9) *
                         std::max(up * (1.0 - frac), 1e-9);
          if (score > best_score) {
            best_score = score;
            best = j;
          }
        }
        // Reliability fallback: branch most-fractional until pseudo costs
        // exist for at least one candidate.
        return best >= 0 ? best : fallback;
      }
      case BranchRule::kMostFractional:
        break;
    }
    int best = -1;
    double best_frac_dist = options_.integrality_tol;
    for (int j = 0; j < model_.num_vars(); ++j) {
      if (!model_.is_integer()[j]) continue;
      double frac = x[j] - std::floor(x[j]);
      double dist = std::min(frac, 1.0 - frac);  // distance to integer
      if (dist > best_frac_dist) {
        best_frac_dist = dist;
        best = j;
      }
    }
    return best;
  }

  void OfferIncumbent(const std::vector<double>& x) {
    // Snap integer variables exactly.
    std::vector<double> snapped = x;
    for (int j = 0; j < model_.num_vars(); ++j) {
      if (model_.is_integer()[j]) snapped[j] = std::round(snapped[j]);
    }
    if (!model_.IsFeasible(snapped, 1e-6)) return;
    double obj = sign_ * model_.ObjectiveValue(snapped);
    if (!has_incumbent_ || obj < incumbent_obj_ - 1e-12) {
      has_incumbent_ = true;
      incumbent_obj_ = obj;
      incumbent_ = std::move(snapped);
    }
  }

  /// Simple diving heuristic: repeatedly fix the most fractional variable to
  /// its nearest integer and re-solve, hoping to land on a feasible integer
  /// point quickly. All bound changes are rolled back before returning.
  void Dive(const std::vector<double>& root_x) {
    std::vector<std::tuple<int, double, double>> undo;
    std::vector<double> x = root_x;
    for (int depth = 0; depth < options_.dive_max_depth; ++depth) {
      int j = PickBranchVar(x);
      if (j < 0) {
        OfferIncumbent(x);
        break;
      }
      double target = std::round(x[j]);
      target = std::clamp(target, solver_.var_lb(j), solver_.var_ub(j));
      undo.emplace_back(j, solver_.var_lb(j), solver_.var_ub(j));
      solver_.SetVarBounds(j, target, target);
      lp::LpResult lp = solver_.Solve(deadline_);
      stats_.lp_iterations += lp.iterations;
      stats_.pricing_candidate_hits += lp.pricing_candidate_hits;
      stats_.bound_flips += lp.bound_flips;
      stats_.dse_pivots += lp.dse_pivots;
      if (lp.used_dual) ++stats_.warm_lp_solves;
      if (lp.status != lp::LpStatus::kOptimal) break;
      x = lp.x;
    }
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      solver_.SetVarBounds(std::get<0>(*it), std::get<1>(*it),
                           std::get<2>(*it));
    }
  }

  /// Root reduced-cost fixing: an integer variable nonbasic at a bound in
  /// the root LP with reduced cost d can only reach its next integer value
  /// at objective cost >= root_bound + |d|; when that already lands past
  /// the incumbent cutoff, the variable can never flip in any improving
  /// solution, so it is fixed at its bound permanently (shrinking every
  /// child LP's active column set). Called only while the branching stack
  /// is empty, so no frame's saved bounds can later undo a fix.
  void ApplyReducedCostFixing() {
    if (!options_.reduced_cost_fixing || !root_data_valid_ || !has_incumbent_) {
      return;
    }
    double cutoff = incumbent_obj_ -
                    options_.gap_tol * (1.0 + std::abs(incumbent_obj_));
    double gap = cutoff - root_bound_internal_;
    if (gap < 0) gap = 0;  // numerically tied incumbent and root bound
    const double margin = 1e-9 * (1.0 + std::abs(root_bound_internal_));
    using VarStatus = lp::SimplexSolver::VarStatus;
    for (int j = 0; j < model_.num_vars(); ++j) {
      if (!model_.is_integer()[j]) continue;
      double lbj = solver_.var_lb(j), ubj = solver_.var_ub(j);
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
        solver_.SetVarBounds(j, lbj, lbj);
        ++stats_.rc_fixed_vars;
      } else if (st == VarStatus::kAtUpper && ubj == std::floor(ubj) &&
                 -d > gap + margin) {
        solver_.SetVarBounds(j, ubj, ubj);
        ++stats_.rc_fixed_vars;
      }
    }
  }

  Status Search() {
    std::vector<Frame> stack;
    // Depth-first search; each iteration either expands the next child of
    // the top frame or evaluates a fresh node (after a bound change).
    bool evaluate_current = true;  // root pending
    bool root = true;
    while (true) {
      // Node boundary = the cooperative preemption point: a batch-class
      // solve steps aside here while interactive queries are in flight.
      PriorityGate::Global().YieldIfContended();
      PAQL_RETURN_IF_ERROR(CheckBudgets());

      if (evaluate_current) {
        evaluate_current = false;
        ++stats_.nodes;
        stats_.max_depth =
            std::max<int64_t>(stats_.max_depth, static_cast<int64_t>(stack.size()));
        if (root && warm_ != nullptr) {
          // Seed the root LP from the previous solve's root basis (ignored
          // on dimension mismatch — e.g. a different cut count).
          solver_.RestoreBasis(warm_->root_basis);
        }
        lp::LpResult lp = solver_.Solve(deadline_);
        stats_.lp_iterations += lp.iterations;
        stats_.pricing_candidate_hits += lp.pricing_candidate_hits;
        stats_.bound_flips += lp.bound_flips;
        stats_.dse_pivots += lp.dse_pivots;
        if (lp.used_dual) ++stats_.warm_lp_solves;
        if (root && warm_ != nullptr) {
          warm_->root_basis = solver_.SnapshotBasis();
        }
        if (root && lp.status == lp::LpStatus::kOptimal &&
            options_.reduced_cost_fixing && model_.num_integer_vars() > 0) {
          // Capture the root duals before any heuristic pivots the solver
          // away from the root-optimal basis.
          root_bound_internal_ = sign_ * lp.objective;
          root_reduced_costs_ = solver_.ReducedCosts();
          root_status_ = solver_.SnapshotBasis().status;
          root_data_valid_ = true;
        }
        PendingBranch pending = pending_;
        pending_.active = false;  // attribution applies to this node only
        if (lp.status == lp::LpStatus::kTimeLimit) {
          return Status::ResourceExhausted("LP time limit during node solve");
        }
        if (lp.status == lp::LpStatus::kIterationLimit) {
          return Status::ResourceExhausted("LP iteration limit");
        }
        if (lp.status == lp::LpStatus::kUnbounded) {
          if (root) return Status::Unbounded("ILP relaxation is unbounded");
          // A bounded-variable child LP cannot be unbounded if the root was
          // not; treat defensively as a pruned node.
        }
        if (lp.status == lp::LpStatus::kOptimal) {
          double bound = sign_ * lp.objective;
          if (pending.active &&
              options_.branch_rule == BranchRule::kPseudoCost) {
            // Pseudo-cost update: objective degradation per unit of the
            // fraction rounded away by this child.
            double degradation = std::max(0.0, bound - pending.parent_bound);
            double unit = pending.down ? pending.frac : 1.0 - pending.frac;
            if (unit > 1e-9) {
              size_t uj = static_cast<size_t>(pending.var);
              if (pending.down) {
                pc_down_[uj] += degradation / unit;
                ++pc_count_down_[uj];
              } else {
                pc_up_[uj] += degradation / unit;
                ++pc_count_up_[uj];
              }
            }
          }
          if (root) {
            stats_.root_bound = sign_ * bound;
            if (options_.enable_rounding_heuristic) OfferIncumbent(lp.x);
            // The rounding incumbent may already prove columns immovable.
            ApplyReducedCostFixing();
          }
          bool pruned = has_incumbent_ &&
                        bound >= incumbent_obj_ -
                                     options_.gap_tol *
                                         (1.0 + std::abs(incumbent_obj_));
          if (!pruned) {
            int branch_var = PickBranchVar(lp.x);
            if (branch_var < 0) {
              OfferIncumbent(lp.x);
            } else {
              // Expand: create a frame with two children, nearest-first.
              // The basis snapshot must precede the dive, which pivots the
              // solver away from this node's optimal basis.
              Frame frame;
              if (options_.warm_start) {
                frame.parent_basis = solver_.SnapshotBasis();
              }
              if (root && options_.enable_diving_heuristic) {
                Dive(lp.x);
                // A dive incumbent tightens the gap; the stack is still
                // empty, so fixing here is as permanent as at the root.
                ApplyReducedCostFixing();
              }
              frame.var = branch_var;
              frame.saved_lb = solver_.var_lb(branch_var);
              frame.saved_ub = solver_.var_ub(branch_var);
              frame.parent_bound = bound;
              double v = lp.x[branch_var];
              double floor_v = std::floor(v);
              double down[2] = {frame.saved_lb, floor_v};
              double up[2] = {floor_v + 1.0, frame.saved_ub};
              bool down_first = (v - floor_v) <= 0.5;
              frame.child_values[0][0] = down_first ? down[0] : up[0];
              frame.child_values[0][1] = down_first ? down[1] : up[1];
              frame.child_values[1][0] = down_first ? up[0] : down[0];
              frame.child_values[1][1] = down_first ? up[1] : down[1];
              frame.child_is_down[0] = down_first;
              frame.child_is_down[1] = !down_first;
              frame.frac = v - floor_v;
              stack.push_back(frame);
            }
          }
        }
        // kInfeasible nodes simply fall through to backtracking.
        root = false;
        continue;
      }

      // Expand the next child of the top frame, or pop it.
      if (stack.empty()) break;
      Frame& top = stack.back();
      // Prune remaining children if the bound can no longer beat the
      // incumbent (the parent LP bound is a valid bound for both children).
      bool prune_rest =
          has_incumbent_ &&
          top.parent_bound >=
              incumbent_obj_ -
                  options_.gap_tol * (1.0 + std::abs(incumbent_obj_));
      if (top.next_child >= 2 || (prune_rest && top.next_child > 0)) {
        solver_.SetVarBounds(top.var, top.saved_lb, top.saved_ub);
        stack.pop_back();
        continue;
      }
      double lb = top.child_values[top.next_child][0];
      double ub = top.child_values[top.next_child][1];
      bool child_down = top.child_is_down[top.next_child];
      ++top.next_child;
      if (lb > ub) continue;  // empty child (branching at a bound)
      if (options_.warm_start && top.parent_basis.valid) {
        // Re-seed from the parent basis: the child differs from the parent
        // by one variable bound, so the dual simplex re-optimizes in a few
        // pivots. A failed restore just leaves the current basis in place.
        solver_.RestoreBasis(top.parent_basis);
      }
      solver_.SetVarBounds(top.var, lb, ub);
      pending_ = {true, top.var, child_down, top.frac, top.parent_bound};
      evaluate_current = true;
    }
    stats_.proven_optimal = has_incumbent_;
    return Status::OK();
  }

  const lp::Model& model_;
  SolverLimits limits_;
  BranchAndBoundOptions options_;
  lp::SimplexSolver solver_;
  IlpWarmStart* warm_;  // not owned; null when warm starting is off
  Deadline deadline_;
  double sign_;

  IlpStats stats_;
  bool has_incumbent_ = false;
  double incumbent_obj_ = 0;
  std::vector<double> incumbent_;
  size_t base_bytes_ = 0;

  // Root LP data for reduced-cost fixing (internal minimize space).
  bool root_data_valid_ = false;
  double root_bound_internal_ = 0;
  std::vector<double> root_reduced_costs_;
  std::vector<uint8_t> root_status_;

  // Pseudo-cost state (allocated only under BranchRule::kPseudoCost).
  std::vector<double> pc_down_, pc_up_;
  std::vector<int64_t> pc_count_down_, pc_count_up_;
  PendingBranch pending_;
};

// ---------------------------------------------------------------------------
// Concurrent branch-and-bound (BranchAndBoundOptions::threads > 1)
// ---------------------------------------------------------------------------

/// Trees smaller than this many integer columns are searched serially even
/// when threads are granted: sharing a two-level tree across workers costs
/// more in solver construction and queue traffic than the search itself.
constexpr int kMinVarsForParallelSearch = 64;

/// Branch variable for the stateless rules (most-/first-fractional); the
/// pseudo-cost rule needs per-variable history and stays serial.
int PickBranchVarStateless(const lp::Model& model, const std::vector<double>& x,
                           double tol, BranchRule rule) {
  int best = -1;
  double best_dist = tol;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (!model.is_integer()[j]) continue;
    double frac = x[j] - std::floor(x[j]);
    double dist = std::min(frac, 1.0 - frac);
    if (dist <= tol) continue;
    if (rule == BranchRule::kFirstFractional) return j;
    if (dist > best_dist) {
      best_dist = dist;
      best = j;
    }
  }
  return best;
}

/// Shared-deque concurrent search. The root (LP solve, rounding and diving
/// heuristics, reduced-cost fixing) runs serially on the calling thread,
/// exactly as the serial Searcher's root does; the open children then go
/// onto a shared work deque that `threads` workers — each with its own
/// SimplexSolver — drain concurrently. Workers pop newest-first (the
/// depth-first, warm-basis-friendly order) and prune against an atomic
/// shared incumbent. Every frame carries the bound changes on its path
/// from the root plus its parent's basis, so any worker can evaluate any
/// frame: it resets its solver to the (post-fixing) root bounds, applies
/// the path, restores the parent basis, and re-optimizes with the dual
/// simplex — the same warm start the serial search does, made
/// worker-local.
class ParallelSearcher {
 public:
  ParallelSearcher(const lp::Model& model, const SolverLimits& limits,
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
    if (!status.ok() && !status.IsResourceExhausted()) return status;
    if (!has_incumbent_) {
      if (status.IsResourceExhausted()) return status;
      return Status::Infeasible("no feasible package assignment exists");
    }
    // Same budget semantics as the serial searcher: an overrun fails the
    // solve unless optimality was proven before the budget tripped.
    if (status.IsResourceExhausted() && !stats_.proven_optimal) {
      return status;
    }
    IlpSolution solution;
    solution.x = incumbent_;
    solution.objective = sign_ * incumbent_obj_;
    solution.stats = FinalStats();
    return solution;
  }

  IlpStats FinalStats() const {
    IlpStats out;
    out.nodes = stats_.nodes.load(std::memory_order_relaxed);
    out.lp_iterations = stats_.lp_iterations;
    out.max_depth = stats_.max_depth;
    out.wall_seconds = stats_.wall_seconds;
    out.peak_memory_bytes = stats_.peak_memory_bytes;
    out.root_bound = stats_.root_bound;
    out.proven_optimal = stats_.proven_optimal;
    out.warm_lp_solves = stats_.warm_lp_solves;
    out.pricing_candidate_hits = stats_.pricing_candidate_hits;
    out.bound_flips = stats_.bound_flips;
    out.dse_pivots = stats_.dse_pivots;
    out.rc_fixed_vars = stats_.rc_fixed_vars;
    out.parallel_nodes = out.nodes;
    return out;
  }

 private:
  struct BoundChange {
    int var;
    double lb, ub;
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
           static_cast<size_t>(stats_.nodes.load(std::memory_order_relaxed)) *
               (SolverLimits::kBytesPerOpenNode / 2);
  }

  Status CheckBudgets() const {
    if (limits_.time_limit_s > 0 && deadline_.Expired()) {
      return Status::ResourceExhausted(
          StrCat("ILP time limit of ", limits_.time_limit_s, "s exceeded"));
    }
    int64_t nodes = stats_.nodes.load(std::memory_order_relaxed);
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
  /// Acceptance is strict improvement by 1e-12 — the serial rule — with
  /// the frame sequence number breaking near-ties deterministically, so
  /// which of two equally-good solutions wins does not depend on which
  /// worker got there first.
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

  /// Thread-local view of the shared counters one worker accumulates
  /// between merges (merged under stats_mu_ when the worker exits).
  struct WorkerStats {
    int64_t lp_iterations = 0;
    int64_t warm_lp_solves = 0;
    int64_t pricing_candidate_hits = 0;
    int64_t bound_flips = 0;
    int64_t dse_pivots = 0;
    int64_t max_depth = 0;
  };

  /// Record a failure (first one wins) and wake every waiting worker.
  void Abort(Status status) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (abort_status_.ok()) abort_status_ = status;
    aborted_.store(true, std::memory_order_relaxed);
    queue_cv_.notify_all();
  }

  void PushChildren(Frame&& far_child, Frame&& near_child) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Newest-first pops: push far then near so the nearest child — the
    // serial search's first choice — is evaluated first.
    outstanding_ += 2;
    queue_.push_back(std::move(far_child));
    queue_.push_back(std::move(near_child));
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
    WorkerStats local;
    std::vector<int> applied;  // vars whose bounds differ from the root
    Frame frame;
    while (PopFrame(&frame)) {
      // Same cooperative preemption point as the serial search. PopFrame
      // released the queue lock, so waiting here blocks only this worker.
      PriorityGate::Global().YieldIfContended();
      Status budget = CheckBudgets();
      if (!budget.ok()) {
        FinishFrame();
        Abort(budget);
        break;
      }
      // No incumbent yet = +inf sentinel; the cutoff arithmetic would turn
      // that into NaN, so the prune tests are guarded on finiteness.
      double inc = incumbent_obj_atomic_.load(std::memory_order_relaxed);
      if (std::isfinite(inc) && frame.parent_bound >= IncumbentCutoff(inc)) {
        FinishFrame();
        continue;
      }
      stats_.nodes.fetch_add(1, std::memory_order_relaxed);
      local.max_depth = std::max<int64_t>(
          local.max_depth, static_cast<int64_t>(frame.path.size()));
      // Rebase the solver onto this frame: undo the previous frame's
      // bound changes, apply this one's path, re-seed the parent basis.
      for (int var : applied) {
        solver->SetVarBounds(var, root_lb_[static_cast<size_t>(var)],
                             root_ub_[static_cast<size_t>(var)]);
      }
      applied.clear();
      for (const BoundChange& bc : frame.path) {
        solver->SetVarBounds(bc.var, bc.lb, bc.ub);
        applied.push_back(bc.var);
      }
      if (options_.warm_start && frame.parent_basis != nullptr &&
          frame.parent_basis->valid) {
        solver->RestoreBasis(*frame.parent_basis);
      }
      lp::LpResult lp = solver->Solve(deadline_);
      local.lp_iterations += lp.iterations;
      local.pricing_candidate_hits += lp.pricing_candidate_hits;
      local.bound_flips += lp.bound_flips;
      local.dse_pivots += lp.dse_pivots;
      if (lp.used_dual) ++local.warm_lp_solves;
      if (lp.status == lp::LpStatus::kTimeLimit) {
        FinishFrame();
        Abort(Status::ResourceExhausted("LP time limit during node solve"));
        break;
      }
      if (lp.status == lp::LpStatus::kIterationLimit) {
        FinishFrame();
        Abort(Status::ResourceExhausted("LP iteration limit"));
        break;
      }
      // kInfeasible and (defensively) kUnbounded children are pruned.
      if (lp.status == lp::LpStatus::kOptimal) {
        double bound = sign_ * lp.objective;
        inc = incumbent_obj_atomic_.load(std::memory_order_relaxed);
        if (!std::isfinite(inc) || bound < IncumbentCutoff(inc)) {
          int branch_var = PickBranchVarStateless(
              model_, lp.x, options_.integrality_tol, options_.branch_rule);
          if (branch_var < 0) {
            OfferIncumbent(lp.x, frame.seq);
          } else {
            auto basis = options_.warm_start
                             ? std::make_shared<const lp::Basis>(
                                   solver->SnapshotBasis())
                             : nullptr;
            double v = lp.x[branch_var];
            double floor_v = std::floor(v);
            double lb = solver->var_lb(branch_var);
            double ub = solver->var_ub(branch_var);
            bool down_first = (v - floor_v) <= 0.5;
            Frame down, up;
            down.path = frame.path;
            down.path.push_back({branch_var, lb, floor_v});
            up.path = frame.path;
            up.path.push_back({branch_var, floor_v + 1.0, ub});
            down.parent_basis = up.parent_basis = basis;
            down.parent_bound = up.parent_bound = bound;
            down.seq = next_seq_.fetch_add(2, std::memory_order_relaxed);
            up.seq = down.seq + 1;
            bool down_ok = lb <= floor_v;
            bool up_ok = floor_v + 1.0 <= ub;
            if (down_ok && up_ok) {
              if (down_first) {
                PushChildren(std::move(up), std::move(down));
              } else {
                PushChildren(std::move(down), std::move(up));
              }
            } else if (down_ok || up_ok) {
              std::lock_guard<std::mutex> lock(queue_mu_);
              ++outstanding_;
              queue_.push_back(down_ok ? std::move(down) : std::move(up));
              queue_cv_.notify_all();
            }
          }
        }
      }
      FinishFrame();
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.lp_iterations += local.lp_iterations;
    stats_.warm_lp_solves += local.warm_lp_solves;
    stats_.pricing_candidate_hits += local.pricing_candidate_hits;
    stats_.bound_flips += local.bound_flips;
    stats_.dse_pivots += local.dse_pivots;
    stats_.max_depth = std::max(stats_.max_depth, local.max_depth);
  }

  /// Root reduced-cost fixing against `solver` (the root worker's), the
  /// serial searcher's proof verbatim: only called before any frame is
  /// queued, so the fixes are permanent for every worker (each copies the
  /// post-fixing bounds as its root state).
  void ApplyReducedCostFixing(lp::SimplexSolver* solver) {
    if (!options_.reduced_cost_fixing || !root_data_valid_ || !has_incumbent_) {
      return;
    }
    double gap = IncumbentCutoff(incumbent_obj_) - root_bound_internal_;
    if (gap < 0) gap = 0;
    const double margin = 1e-9 * (1.0 + std::abs(root_bound_internal_));
    using VarStatus = lp::SimplexSolver::VarStatus;
    for (int j = 0; j < model_.num_vars(); ++j) {
      if (!model_.is_integer()[j]) continue;
      double lbj = solver->var_lb(j), ubj = solver->var_ub(j);
      if (lbj == ubj) continue;
      auto st = static_cast<VarStatus>(root_status_[static_cast<size_t>(j)]);
      double d = root_reduced_costs_[static_cast<size_t>(j)];
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

  /// Root diving heuristic on the root worker's solver (bounds rolled
  /// back), as in the serial search.
  void Dive(lp::SimplexSolver* solver, const std::vector<double>& root_x) {
    std::vector<std::tuple<int, double, double>> undo;
    std::vector<double> x = root_x;
    for (int depth = 0; depth < options_.dive_max_depth; ++depth) {
      int j = PickBranchVarStateless(model_, x, options_.integrality_tol,
                                     options_.branch_rule);
      if (j < 0) {
        OfferIncumbent(x, 0);
        break;
      }
      double target = std::round(x[j]);
      target = std::clamp(target, solver->var_lb(j), solver->var_ub(j));
      undo.emplace_back(j, solver->var_lb(j), solver->var_ub(j));
      solver->SetVarBounds(j, target, target);
      lp::LpResult lp = solver->Solve(deadline_);
      stats_.lp_iterations += lp.iterations;
      stats_.pricing_candidate_hits += lp.pricing_candidate_hits;
      stats_.bound_flips += lp.bound_flips;
      stats_.dse_pivots += lp.dse_pivots;
      if (lp.used_dual) ++stats_.warm_lp_solves;
      if (lp.status != lp::LpStatus::kOptimal) break;
      x = lp.x;
    }
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      solver->SetVarBounds(std::get<0>(*it), std::get<1>(*it),
                           std::get<2>(*it));
    }
  }

  Status Search() {
    // --- Root phase, serial (mirrors the serial searcher's root). ---
    lp::SimplexSolver root_solver(model_, SimplexOptionsFor(options_));
    base_bytes_ = root_solver.ApproximateBytes() *
                      static_cast<size_t>(threads_) +
                  model_.ApproximateBytes();
    PAQL_RETURN_IF_ERROR(CheckBudgets());
    stats_.nodes.fetch_add(1, std::memory_order_relaxed);
    if (warm_ != nullptr) root_solver.RestoreBasis(warm_->root_basis);
    lp::LpResult lp = root_solver.Solve(deadline_);
    stats_.lp_iterations += lp.iterations;
    stats_.pricing_candidate_hits += lp.pricing_candidate_hits;
    stats_.bound_flips += lp.bound_flips;
    stats_.dse_pivots += lp.dse_pivots;
    if (lp.used_dual) ++stats_.warm_lp_solves;
    if (warm_ != nullptr) warm_->root_basis = root_solver.SnapshotBasis();
    if (lp.status == lp::LpStatus::kTimeLimit) {
      return Status::ResourceExhausted("LP time limit during root solve");
    }
    if (lp.status == lp::LpStatus::kIterationLimit) {
      return Status::ResourceExhausted("LP iteration limit");
    }
    if (lp.status == lp::LpStatus::kUnbounded) {
      return Status::Unbounded("ILP relaxation is unbounded");
    }
    if (lp.status != lp::LpStatus::kOptimal) {
      stats_.proven_optimal = has_incumbent_;
      return Status::OK();  // infeasible root: no package exists
    }
    double bound = sign_ * lp.objective;
    stats_.root_bound = lp.objective;
    if (options_.reduced_cost_fixing && model_.num_integer_vars() > 0) {
      root_bound_internal_ = bound;
      root_reduced_costs_ = root_solver.ReducedCosts();
      root_status_ = root_solver.SnapshotBasis().status;
      root_data_valid_ = true;
    }
    if (options_.enable_rounding_heuristic) OfferIncumbent(lp.x, 0);
    ApplyReducedCostFixing(&root_solver);
    bool pruned =
        has_incumbent_ && bound >= IncumbentCutoff(incumbent_obj_);
    int branch_var =
        pruned ? -1
               : PickBranchVarStateless(model_, lp.x, options_.integrality_tol,
                                        options_.branch_rule);
    if (!pruned && branch_var < 0) OfferIncumbent(lp.x, 0);
    if (pruned || branch_var < 0) {
      stats_.proven_optimal = has_incumbent_;
      return Status::OK();
    }
    auto root_basis = options_.warm_start
                          ? std::make_shared<const lp::Basis>(
                                root_solver.SnapshotBasis())
                          : nullptr;
    if (options_.enable_diving_heuristic) {
      Dive(&root_solver, lp.x);
      ApplyReducedCostFixing(&root_solver);
    }
    // The post-fixing bounds are the root state every worker rebases onto.
    root_lb_.resize(static_cast<size_t>(model_.num_vars()));
    root_ub_.resize(static_cast<size_t>(model_.num_vars()));
    for (int j = 0; j < model_.num_vars(); ++j) {
      root_lb_[static_cast<size_t>(j)] = root_solver.var_lb(j);
      root_ub_[static_cast<size_t>(j)] = root_solver.var_ub(j);
    }
    double v = lp.x[branch_var];
    double floor_v = std::floor(v);
    Frame down, up;
    down.path.push_back({branch_var, root_lb_[static_cast<size_t>(branch_var)],
                         floor_v});
    up.path.push_back({branch_var, floor_v + 1.0,
                       root_ub_[static_cast<size_t>(branch_var)]});
    down.parent_basis = up.parent_basis = root_basis;
    down.parent_bound = up.parent_bound = bound;
    down.seq = 1;
    up.seq = 2;
    next_seq_.store(3, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      bool down_first = (v - floor_v) <= 0.5;
      if (down.path.back().lb <= down.path.back().ub) ++outstanding_;
      if (up.path.back().lb <= up.path.back().ub) ++outstanding_;
      auto push = [&](Frame&& f) {
        if (f.path.back().lb <= f.path.back().ub) queue_.push_back(std::move(f));
      };
      if (down_first) {
        push(std::move(up));
        push(std::move(down));
      } else {
        push(std::move(down));
        push(std::move(up));
      }
    }

    // --- Concurrent drain: `threads_` workers off the shared pool, each
    // --- with its own simplex instance rebased to the root bounds.
    ThreadPool::Global().ParallelFor(
        static_cast<size_t>(threads_), 1, threads_,
        [&](size_t begin, size_t end) {
          for (size_t w = begin; w < end; ++w) {
            if (w == 0) {
              // The root worker reuses the root solver (and its basis).
              WorkerLoop(&root_solver);
            } else {
              lp::SimplexSolver solver(model_, SimplexOptionsFor(options_));
              for (int j = 0; j < model_.num_vars(); ++j) {
                solver.SetVarBounds(j, root_lb_[static_cast<size_t>(j)],
                                    root_ub_[static_cast<size_t>(j)]);
              }
              WorkerLoop(&solver);
            }
          }
        });

    if (aborted_.load(std::memory_order_relaxed)) {
      Status status;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        status = abort_status_;
      }
      return status.ok() ? Status::ResourceExhausted("search aborted") : status;
    }
    stats_.proven_optimal = has_incumbent_;
    return Status::OK();
  }

  /// IlpStats twin whose hot counters are atomics (merged into the real
  /// struct at the end of Run).
  struct AtomicStats {
    std::atomic<int64_t> nodes{0};
    int64_t lp_iterations = 0;
    int64_t max_depth = 0;
    int64_t warm_lp_solves = 0;
    int64_t pricing_candidate_hits = 0;
    int64_t bound_flips = 0;
    int64_t dse_pivots = 0;
    int64_t rc_fixed_vars = 0;
    double root_bound = 0;
    bool proven_optimal = false;
    double wall_seconds = 0;
    size_t peak_memory_bytes = 0;
  } stats_;

  const lp::Model& model_;
  SolverLimits limits_;
  BranchAndBoundOptions options_;
  IlpWarmStart* warm_;
  int threads_;
  Deadline deadline_;
  double sign_;
  size_t base_bytes_ = 0;

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
  std::mutex stats_mu_;

  // Post-fixing root bounds (per-variable), the worker rebase target.
  std::vector<double> root_lb_, root_ub_;

  // Root LP data for reduced-cost fixing (internal minimize space).
  bool root_data_valid_ = false;
  double root_bound_internal_ = 0;
  std::vector<double> root_reduced_costs_;
  std::vector<uint8_t> root_status_;
};

}  // namespace

const char* BranchRuleName(BranchRule rule) {
  switch (rule) {
    case BranchRule::kMostFractional: return "most_fractional";
    case BranchRule::kFirstFractional: return "first_fractional";
    case BranchRule::kPseudoCost: return "pseudo_cost";
  }
  return "?";
}

namespace {

/// Root cut loop (cut-and-branch): separate valid inequalities at the LP
/// optimum, append them, re-solve, repeat. Returns the augmented model and
/// fills the cut counters; on any LP hiccup it stops early and the search
/// proceeds with whatever cuts were added so far (correctness never depends
/// on cuts).
lp::Model AddRootCuts(const lp::Model& model,
                      const BranchAndBoundOptions& options,
                      const Deadline& deadline, int64_t* cuts_added,
                      int64_t* cut_rounds, int64_t* lp_iterations,
                      int64_t* pricing_hits, int64_t* bound_flips,
                      int64_t* dse_pivots, IlpWarmStart* warm) {
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
    *lp_iterations += lp.iterations;
    *pricing_hits += lp.pricing_candidate_hits;
    *bound_flips += lp.bound_flips;
    *dse_pivots += lp.dse_pivots;
    if (lp.status != lp::LpStatus::kOptimal) break;
    // Nothing to separate at an integral point.
    bool fractional = false;
    for (int j = 0; j < augmented.num_vars() && !fractional; ++j) {
      if (!augmented.is_integer()[j]) continue;
      double frac = lp.x[j] - std::floor(lp.x[j]);
      fractional = std::min(frac, 1.0 - frac) > options.integrality_tol;
    }
    if (!fractional) break;
    std::vector<Cut> cuts = SeparateCuts(augmented, lp.x, options.cuts);
    if (cuts.empty()) break;
    for (Cut& cut : cuts) {
      if (augmented.AddRow(std::move(cut.row)).ok()) ++*cuts_added;
    }
    ++*cut_rounds;
  }
  return augmented;
}

/// Run the branch-and-bound search over `model`: the concurrent searcher
/// when the caller granted threads, the search is big enough to share,
/// and the branch rule is stateless; the exact serial search otherwise
/// (threads = 1 therefore reproduces the historical search to the pivot).
Result<IlpSolution> RunSearch(const lp::Model& model,
                              const SolverLimits& limits,
                              const BranchAndBoundOptions& options,
                              IlpWarmStart* warm, IlpStats* stats_out) {
  int threads = ClampThreads(options.threads);
  if (threads > 1 && model.num_integer_vars() >= kMinVarsForParallelSearch &&
      options.branch_rule != BranchRule::kPseudoCost) {
    ParallelSearcher searcher(model, limits, options, warm, threads);
    auto solution = searcher.Run();
    if (stats_out) {
      *stats_out = solution.ok() ? solution->stats : searcher.FinalStats();
    }
    return solution;
  }
  Searcher searcher(model, limits, options, warm);
  auto solution = searcher.Run();
  if (stats_out) {
    *stats_out = solution.ok() ? solution->stats : searcher.stats();
  }
  return solution;
}

/// Cut-and-branch over a (possibly presolved) model: the pre-presolve
/// SolveIlp body, unchanged.
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
  int64_t cuts_added = 0, cut_rounds = 0, lp_iterations = 0;
  int64_t pricing_hits = 0;
  int64_t cut_bound_flips = 0, cut_dse_pivots = 0;
  lp::Model augmented =
      AddRootCuts(model, options, deadline, &cuts_added, &cut_rounds,
                  &lp_iterations, &pricing_hits, &cut_bound_flips,
                  &cut_dse_pivots, warm);
  double cut_seconds = cut_watch.ElapsedSeconds();
  SolverLimits search_limits = limits;
  if (search_limits.time_limit_s > 0) {
    search_limits.time_limit_s =
        std::max(1e-3, search_limits.time_limit_s - cut_seconds);
  }
  auto solution = RunSearch(augmented, search_limits, options, warm, stats_out);
  if (solution.ok()) {
    solution->stats.cuts_added = cuts_added;
    solution->stats.cut_rounds = cut_rounds;
    solution->stats.root_cut_seconds = cut_seconds;
    solution->stats.lp_iterations += lp_iterations;
    solution->stats.pricing_candidate_hits += pricing_hits;
    solution->stats.bound_flips += cut_bound_flips;
    solution->stats.dse_pivots += cut_dse_pivots;
    solution->stats.wall_seconds += cut_seconds;
  }
  if (stats_out) {
    stats_out->cuts_added = cuts_added;
    stats_out->cut_rounds = cut_rounds;
    stats_out->root_cut_seconds = cut_seconds;
    stats_out->lp_iterations += lp_iterations;
    stats_out->pricing_candidate_hits += pricing_hits;
    stats_out->bound_flips += cut_bound_flips;
    stats_out->dse_pivots += cut_dse_pivots;
    stats_out->wall_seconds += cut_seconds;
  }
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
