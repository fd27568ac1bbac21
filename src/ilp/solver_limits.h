// Resource budgets for ILP solves.
//
// These limits emulate the failure modes of the paper's black-box solver
// (CPLEX): the authors cap working memory at 512MB, set a one-hour time
// limit, and observe DIRECT failing when "CPLEX uses the entire available
// main memory while solving the corresponding ILP problems" (Section 5.2.1).
// Exceeding any budget aborts the solve with StatusCode::kResourceExhausted,
// which the evaluators surface exactly like a solver failure.
#ifndef PAQL_ILP_SOLVER_LIMITS_H_
#define PAQL_ILP_SOLVER_LIMITS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/str_util.h"

namespace paql::ilp {

struct SolverLimits {
  /// Wall-clock budget in seconds; <= 0 means unlimited.
  double time_limit_s = 0;

  /// Maximum branch-and-bound nodes; <= 0 means unlimited.
  int64_t max_nodes = 0;

  /// Memory budget in bytes; 0 means unlimited.
  ///
  /// Accounting model: the densified LP matrix plus factorization workspace
  /// is charged up front; each explored node then charges
  /// `kBytesPerOpenNode / 2`, modeling a best-first solver (CPLEX default)
  /// whose open-node frontier grows with roughly half the explored tree on
  /// hard instances. Our own search is depth-first and does not actually
  /// allocate this memory — the charge exists to reproduce the paper's
  /// DIRECT failures at comparable problem scales.
  size_t memory_budget_bytes = 0;

  static constexpr size_t kBytesPerOpenNode = 1024;

  static SolverLimits Unlimited() { return SolverLimits{}; }
};

/// The limits of the next solve in a run of several (SKETCHREFINE's
/// subproblems, Dinkelbach iterations, top-k rounds) that share one time
/// budget: `limits` with the time limit cut to what remains until
/// `deadline`, which the run started at its first solve. Once nothing
/// remains, fails with ResourceExhausted naming the run (`what`). Limits
/// without a time limit pass through unchanged.
inline Result<SolverLimits> RemainingLimits(const SolverLimits& limits,
                                            const Deadline& deadline,
                                            std::string_view what) {
  if (limits.time_limit_s <= 0) return limits;
  SolverLimits out = limits;
  out.time_limit_s = deadline.RemainingSeconds();
  if (out.time_limit_s <= 0) {
    return Status::ResourceExhausted(StrCat(what, " exceeded its time limit of ",
                                            limits.time_limit_s, "s"));
  }
  return out;
}

}  // namespace paql::ilp

#endif  // PAQL_ILP_SOLVER_LIMITS_H_
