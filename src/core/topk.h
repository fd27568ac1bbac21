// Top-k package enumeration.
//
// A PaQL query with an objective returns the single best package; the
// paper's PackageBuilder predecessor [5] and future-work section motivate
// returning *multiple* good packages so users can browse alternatives.
// This module enumerates the k best distinct packages of a REPEAT 0 query
// by repeatedly solving the ILP and, after each answer, adding a "no-good"
// exclusion cut that forbids the found tuple set (or anything within a
// chosen Hamming distance of it):
//
//   sum_{i in S} (1 - x_i) + sum_{i not in S} x_i >= d
//
// where S is the incumbent support and d the minimum difference. Each cut
// is one row, so enumerating k packages costs k ILP solves over a model
// that grows by k dense rows — practical for the small k a UI would show.
//
// Restricted to REPEAT 0 (binary variables): the exclusion cut above is
// only valid for 0/1 multiplicities. Queries with repetition are rejected
// with kUnsupported rather than silently mis-enumerated.
#ifndef PAQL_CORE_TOPK_H_
#define PAQL_CORE_TOPK_H_

#include <vector>

#include "core/package.h"
#include "engine/exec_context.h"
#include "paql/ast.h"

namespace paql::core {

/// Enumeration-specific knobs; the inherited `branch_and_bound` and the
/// node and memory `limits` budget each of the k ILP solves, and the time
/// limit covers all k together.
struct TopKOptions : engine::ExecContext {
  /// How many packages to return (fewer when the space runs dry).
  size_t k = 5;
  /// Minimum Hamming distance (tuples swapped in or out) between any two
  /// returned packages. 1 = merely distinct; larger values force diversity.
  int64_t min_difference = 1;
};

/// The k best distinct packages of `query` over `table`, best first.
/// Requires REPEAT 0 and an objective clause. Returns fewer than k results
/// when no further feasible package exists; returns kInfeasible only when
/// not even one exists.
Result<std::vector<EvalResult>> EnumerateTopPackages(
    const relation::Table& table, const translate::CompiledQuery& query,
    const TopKOptions& options = {});

Result<std::vector<EvalResult>> EnumerateTopPackages(
    const relation::Table& table, const lang::PackageQuery& query,
    const TopKOptions& options = {});

}  // namespace paql::core

#endif  // PAQL_CORE_TOPK_H_
