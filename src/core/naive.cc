#include "core/naive.h"

#include <cmath>

#include "common/stopwatch.h"
#include "common/str_util.h"

namespace paql::core {

using relation::RowId;

NaiveSelfJoinEvaluator::NaiveSelfJoinEvaluator(const relation::Table& table,
                                               NaiveOptions options)
    : table_(&table), options_(options) {}

double NaiveSelfJoinEvaluator::CombinationCount(size_t n, int c) {
  double total = 1;
  for (int i = 0; i < c; ++i) {
    total *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return total;
}

Result<EvalResult> NaiveSelfJoinEvaluator::Evaluate(
    const translate::CompiledQuery& query, int cardinality) const {
  if (cardinality < 1) {
    return Status::InvalidArgument("cardinality must be >= 1");
  }
  if (query.per_tuple_ub() != 1.0) {
    return Status::Unsupported(
        "the self-join formulation only supports REPEAT 0 queries "
        "(paper Section 2: strict cardinality, no repetition)");
  }
  Stopwatch total;
  EvalResult result;
  Deadline deadline(options_.time_limit_s);

  // Row at a time through the reference closures, like the package checks
  // below: NAIVE is an oracle, independent of the batch kernels that build
  // every other strategy's model.
  std::vector<RowId> base = query.ComputeBaseRows(*table_);
  size_t n = base.size();
  if (static_cast<size_t>(cardinality) > n) {
    return Status::Infeasible(
        StrCat("cardinality ", cardinality, " exceeds base relation size ",
               n));
  }

  // Enumerate index-ordered combinations (R1.pk < R2.pk < ... in the SQL
  // formulation), testing the global predicates on each complete tuple of
  // the c-way join — the access path a SQL engine without package support
  // is stuck with.
  std::vector<size_t> choice(cardinality);
  std::vector<RowId> rows(cardinality);
  std::vector<int64_t> mults(cardinality, 1);
  for (int i = 0; i < cardinality; ++i) choice[i] = i;
  bool found = false;
  double best_obj = 0;
  std::vector<size_t> best_choice;
  uint64_t examined = 0;
  bool minimize = !query.maximize();
  while (true) {
    if ((++examined & 1023) == 0 && deadline.Expired()) {
      return Status::ResourceExhausted(
          StrCat("self-join enumeration exceeded ", options_.time_limit_s,
                 "s after ", examined, " of ~",
                 FormatDouble(CombinationCount(n, cardinality), 4),
                 " combinations"));
    }
    for (int i = 0; i < cardinality; ++i) rows[i] = base[choice[i]];
    if (query.PackageSatisfiesGlobals(*table_, rows, mults)) {
      double obj = query.ObjectiveValue(*table_, rows, mults);
      bool better = !found || (minimize ? obj < best_obj : obj > best_obj);
      if (better) {
        found = true;
        best_obj = obj;
        best_choice = choice;
      }
      if (!query.has_objective() && found) break;  // any feasible package
    }
    // Advance to the next combination in lexicographic order.
    int i = cardinality - 1;
    while (i >= 0 &&
           choice[i] == n - static_cast<size_t>(cardinality - i)) {
      --i;
    }
    if (i < 0) break;
    ++choice[i];
    for (int j = i + 1; j < cardinality; ++j) choice[j] = choice[j - 1] + 1;
  }

  if (!found) {
    return Status::Infeasible("no combination satisfies the query");
  }
  for (size_t idx : best_choice) {
    result.package.rows.push_back(base[idx]);
    result.package.multiplicity.push_back(1);
  }
  result.objective = best_obj;
  result.stats.wall_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace paql::core
