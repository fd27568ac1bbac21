// Multi-relation FROM clauses: join materialization + query rewriting
// (paper Section 4.5, "Handling joins").
//
// PaQL's grammar permits several relations in the FROM clause; the paper
// evaluates single-relation queries and notes that, in the presence of
// joins, "the system can simply evaluate and materialize the join result
// before applying the package-specific transformations". This module does
// exactly that:
//
//   1. resolve every FROM relation against a caller-supplied catalog;
//   2. split the WHERE clause into equi-join predicates (alias1.col =
//      alias2.col across different relations) and residual base predicates;
//   3. join left-to-right — hash joins where an equi predicate links the
//      next relation to the accumulated result, cross join otherwise
//      (guarded) — producing a table whose columns are "<alias>_<column>";
//   4. rewrite the query onto the joined table: column references in the
//      residual WHERE, SUCH THAT, and objective are renamed; qualified
//      references ("alias.col") map directly, unqualified and
//      package-qualified references must be unambiguous across inputs.
//
// The rewritten query is single-relation, so every evaluator (DIRECT,
// SKETCHREFINE, ratio objective, top-k) runs on it unchanged — this
// mirrors the paper's construction of the pre-joined TPC-H table.
#ifndef PAQL_CORE_FROM_CLAUSE_H_
#define PAQL_CORE_FROM_CLAUSE_H_

#include <map>
#include <string>

#include "common/status.h"
#include "paql/ast.h"
#include "relation/table.h"

namespace paql::core {

/// Name -> table binding for FROM resolution. Pointers are not owned and
/// must outlive the call.
using Catalog = std::map<std::string, const relation::Table*>;

struct MaterializedFrom {
  /// The joined (or, for single-relation queries, copied) input relation.
  relation::Table table;
  /// The query rewritten against `table` (single FROM, renamed columns).
  lang::PackageQuery query;
  /// How many equi-join predicates were consumed from WHERE.
  size_t join_predicates_used = 0;
  /// True when some join step had no linking predicate (cross join).
  bool used_cross_join = false;
};

struct FromClauseOptions {
  /// Name given to the materialized relation in the rewritten query.
  std::string joined_relation_name = "joined";
  /// Row guard forwarded to the join operators.
  size_t max_result_rows = 50'000'000;
};

/// Materialize `query`'s FROM clause against `catalog` and rewrite the
/// query onto the join result. Single-relation queries pass through
/// unchanged (a copy of the input table, no column renaming).
Result<MaterializedFrom> MaterializeFromClause(
    const lang::PackageQuery& query, const Catalog& catalog,
    const FromClauseOptions& options = {});

}  // namespace paql::core

#endif  // PAQL_CORE_FROM_CLAUSE_H_
