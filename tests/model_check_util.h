// Column-by-column check of a batch-built package ILP against the
// row-at-a-time reference evaluator of the same CompiledQuery.
//
// CompiledQuery::BuildModel fills every objective and constraint
// coefficient through the batch kernels. The reference entry points
// (LeafActivities, ObjectiveValue) evaluate the scalar closures one row at
// a time, so for the single-tuple package {r: 1} they return exactly the
// coefficients variable r must carry: the batch kernels replay the scalar
// floating-point operation order, so the comparison is bit for bit.
#ifndef PAQL_TESTS_MODEL_CHECK_UTIL_H_
#define PAQL_TESTS_MODEL_CHECK_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "lp/model.h"
#include "relation/column_source.h"
#include "translate/compiled_query.h"

namespace paql {

/// Expects `model`, built by `cq` over the candidate `rows` of `table`, to
/// carry the reference coefficients in every tuple column:
///   * objective: ObjectiveValue({r}, {1}) minus the objective's constant
///     (bit for bit when the constant is zero);
///   * leaf rows: LeafActivities({r}, {1}). In OR-free trees the model has
///     exactly one row per leaf, in leaf order. OR trees add big-M
///     indicator columns and "OR choice" rows; there, each leaf row's tuple
///     entries must equal the reference column of a leaf with that name.
inline void ExpectModelMatchesReference(
    const translate::CompiledQuery& cq, const relation::ColumnSource& table,
    const std::vector<relation::RowId>& rows, const lp::Model& model) {
  ASSERT_GE(model.num_vars(), static_cast<int>(rows.size()));
  const double constant = cq.ObjectiveValue(table, {}, {});
  std::vector<std::vector<double>> reference(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    const double expected = cq.ObjectiveValue(table, {rows[k]}, {1}) - constant;
    // Subtracting a nonzero constant back out may round; exact otherwise.
    if (constant == 0.0) {
      EXPECT_EQ(model.obj()[k], expected)
          << "objective, column " << k << " (row " << rows[k] << ")";
    } else {
      EXPECT_NEAR(model.obj()[k], expected,
                  1e-9 * (1.0 + std::abs(constant) + std::abs(expected)))
          << "objective, column " << k << " (row " << rows[k] << ")";
    }
    reference[k] = cq.LeafActivities(table, {rows[k]}, {1});
  }

  // Tuple entries of leaf `li`'s reference column, in model row layout.
  auto reference_row = [&](size_t li) {
    std::pair<std::vector<int>, std::vector<double>> out;
    for (size_t k = 0; k < rows.size(); ++k) {
      if (reference[k][li] != 0.0) {
        out.first.push_back(static_cast<int>(k));
        out.second.push_back(reference[k][li]);
      }
    }
    return out;
  };
  auto tuple_entries = [&](const lp::RowDef& row) {
    std::pair<std::vector<int>, std::vector<double>> out;
    for (size_t e = 0; e < row.vars.size(); ++e) {
      if (row.vars[e] < static_cast<int>(rows.size())) {
        out.first.push_back(row.vars[e]);
        out.second.push_back(row.coefs[e]);
      }
    }
    return out;
  };

  if (cq.CanUpdateOffsets()) {
    if (cq.num_leaf_constraints() == 0) return;
    ASSERT_EQ(model.num_rows(), static_cast<int>(cq.num_leaf_constraints()));
    for (size_t li = 0; li < cq.num_leaf_constraints(); ++li) {
      const lp::RowDef& row = model.rows()[li];
      EXPECT_EQ(row.name, cq.leaf_name(li)) << "row " << li;
      auto expected = reference_row(li);
      EXPECT_EQ(row.vars, expected.first) << "row " << li << " (" << row.name
                                          << ")";
      EXPECT_EQ(row.coefs, expected.second)
          << "row " << li << " (" << row.name << ")";
    }
    return;
  }
  for (int i = 0; i < model.num_rows(); ++i) {
    const lp::RowDef& row = model.rows()[i];
    if (row.name == "OR choice") continue;
    auto actual = tuple_entries(row);
    bool matched = false;
    for (size_t li = 0; li < cq.num_leaf_constraints() && !matched; ++li) {
      matched = cq.leaf_name(li) == row.name && reference_row(li) == actual;
    }
    EXPECT_TRUE(matched) << "row " << i << " (" << row.name
                         << ") matches no leaf's reference column";
  }
}

}  // namespace paql

#endif  // PAQL_TESTS_MODEL_CHECK_UTIL_H_
