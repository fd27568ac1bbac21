#include "ilp/cuts.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/str_util.h"

namespace paql::ilp {
namespace {

constexpr double kInf = lp::kInf;

/// A knapsack-form view of one side of a range row:
///   sum_j weight_j * y_j <= capacity,   y_j binary,
/// where y_j is x_{var_j} or its complement 1 - x_{var_j}.
struct KnapsackForm {
  struct Item {
    int var = -1;
    double weight = 0;     // > 0 after complementing
    bool complemented = false;
    double frac = 0;       // LP value of y_j in [0, 1]
  };
  std::vector<Item> items;
  double capacity = 0;
};

/// Build the knapsack form of `sum coefs*x <= rhs` over the binary integer
/// variables of the row. Non-binary variables contribute their worst-case
/// (minimum) activity to keep the form valid; rows with an unbounded
/// non-binary contribution have no finite form and return false.
bool BuildKnapsackForm(const lp::Model& model, const lp::RowDef& row,
                       double rhs, double side_sign,
                       const std::vector<double>& x, KnapsackForm* out) {
  out->items.clear();
  out->capacity = side_sign * rhs;
  const auto& lb = model.lb();
  const auto& ub = model.ub();
  const auto& is_int = model.is_integer();
  for (size_t k = 0; k < row.vars.size(); ++k) {
    int j = row.vars[k];
    double a = side_sign * row.coefs[k];
    if (a == 0) continue;
    bool binary = is_int[j] && lb[j] == 0 && ub[j] == 1;
    if (!binary) {
      // Shift the bound by the variable's minimum possible contribution.
      double contrib = a > 0 ? a * lb[j] : a * ub[j];
      if (std::isinf(contrib)) return false;
      out->capacity -= contrib;
      continue;
    }
    KnapsackForm::Item item;
    item.var = j;
    if (a > 0) {
      item.weight = a;
      item.complemented = false;
      item.frac = std::clamp(x[j], 0.0, 1.0);
    } else {
      // a*x = a - a*(1-x): complement so the weight is positive.
      item.weight = -a;
      item.complemented = true;
      item.frac = std::clamp(1.0 - x[j], 0.0, 1.0);
      out->capacity -= a;  // capacity - a > capacity since a < 0
    }
    out->items.push_back(item);
  }
  return out->capacity >= 0 && out->items.size() >= 2;
}

/// Convert a cover inequality sum_{j in E} y_j <= rhs back to original
/// variables and package it as a Cut.
Cut MakeCoverCut(const KnapsackForm& form, const std::vector<size_t>& member,
                 double rhs, const std::vector<double>& x) {
  Cut cut;
  double bound = rhs;
  for (size_t idx : member) {
    const auto& item = form.items[idx];
    if (item.complemented) {
      // (1 - x_j) term: subtract x_j from the LHS and 1 from the bound.
      cut.row.vars.push_back(item.var);
      cut.row.coefs.push_back(-1.0);
      bound -= 1.0;
    } else {
      cut.row.vars.push_back(item.var);
      cut.row.coefs.push_back(1.0);
    }
  }
  cut.row.lo = -kInf;
  cut.row.hi = bound;
  cut.row.name = StrCat("cover(", member.size(), ")");
  double activity = 0;
  for (size_t k = 0; k < cut.row.vars.size(); ++k) {
    activity += cut.row.coefs[k] * x[cut.row.vars[k]];
  }
  cut.violation = activity - bound;
  return cut;
}

/// Greedy most-violated minimal-cover separation over one knapsack form.
/// Returns true and fills `cut` when a cut violated by more than
/// `min_violation` exists.
bool SeparateOneCover(const KnapsackForm& form, const std::vector<double>& x,
                      double min_violation, Cut* cut) {
  double total_weight = 0;
  for (const auto& item : form.items) total_weight += item.weight;
  if (total_weight <= form.capacity) return false;  // no cover exists

  // Greedy: take items by descending fractional value (they contribute the
  // most violation per unit), heavier first on ties, until a cover forms.
  std::vector<size_t> order(form.items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (form.items[a].frac != form.items[b].frac) {
      return form.items[a].frac > form.items[b].frac;
    }
    return form.items[a].weight > form.items[b].weight;
  });
  std::vector<size_t> cover;
  double weight = 0;
  for (size_t idx : order) {
    cover.push_back(idx);
    weight += form.items[idx].weight;
    if (weight > form.capacity + 1e-12) break;
  }
  if (weight <= form.capacity + 1e-12) return false;

  // Minimalize: drop members whose removal keeps the cover property,
  // lowest-fraction first (they cost violation, and removal shrinks |C|).
  // One pass compacts the survivors in place; `size` counts the members
  // kept so far plus those not yet examined, so the size > 2 test reads
  // the same cover size at every step as an erase per drop would.
  std::sort(cover.begin(), cover.end(), [&](size_t a, size_t b) {
    return form.items[a].frac < form.items[b].frac;
  });
  size_t size = cover.size();
  size_t kept = 0;
  for (size_t idx : cover) {
    double w = form.items[idx].weight;
    if (size > 2 && weight - w > form.capacity + 1e-12) {
      weight -= w;
      --size;
    } else {
      cover[kept++] = idx;
    }
  }
  cover.resize(kept);

  // Extended cover (simple lifting): every non-member at least as heavy as
  // the heaviest member joins with coefficient 1. Valid for minimal covers:
  // selecting such an item plus |C|-1 members already exceeds capacity.
  double max_weight = 0;
  std::vector<bool> in_cover(form.items.size(), false);
  for (size_t idx : cover) {
    max_weight = std::max(max_weight, form.items[idx].weight);
    in_cover[idx] = true;
  }
  std::vector<size_t> extended = cover;
  for (size_t idx = 0; idx < form.items.size(); ++idx) {
    if (in_cover[idx]) continue;
    if (form.items[idx].weight >= max_weight - 1e-12) {
      extended.push_back(idx);
    }
  }

  *cut = MakeCoverCut(form, extended,
                      static_cast<double>(cover.size()) - 1.0, x);
  return cut->violation > min_violation;
}

/// True when `v` is integral within tolerance.
bool IsIntegral(double v) { return std::abs(v - std::round(v)) < 1e-9; }

/// Structural identity of a cut for de-duplication: its (var, coef) terms
/// in sorted order and its bounds.
struct CutSignature {
  std::vector<std::pair<int, double>> terms;
  double lo = 0;
  double hi = 0;

  bool operator==(const CutSignature&) const = default;
};

CutSignature SignatureOf(const Cut& cut) {
  CutSignature sig;
  sig.terms.reserve(cut.row.vars.size());
  for (size_t k = 0; k < cut.row.vars.size(); ++k) {
    sig.terms.emplace_back(cut.row.vars[k], cut.row.coefs[k]);
  }
  std::sort(sig.terms.begin(), sig.terms.end());
  sig.lo = cut.row.lo;
  sig.hi = cut.row.hi;
  return sig;
}

/// 64-bit hash of a signature, consistent with its operator== (adding 0.0
/// folds -0.0 into +0.0, which compare equal). The set that uses it
/// compares signatures exactly on a collision.
struct CutSignatureHash {
  size_t operator()(const CutSignature& sig) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    };
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v + 0.0); };
    for (const auto& [var, coef] : sig.terms) {
      mix(static_cast<uint64_t>(static_cast<uint32_t>(var)));
      mix(bits(coef));
    }
    mix(bits(sig.lo));
    mix(bits(sig.hi));
    return static_cast<size_t>(h);
  }
};

}  // namespace

std::vector<Cut> SeparateCoverCuts(const lp::Model& model,
                                   const std::vector<double>& x,
                                   const CutOptions& options) {
  std::vector<Cut> cuts;
  KnapsackForm form;
  for (const lp::RowDef& row : model.rows()) {
    // Each finite side of a range row yields one knapsack form:
    //   ax <= hi directly, and lo <= ax as (-a)x <= -lo.
    for (int side = 0; side < 2; ++side) {
      double rhs = side == 0 ? row.hi : row.lo;
      if (std::isinf(rhs)) continue;
      double sign = side == 0 ? 1.0 : -1.0;
      if (!BuildKnapsackForm(model, row, rhs, sign, x, &form)) continue;
      Cut cut;
      if (SeparateOneCover(form, x, options.min_violation, &cut)) {
        cuts.push_back(std::move(cut));
      }
    }
  }
  return cuts;
}

std::vector<Cut> SeparateCgCuts(const lp::Model& model,
                                const std::vector<double>& x,
                                const CutOptions& options) {
  std::vector<Cut> cuts;
  const auto& lb = model.lb();
  const auto& is_int = model.is_integer();
  for (const lp::RowDef& row : model.rows()) {
    // Chvatal-Gomory rounding needs nonnegative integer variables and
    // integral coefficients on this row.
    bool eligible = true;
    for (size_t k = 0; k < row.vars.size() && eligible; ++k) {
      int j = row.vars[k];
      eligible = is_int[j] && lb[j] >= 0 && IsIntegral(row.coefs[k]);
    }
    if (!eligible || row.vars.empty()) continue;
    for (int side = 0; side < 2; ++side) {
      double rhs = side == 0 ? row.hi : row.lo;
      if (std::isinf(rhs)) continue;
      double sign = side == 0 ? 1.0 : -1.0;
      // Multiply by u = 1/2 and round down: sum floor(a_j/2) x_j <=
      // floor(rhs/2). Only odd data can tighten anything.
      Cut cut;
      double activity = 0;
      for (size_t k = 0; k < row.vars.size(); ++k) {
        double a = std::floor(sign * row.coefs[k] / 2.0);
        if (a == 0) continue;
        cut.row.vars.push_back(row.vars[k]);
        cut.row.coefs.push_back(a);
        activity += a * x[row.vars[k]];
      }
      if (cut.row.vars.empty()) continue;
      cut.row.lo = -kInf;
      cut.row.hi = std::floor(sign * rhs / 2.0);
      cut.row.name = "cg(1/2)";
      cut.violation = activity - cut.row.hi;
      if (cut.violation > options.min_violation) {
        cuts.push_back(std::move(cut));
      }
    }
  }
  return cuts;
}

std::vector<Cut> SeparateCuts(const lp::Model& model,
                              const std::vector<double>& x,
                              const CutOptions& options) {
  std::vector<Cut> all;
  if (options.cover_cuts) {
    auto cover = SeparateCoverCuts(model, x, options);
    all.insert(all.end(), std::make_move_iterator(cover.begin()),
               std::make_move_iterator(cover.end()));
  }
  if (options.cg_cuts) {
    auto cg = SeparateCgCuts(model, x, options);
    all.insert(all.end(), std::make_move_iterator(cg.begin()),
               std::make_move_iterator(cg.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
  std::vector<Cut> out;
  std::unordered_set<CutSignature, CutSignatureHash> seen;
  for (Cut& cut : all) {
    if (static_cast<int>(out.size()) >= options.max_cuts_per_round) break;
    if (!seen.insert(SignatureOf(cut)).second) continue;
    out.push_back(std::move(cut));
  }
  return out;
}

}  // namespace paql::ilp
