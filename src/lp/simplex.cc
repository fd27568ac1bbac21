#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/str_util.h"

namespace paql::lp {

namespace {

/// Below this many cells the dense column-major fallback wins: no index
/// indirection, and rebuilding it per solver is cheaper than a CSC pass.
constexpr size_t kDenseColsLimit = 4096;

/// Candidate-list pricing needs enough columns to amortize the list
/// bookkeeping; tiny models full-sweep regardless of the toggle.
constexpr int kPartialMinCols = 64;

}  // namespace

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "Optimal";
    case LpStatus::kInfeasible: return "Infeasible";
    case LpStatus::kUnbounded: return "Unbounded";
    case LpStatus::kIterationLimit: return "IterationLimit";
    case LpStatus::kTimeLimit: return "TimeLimit";
  }
  return "Unknown";
}

SimplexSolver::SimplexSolver(const Model& model, SimplexOptions options)
    : model_(&model), options_(options) {
  m_ = model.num_rows();
  n_ = model.num_vars();
  total_ = n_ + m_;
  obj_sign_ = model.sense() == Sense::kMaximize ? -1.0 : 1.0;

  // Column storage: dense column-major for small models; CSC otherwise
  // (reusing the model's attached view when translate built one).
  if (static_cast<size_t>(n_) * m_ <= kDenseColsLimit) {
    dense_ = true;
    dense_cols_.assign(static_cast<size_t>(n_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const RowDef& row = model.rows()[i];
      for (size_t k = 0; k < row.vars.size(); ++k) {
        dense_cols_[static_cast<size_t>(row.vars[k]) * m_ + i] += row.coefs[k];
      }
    }
  } else if (std::shared_ptr<const SparseMatrix> attached =
                 model.shared_columns();
             attached != nullptr && attached->num_cols() == n_ &&
             attached->num_rows() == m_) {
    attached_hold_ = std::move(attached);
    csc_ = attached_hold_.get();
  } else {
    owned_csc_ = SparseMatrix::FromModel(model);
    csc_ = &owned_csc_;
  }

  cost_.assign(total_, 0.0);
  lb_.resize(total_);
  ub_.resize(total_);
  for (int j = 0; j < n_; ++j) {
    cost_[j] = obj_sign_ * model.obj()[j];
    lb_[j] = model.lb()[j];
    ub_[j] = model.ub()[j];
  }
  for (int i = 0; i < m_; ++i) {
    lb_[n_ + i] = model.rows()[i].lo;
    ub_[n_ + i] = model.rows()[i].hi;
  }
  status_.assign(total_, VarStatus::kAtLower);
  basis_.assign(m_, -1);
  binv0_.assign(static_cast<size_t>(m_) * m_, 0.0);
  xb_.assign(m_, 0.0);
  devex_w_.assign(total_, 1.0);
  dse_w_.assign(m_, 1.0);
}

size_t SimplexSolver::ApproximateBytes() const {
  size_t columns = dense_ ? dense_cols_.size() * sizeof(double)
                          : csc_->ApproximateBytes();
  return columns + binv0_.size() * sizeof(double) +
         etas_.size() * (sizeof(Eta) + m_ * sizeof(double)) +
         (cost_.size() + lb_.size() + ub_.size() + devex_w_.size()) *
             sizeof(double) +
         status_.size() + (basis_.size() + active_.size()) * sizeof(int);
}

double SimplexSolver::ColDot(const double* y, int j) const {
  if (dense_) {
    const double* col = dense_cols_.data() + static_cast<size_t>(j) * m_;
    double dot = 0;
    for (int i = 0; i < m_; ++i) dot += y[i] * col[i];
    return dot;
  }
  return csc_->ColumnDot(y, j);
}

void SimplexSolver::ScatterCol(int j, double scale, double* out) const {
  if (dense_) {
    const double* col = dense_cols_.data() + static_cast<size_t>(j) * m_;
    for (int i = 0; i < m_; ++i) out[i] += scale * col[i];
    return;
  }
  csc_->ScatterColumnScaled(j, scale, out);
}

void SimplexSolver::SetVarBounds(int var, double lb, double ub) {
  PAQL_CHECK(var >= 0 && var < n_);
  PAQL_CHECK_MSG(lb <= ub, "crossed bounds for x" << var);
  lb_[var] = lb;
  ub_[var] = ub;
  active_dirty_ = true;
  if (status_[var] == VarStatus::kBasic) return;
  // Keep the nonbasic variable resting on a bound that still exists.
  if (status_[var] == VarStatus::kAtUpper && std::isinf(ub)) {
    status_[var] =
        std::isinf(lb) ? VarStatus::kFree : VarStatus::kAtLower;
  } else if (status_[var] == VarStatus::kAtLower && std::isinf(lb)) {
    status_[var] = std::isinf(ub) ? VarStatus::kFree : VarStatus::kAtUpper;
  } else if (status_[var] == VarStatus::kFree && !std::isinf(lb)) {
    status_[var] = VarStatus::kAtLower;
  }
}

void SimplexSolver::ResetVarBounds() {
  for (int j = 0; j < n_; ++j) {
    SetVarBounds(j, model_->lb()[j], model_->ub()[j]);
  }
}

void SimplexSolver::RefreshActiveColumns() {
  if (!active_dirty_) return;
  active_.clear();
  active_.reserve(static_cast<size_t>(total_));
  for (int j = 0; j < total_; ++j) {
    // A fixed variable (lb == ub: presolve leftovers, branching, reduced-
    // cost fixing) can never move; drop it here once instead of re-testing
    // it inside every pricing and dual-ratio-test sweep.
    if (lb_[j] == ub_[j]) continue;
    active_.push_back(j);
  }
  active_dirty_ = false;
}

double SimplexSolver::NonbasicValue(int j) const {
  switch (status_[j]) {
    case VarStatus::kAtLower: return lb_[j];
    case VarStatus::kAtUpper: return ub_[j];
    case VarStatus::kFree: return 0.0;
    case VarStatus::kBasic: break;
  }
  PAQL_CHECK_MSG(false, "NonbasicValue on basic variable " << j);
  return 0.0;
}

void SimplexSolver::InitAllSlackBasis() {
  for (int j = 0; j < n_; ++j) {
    if (!std::isinf(lb_[j])) {
      status_[j] = VarStatus::kAtLower;
    } else if (!std::isinf(ub_[j])) {
      status_[j] = VarStatus::kAtUpper;
    } else {
      status_[j] = VarStatus::kFree;
    }
  }
  for (int i = 0; i < m_; ++i) {
    basis_[i] = n_ + i;
    status_[n_ + i] = VarStatus::kBasic;
  }
  // B = -I  =>  B^{-1} = -I.
  std::fill(binv0_.begin(), binv0_.end(), 0.0);
  for (int i = 0; i < m_; ++i) binv0_[static_cast<size_t>(i) * m_ + i] = -1.0;
  etas_.clear();
  basis_valid_ = true;
  pivots_since_refactor_ = 0;
  // Fresh basis geometry: restart the devex reference framework and drop
  // any stale pricing candidates. The steepest-edge row weights reset to 1
  // too (for B = -I they are exact: ||B^{-T}e_r||^2 = 1); this is the
  // devex-style fallback the recurrence restarts from.
  std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
  std::fill(dse_w_.begin(), dse_w_.end(), 1.0);
  cand_.clear();
  pivots_since_rebuild_ = 0;
}

Basis SimplexSolver::SnapshotBasis() const {
  Basis out;
  out.valid = basis_valid_;
  out.status.resize(static_cast<size_t>(total_));
  for (int j = 0; j < total_; ++j) {
    out.status[static_cast<size_t>(j)] = static_cast<uint8_t>(status_[j]);
  }
  out.rows.assign(basis_.begin(), basis_.end());
  return out;
}

bool SimplexSolver::RestoreBasis(const Basis& basis) {
  if (!basis.valid || basis.status.size() != static_cast<size_t>(total_) ||
      basis.rows.size() != static_cast<size_t>(m_)) {
    return false;
  }
  // Validate internal consistency before touching solver state: every row's
  // basic variable must be in range, marked basic, and unique, and exactly
  // m variables may be basic.
  int basic_count = 0;
  for (int j = 0; j < total_; ++j) {
    uint8_t s = basis.status[static_cast<size_t>(j)];
    if (s > static_cast<uint8_t>(VarStatus::kFree)) return false;
    if (s == static_cast<uint8_t>(VarStatus::kBasic)) ++basic_count;
  }
  if (basic_count != m_) return false;
  std::vector<bool> seen(static_cast<size_t>(total_), false);
  for (int i = 0; i < m_; ++i) {
    int b = basis.rows[static_cast<size_t>(i)];
    if (b < 0 || b >= total_ || seen[static_cast<size_t>(b)] ||
        basis.status[static_cast<size_t>(b)] !=
            static_cast<uint8_t>(VarStatus::kBasic)) {
      return false;
    }
    seen[static_cast<size_t>(b)] = true;
  }

  for (int j = 0; j < total_; ++j) {
    status_[j] = static_cast<VarStatus>(basis.status[static_cast<size_t>(j)]);
  }
  std::copy(basis.rows.begin(), basis.rows.end(), basis_.begin());
  // Renormalize nonbasic statuses onto bounds that exist under the current
  // model (the snapshot may come from a solve with different bounds).
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    if (status_[j] == VarStatus::kAtLower && std::isinf(lb_[j])) {
      status_[j] = std::isinf(ub_[j]) ? VarStatus::kFree : VarStatus::kAtUpper;
    } else if (status_[j] == VarStatus::kAtUpper && std::isinf(ub_[j])) {
      status_[j] = std::isinf(lb_[j]) ? VarStatus::kFree : VarStatus::kAtLower;
    } else if (status_[j] == VarStatus::kFree && !std::isinf(lb_[j])) {
      status_[j] = VarStatus::kAtLower;
    }
  }
  if (!Refactorize()) {
    basis_valid_ = false;
    return false;
  }
  basis_valid_ = true;
  // The restored basis came from elsewhere; its devex history and the
  // steepest-edge row weights are stale. Reset both to the reference
  // framework (weight 1) — the devex-style fallback.
  std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
  std::fill(dse_w_.begin(), dse_w_.end(), 1.0);
  cand_.clear();
  pivots_since_rebuild_ = 0;
  return true;
}

bool SimplexSolver::Refactorize() {
  // Build the basis matrix B column-by-column and invert with Gauss-Jordan
  // (partial pivoting). m_ is tiny, so O(m^3) is negligible.
  std::vector<double> work(static_cast<size_t>(m_) * 2 * m_, 0.0);
  auto at = [&](int r, int c) -> double& { return work[r * 2 * m_ + c]; };
  std::vector<double> colbuf(static_cast<size_t>(m_));
  for (int c = 0; c < m_; ++c) {
    int j = basis_[c];
    if (j < n_) {
      std::fill(colbuf.begin(), colbuf.end(), 0.0);
      ScatterCol(j, 1.0, colbuf.data());
      for (int r = 0; r < m_; ++r) at(r, c) = colbuf[r];
    } else {
      at(j - n_, c) = -1.0;
    }
  }
  for (int r = 0; r < m_; ++r) at(r, m_ + r) = 1.0;

  for (int col = 0; col < m_; ++col) {
    int pivot_row = col;
    double best = std::abs(at(col, col));
    for (int r = col + 1; r < m_; ++r) {
      if (std::abs(at(r, col)) > best) {
        best = std::abs(at(r, col));
        pivot_row = r;
      }
    }
    if (best < options_.pivot_tol) return false;  // singular basis
    if (pivot_row != col) {
      for (int c = 0; c < 2 * m_; ++c) std::swap(at(col, c), at(pivot_row, c));
    }
    double pivot = at(col, col);
    for (int c = 0; c < 2 * m_; ++c) at(col, c) /= pivot;
    for (int r = 0; r < m_; ++r) {
      if (r == col) continue;
      double factor = at(r, col);
      if (factor == 0.0) continue;
      for (int c = 0; c < 2 * m_; ++c) at(r, c) -= factor * at(col, c);
    }
  }
  for (int r = 0; r < m_; ++r) {
    for (int c = 0; c < m_; ++c) {
      binv0_[static_cast<size_t>(r) * m_ + c] = at(r, m_ + c);
    }
  }
  etas_.clear();
  pivots_since_refactor_ = 0;
  return true;
}

void SimplexSolver::ApplyEtas(std::vector<double>* v) const {
  for (const Eta& e : etas_) {
    double t = (*v)[e.row];
    if (t == 0.0) continue;
    for (int i = 0; i < m_; ++i) {
      if (i == e.row) continue;
      (*v)[i] += e.col[i] * t;
    }
    (*v)[e.row] = e.col[e.row] * t;
  }
}

void SimplexSolver::FtranVec(std::vector<double>* v) const {
  // v <- B0^{-1} v, then the eta factors in pivot order.
  std::vector<double> tmp(static_cast<size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const double* row = binv0_.data() + static_cast<size_t>(i) * m_;
    double s = 0;
    for (int k = 0; k < m_; ++k) s += row[k] * (*v)[k];
    tmp[i] = s;
  }
  *v = std::move(tmp);
  ApplyEtas(v);
}

void SimplexSolver::BtranVec(std::vector<double>* y) const {
  // y^T B^{-1} = (((y^T E_k) E_{k-1}) ... E_1) B0^{-1}: etas in reverse,
  // each replacing y[row] with dot(y, eta column), then the dense multiply.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double dot = 0;
    for (int i = 0; i < m_; ++i) dot += (*y)[i] * it->col[i];
    (*y)[it->row] = dot;
  }
  std::vector<double> tmp(static_cast<size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    double yr = (*y)[r];
    if (yr == 0.0) continue;
    const double* row = binv0_.data() + static_cast<size_t>(r) * m_;
    for (int c = 0; c < m_; ++c) tmp[c] += yr * row[c];
  }
  *y = std::move(tmp);
}

void SimplexSolver::PushEta(int leave_row, const std::vector<double>& w) {
  double pivot = w[leave_row];
  PAQL_CHECK_MSG(std::abs(pivot) >= options_.pivot_tol,
                 "tiny pivot " << pivot);
  Eta eta;
  eta.row = leave_row;
  eta.col.resize(static_cast<size_t>(m_));
  for (int i = 0; i < m_; ++i) eta.col[i] = -w[i] / pivot;
  eta.col[leave_row] = 1.0 / pivot;
  etas_.push_back(std::move(eta));
  ++pivots_since_refactor_;
}

void SimplexSolver::ComputeBasicValues() {
  // x_B = -B^{-1} (sum over nonbasic j of A_j x_j).
  std::vector<double> r(static_cast<size_t>(m_), 0.0);
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    double xj = NonbasicValue(j);
    if (xj == 0.0) continue;
    if (j < n_) {
      ScatterCol(j, xj, r.data());
    } else {
      r[j - n_] -= xj;
    }
  }
  FtranVec(&r);
  for (int i = 0; i < m_; ++i) xb_[i] = -r[i];
}

double SimplexSolver::TotalInfeasibility() const {
  double total = 0;
  for (int i = 0; i < m_; ++i) {
    int b = basis_[i];
    double tol = options_.feas_tol * (1.0 + std::abs(xb_[i]));
    if (xb_[i] < lb_[b] - tol) total += lb_[b] - xb_[i];
    if (xb_[i] > ub_[b] + tol) total += xb_[i] - ub_[b];
  }
  return total;
}

void SimplexSolver::ComputeDuals(bool phase1, std::vector<double>* y) const {
  y->assign(static_cast<size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    int b = basis_[i];
    if (phase1) {
      double tol = options_.feas_tol * (1.0 + std::abs(xb_[i]));
      if (xb_[i] < lb_[b] - tol) (*y)[i] = -1.0;
      else if (xb_[i] > ub_[b] + tol) (*y)[i] = 1.0;
    } else {
      (*y)[i] = cost_[b];
    }
  }
  // y^T = c_B^T B^{-1}.
  BtranVec(y);
}

void SimplexSolver::Ftran(int j, std::vector<double>* w) const {
  w->assign(static_cast<size_t>(m_), 0.0);
  if (j < n_) {
    // w0 = B0^{-1} A_j, accumulated per nonzero of A_j (column k of the
    // factorized inverse, scaled).
    if (dense_) {
      const double* col = dense_cols_.data() + static_cast<size_t>(j) * m_;
      for (int i = 0; i < m_; ++i) {
        double v = 0;
        const double* row = binv0_.data() + static_cast<size_t>(i) * m_;
        for (int k = 0; k < m_; ++k) v += row[k] * col[k];
        (*w)[i] = v;
      }
    } else {
      for (size_t k = csc_->begin(j), e = csc_->end(j); k < e; ++k) {
        int r = csc_->entry_row(k);
        double val = csc_->entry_value(k);
        for (int i = 0; i < m_; ++i) {
          (*w)[i] += binv0_[static_cast<size_t>(i) * m_ + r] * val;
        }
      }
    }
  } else {
    int slack_row = j - n_;
    for (int i = 0; i < m_; ++i) {
      (*w)[i] = -binv0_[static_cast<size_t>(i) * m_ + slack_row];
    }
  }
  ApplyEtas(w);
}

std::vector<double> SimplexSolver::ReducedCosts() const {
  std::vector<double> y;
  ComputeDuals(/*phase1=*/false, &y);
  std::vector<double> d(static_cast<size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;  // zero by construction
    d[static_cast<size_t>(j)] = cost_[j] - ColDot(y.data(), j);
  }
  return d;
}

double SimplexSolver::ReducedCost(bool phase1, const std::vector<double>& y,
                                  int j) const {
  double cj = phase1 ? 0.0 : cost_[j];
  if (j < n_) return cj - ColDot(y.data(), j);
  return cj + y[j - n_];
}

double SimplexSolver::PriceScore(int j, double d, double* sigma) const {
  const double kTol = options_.opt_tol;
  switch (status_[j]) {
    case VarStatus::kAtLower:
      if (d < -kTol) {
        *sigma = +1;
        return -d;
      }
      break;
    case VarStatus::kAtUpper:
      if (d > kTol) {
        *sigma = -1;
        return d;
      }
      break;
    case VarStatus::kFree:
      if (std::abs(d) > kTol) {
        *sigma = d < 0 ? +1 : -1;
        return std::abs(d);
      }
      break;
    case VarStatus::kBasic:
      break;
  }
  return 0;
}

int SimplexSolver::RebuildCandidates(bool phase1, const std::vector<double>& y,
                                     double* sigma) {
  // Sectional refill: price rotating windows of the active columns and
  // stop at the first window that yields eligible candidates — entering
  // any column with a favourable reduced cost makes progress, so only the
  // *optimality* claim needs the exhaustive scan. Returning -1 therefore
  // happens only after every active column was priced under the current
  // duals at the standard tolerance: an exact full sweep, identical to
  // what the full-Dantzig mode would conclude.
  pivots_since_rebuild_ = 0;
  cand_.clear();
  const size_t active_count = active_.size();
  if (active_count == 0) return -1;
  const size_t list_size =
      static_cast<size_t>(std::max(1, options_.pricing_list_size));
  const size_t section_len =
      std::max(list_size * 4, (active_count + 15) / 16);
  if (section_cursor_ >= active_count) section_cursor_ = 0;

  // Min-heap of (devex score, var) keeping the top `list_size` candidates.
  std::vector<std::pair<double, int>> heap;
  heap.reserve(list_size + 1);
  int best = -1;
  double best_score = 0;
  double best_sigma = 0;
  size_t scanned = 0;
  while (scanned < active_count) {
    size_t len = std::min(section_len, active_count - scanned);
    for (size_t step = 0; step < len; ++step) {
      int j = active_[section_cursor_];
      section_cursor_ = section_cursor_ + 1 == active_count
                            ? 0
                            : section_cursor_ + 1;
      if (status_[j] == VarStatus::kBasic) continue;
      double d = ReducedCost(phase1, y, j);
      double sig = 0;
      double s = PriceScore(j, d, &sig);
      if (s <= 0) continue;
      double score = s * s / devex_w_[j];
      if (score > best_score) {
        best_score = score;
        best = j;
        best_sigma = sig;
      }
      // One O(1) compare per eligible column once the heap is saturated —
      // package-LP phase-1 windows see a flood of eligible columns, so the
      // heap must only pay log(list) for genuine top-list improvements.
      if (heap.size() >= list_size && score <= heap.front().first) continue;
      heap.emplace_back(score, j);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      if (heap.size() > list_size) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        heap.pop_back();
      }
    }
    scanned += len;
    if (best >= 0) break;  // this window feeds the next pivots
  }
  for (const auto& [score, j] : heap) cand_.push_back(j);
  if (best >= 0) *sigma = best_sigma;
  return best;
}

int SimplexSolver::PriceEntering(bool phase1, const std::vector<double>& y,
                                 bool bland, double* sigma) {
  if (bland) {
    // Bland's rule: the first eligible index (active_ ascends), immune to
    // devex weights and candidate staleness — the anti-cycling guarantee.
    for (int j : active_) {
      if (status_[j] == VarStatus::kBasic) continue;
      double d = ReducedCost(phase1, y, j);
      double sig = 0;
      if (PriceScore(j, d, &sig) > 0) {
        *sigma = sig;
        return j;
      }
    }
    return -1;  // an exhaustive sweep found nothing: optimal
  }
  if (!options_.partial_pricing || total_ < kPartialMinCols) {
    // Full Dantzig sweep: most negative reduced cost wins (the exact
    // pre-sparse behaviour; first index wins ties, as before).
    int enter = -1;
    double enter_sigma = 0;
    double best_score = options_.opt_tol;
    for (int j : active_) {
      if (status_[j] == VarStatus::kBasic) continue;
      double d = ReducedCost(phase1, y, j);
      double sig = 0;
      double s = PriceScore(j, d, &sig);
      if (s > best_score) {
        best_score = s;
        enter = j;
        enter_sigma = sig;
      }
    }
    if (enter >= 0) *sigma = enter_sigma;
    return enter;
  }
  // Candidate-list devex pricing: re-price only the list; fall back to the
  // exact rebuild sweep on schedule or when the list runs dry.
  if (cand_.empty() ||
      pivots_since_rebuild_ >= options_.pricing_rebuild_every) {
    return RebuildCandidates(phase1, y, sigma);
  }
  int best = -1;
  double best_score = 0;
  double best_sigma = 0;
  size_t out = 0;
  for (int j : cand_) {
    if (status_[j] == VarStatus::kBasic) continue;  // entered: drop from list
    cand_[out++] = j;
    double d = ReducedCost(phase1, y, j);
    double sig = 0;
    double s = PriceScore(j, d, &sig);
    if (s <= 0) continue;
    double score = s * s / devex_w_[j];
    if (score > best_score) {
      best_score = score;
      best = j;
      best_sigma = sig;
    }
  }
  cand_.resize(out);
  if (best >= 0) {
    ++candidate_hits_;
    *sigma = best_sigma;
    return best;
  }
  // List exhausted: only a full sweep may declare optimality.
  return RebuildCandidates(phase1, y, sigma);
}

void SimplexSolver::UpdateDevexWeights(int enter, int leave_row,
                                       const std::vector<double>& w) {
  if (!options_.partial_pricing || total_ < kPartialMinCols) return;
  double alpha_q = w[leave_row];
  if (std::abs(alpha_q) < options_.pivot_tol) return;
  double wq = devex_w_[enter];
  if (!cand_.empty()) {
    // alpha_j = (B^{-1} A_j)[leave_row] via the pivot row of the current
    // (pre-pivot) inverse; updated only for the candidate list — the
    // classic devex recurrence restricted to the columns we re-price.
    std::vector<double> rho(static_cast<size_t>(m_), 0.0);
    rho[leave_row] = 1.0;
    BtranVec(&rho);
    for (int j : cand_) {
      if (j == enter || status_[j] == VarStatus::kBasic) continue;
      double aj = j < n_ ? ColDot(rho.data(), j) : -rho[j - n_];
      double ratio = aj / alpha_q;
      double candidate = ratio * ratio * wq;
      if (candidate > devex_w_[j]) devex_w_[j] = candidate;
    }
  }
  // The leaving variable re-enters the nonbasic pool with the weight the
  // devex recurrence assigns it (never below the reference weight 1).
  devex_w_[basis_[leave_row]] = std::max(wq / (alpha_q * alpha_q), 1.0);
}

void SimplexSolver::UpdateDseWeights(int leave_row,
                                     const std::vector<double>& w,
                                     const std::vector<double>& rho,
                                     double gamma_exact) {
  // Forrest–Goldfarb recurrence for gamma_i ~ ||B^{-T}e_i||^2 across the
  // pivot (w = B^{-1}A_enter, alpha_r = w[r], tau = B^{-1}rho — all against
  // the pre-pivot basis, so this must run before PushEta):
  //   gamma_i' = gamma_i - 2 (w_i/alpha_r) tau_i + (w_i/alpha_r)^2 gamma_r
  //   gamma_r' = gamma_r / alpha_r^2
  // gamma_r is anchored to the exact rho·rho of the pivot row (the
  // maintained weight may have drifted); every weight is floored so a
  // cancellation-heavy update cannot produce a nonpositive divisor.
  constexpr double kDseFloor = 1e-4;
  const double alpha_r = w[leave_row];
  const double gr = std::max(gamma_exact, kDseFloor);
  dse_tau_ = rho;
  FtranVec(&dse_tau_);
  for (int i = 0; i < m_; ++i) {
    if (i == leave_row) continue;
    double wi = w[i];
    if (wi == 0.0) continue;
    double kappa = wi / alpha_r;
    double g = dse_w_[i] - 2.0 * kappa * dse_tau_[i] + kappa * kappa * gr;
    dse_w_[i] = std::max(g, kDseFloor);
  }
  dse_w_[leave_row] = std::max(gr / (alpha_r * alpha_r), kDseFloor);
}

LpStatus SimplexSolver::RunPhase(bool phase1, const Deadline& deadline,
                                 int* iterations) {
  std::vector<double> y, w;
  int degenerate_streak = 0;
  bool bland = false;
  // Phase boundaries change the costs, so the previous phase's candidate
  // reduced costs are meaningless: start from a fresh sweep.
  cand_.clear();
  pivots_since_rebuild_ = 0;

  while (true) {
    if (*iterations >= options_.max_iterations) {
      return LpStatus::kIterationLimit;
    }
    if ((*iterations & 63) == 0 && deadline.Expired()) {
      return LpStatus::kTimeLimit;
    }
    if (pivots_since_refactor_ >= options_.refactor_every) {
      if (!Refactorize()) {
        InitAllSlackBasis();
      }
      ComputeBasicValues();
    }
    if (phase1 && TotalInfeasibility() <= options_.feas_tol * m_) {
      return LpStatus::kOptimal;  // feasible: phase 1 complete
    }

    ComputeDuals(phase1, &y);

    // --- Pricing: choose the entering variable. ---
    double enter_sigma = 0;
    int enter = PriceEntering(phase1, y, bland, &enter_sigma);
    if (enter < 0) {
      if (phase1) {
        return TotalInfeasibility() <= options_.feas_tol * m_
                   ? LpStatus::kOptimal
                   : LpStatus::kInfeasible;
      }
      return LpStatus::kOptimal;
    }

    Ftran(enter, &w);

    // --- Ratio test. ---
    // The entering variable moves by t >= 0 in direction enter_sigma; basic
    // variable i changes at rate delta_i = -enter_sigma * w[i].
    double t_best = kInf;
    int leave_row = -1;
    bool leave_at_upper = false;
    // Entering variable's own opposite bound (bound flip).
    if (!std::isinf(lb_[enter]) && !std::isinf(ub_[enter])) {
      t_best = ub_[enter] - lb_[enter];
    }
    for (int i = 0; i < m_; ++i) {
      double delta = -enter_sigma * w[i];
      if (std::abs(delta) < options_.pivot_tol) continue;
      int b = basis_[i];
      double xv = xb_[i];
      double tol = options_.feas_tol * (1.0 + std::abs(xv));
      double t = kInf;
      bool to_upper = false;
      if (phase1 && xv < lb_[b] - tol) {
        // Below its lower bound: blocks only when rising to that bound.
        if (delta > 0) {
          t = (lb_[b] - xv) / delta;
          to_upper = false;
        }
      } else if (phase1 && xv > ub_[b] + tol) {
        if (delta < 0) {
          t = (ub_[b] - xv) / delta;
          to_upper = true;
        }
      } else {
        if (delta > 0 && !std::isinf(ub_[b])) {
          t = (ub_[b] - xv) / delta;
          to_upper = true;
        } else if (delta < 0 && !std::isinf(lb_[b])) {
          t = (lb_[b] - xv) / delta;
          to_upper = false;
        }
      }
      if (t < -tol) t = 0;  // numerical noise on a degenerate basis
      if (t < t_best - 1e-12 ||
          (leave_row >= 0 && t < t_best + 1e-12 &&
           std::abs(delta) > std::abs(-enter_sigma * w[leave_row]))) {
        t_best = t;
        leave_row = i;
        leave_at_upper = to_upper;
      }
    }

    if (std::isinf(t_best)) {
      // Nothing blocks: in phase 2 the LP is unbounded. In phase 1 the
      // infeasibility objective is bounded below by zero, so this indicates
      // numerical trouble; treat as infeasible.
      return phase1 ? LpStatus::kInfeasible : LpStatus::kUnbounded;
    }
    if (t_best < 0) t_best = 0;
    if (t_best <= 1e-12) {
      if (++degenerate_streak > options_.stall_before_bland) bland = true;
    } else {
      degenerate_streak = 0;
    }

    ++*iterations;

    if (leave_row < 0) {
      // Bound flip: the entering variable runs to its opposite bound. The
      // basis is untouched, so no eta and no rebuild-clock tick.
      for (int i = 0; i < m_; ++i) xb_[i] -= enter_sigma * t_best * w[i];
      status_[enter] = status_[enter] == VarStatus::kAtLower
                           ? VarStatus::kAtUpper
                           : VarStatus::kAtLower;
      continue;
    }

    // Regular pivot. Devex weights update against the pre-pivot inverse.
    UpdateDevexWeights(enter, leave_row, w);
    double enter_value = NonbasicValue(enter) + enter_sigma * t_best;
    for (int i = 0; i < m_; ++i) xb_[i] -= enter_sigma * t_best * w[i];
    int leave_var = basis_[leave_row];
    status_[leave_var] =
        leave_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    // Snap the leaving variable's row value exactly onto its bound.
    xb_[leave_row] = enter_value;
    basis_[leave_row] = enter;
    status_[enter] = VarStatus::kBasic;

    // Product-form update: one O(m) eta factor instead of refreshing the
    // m x m inverse.
    PushEta(leave_row, w);
    ++pivots_since_rebuild_;
  }
}

bool SimplexSolver::MakeDualFeasible() {
  std::vector<double> y;
  ComputeDuals(/*phase1=*/false, &y);
  const double kTol = options_.opt_tol;
  // Flips are rolled back on failure: status_ must stay consistent with the
  // already-computed xb_ when the caller falls back to the primal phases.
  std::vector<int> flipped;
  auto fail = [&]() {
    for (int v : flipped) {
      status_[v] = status_[v] == VarStatus::kAtUpper ? VarStatus::kAtLower
                                                     : VarStatus::kAtUpper;
    }
    return false;
  };
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    double d = ReducedCost(/*phase1=*/false, y, j);
    bool boxed = !std::isinf(lb_[j]) && !std::isinf(ub_[j]);
    if (status_[j] == VarStatus::kAtLower && d < -kTol) {
      if (!boxed) return fail();
      status_[j] = VarStatus::kAtUpper;
      flipped.push_back(j);
    } else if (status_[j] == VarStatus::kAtUpper && d > kTol) {
      if (!boxed) return fail();
      status_[j] = VarStatus::kAtLower;
      flipped.push_back(j);
    } else if (status_[j] == VarStatus::kFree && std::abs(d) > kTol) {
      return fail();
    }
  }
  if (!flipped.empty()) ComputeBasicValues();
  return true;
}

LpStatus SimplexSolver::RunDualPhase(const Deadline& deadline, int* iterations,
                                     bool* bailed) {
  *bailed = false;
  const bool dse = options_.dual_steepest_edge;
  std::vector<double> y, w, rho;
  /// One dual-ratio-test breakpoint (bound-flipping mode only).
  struct Breakpoint {
    double ratio;      // |d_j| / |alpha_j|
    double abs_alpha;  // tie-break: larger pivots are numerically safer
    int j;
    double alpha;
  };
  std::vector<Breakpoint> bps;
  std::vector<double> flip_accum;
  // Stall guard: a warm re-optimization should need few pivots; past this
  // the primal phases are the better tool (and always correct).
  const int dual_cap = *iterations + 50 * m_ + 200;

  while (true) {
    if (*iterations >= options_.max_iterations) {
      return LpStatus::kIterationLimit;
    }
    if ((*iterations & 63) == 0 && deadline.Expired()) {
      return LpStatus::kTimeLimit;
    }
    if (*iterations >= dual_cap) {
      *bailed = true;
      return LpStatus::kOptimal;  // ignored; caller runs the primal phases
    }
    if (pivots_since_refactor_ >= options_.refactor_every) {
      if (!Refactorize()) {
        InitAllSlackBasis();
        ComputeBasicValues();
        *bailed = true;
        return LpStatus::kOptimal;
      }
      ComputeBasicValues();
    }

    // --- Leaving row. Plain mode: the most violated basic variable.
    // Steepest-edge mode: maximize violation^2 / gamma_r — violations
    // measured in the geometry of the dual edge the pivot would travel,
    // so rows whose inverse row has blown up stop looking artificially
    // attractive (the classic warm-re-solve pivot-count win). ---
    int leave_row = -1;
    double best_viol = 0;  // violation of the chosen row (BFRT slope seed)
    double best_score = 0;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      int b = basis_[i];
      double tol = options_.feas_tol * (1.0 + std::abs(xb_[i]));
      double viol = 0;
      bool is_below = false;
      if (xb_[i] < lb_[b] - tol) {
        viol = lb_[b] - xb_[i];
        is_below = true;
      } else if (xb_[i] > ub_[b] + tol) {
        viol = xb_[i] - ub_[b];
      } else {
        continue;
      }
      double score = dse ? viol * viol / dse_w_[i] : viol;
      if (score > best_score) {
        best_score = score;
        best_viol = viol;
        leave_row = i;
        below = is_below;
      }
    }
    if (leave_row < 0) return LpStatus::kOptimal;  // primal feasible

    // rho = pivot row of B^{-1} (e_r^T B^{-1} through the eta file).
    rho.assign(static_cast<size_t>(m_), 0.0);
    rho[leave_row] = 1.0;
    BtranVec(&rho);
    // Exact steepest-edge weight of the pivot row, anchoring the update
    // recurrence (the maintained dse_w_ may have drifted).
    double gamma_exact = 0;
    if (dse) {
      for (int i = 0; i < m_; ++i) gamma_exact += rho[i] * rho[i];
    }
    ComputeDuals(/*phase1=*/false, &y);

    // --- Dual ratio test: entering column with the smallest |d|/|alpha|
    // among columns that move the leaving variable toward its bound. The
    // scan covers every active column (a min-ratio over a subset could
    // pick an invalid pivot) but walks only the non-fixed list with sparse
    // dots — fixed columns are never re-evaluated here. ---
    int enter = -1;
    double best_ratio = kInf;
    double best_alpha = 0;
    if (dse) bps.clear();
    for (int j : active_) {
      VarStatus st = status_[j];
      if (st == VarStatus::kBasic) continue;
      double alpha =
          j < n_ ? ColDot(rho.data(), j) : -rho[j - n_];
      if (std::abs(alpha) < options_.pivot_tol) continue;
      // The leaving basic variable moves at rate -alpha per unit of the
      // entering variable; x_b must rise when below its lower bound, fall
      // when above its upper.
      bool eligible;
      if (st == VarStatus::kAtLower) {
        eligible = below ? alpha < 0 : alpha > 0;
      } else if (st == VarStatus::kAtUpper) {
        eligible = below ? alpha > 0 : alpha < 0;
      } else {
        eligible = true;  // free
      }
      if (!eligible) continue;
      double d = ReducedCost(/*phase1=*/false, y, j);
      double ratio = std::abs(d) / std::abs(alpha);
      if (dse) {
        // Bound-flipping mode keeps every breakpoint: the long-step walk
        // below decides which one pivots and which merely flip.
        bps.push_back({ratio, std::abs(alpha), j, alpha});
        continue;
      }
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 &&
           std::abs(alpha) > std::abs(best_alpha))) {
        best_ratio = ratio;
        enter = j;
        best_alpha = alpha;
      }
    }
    if (dse && !bps.empty()) {
      // --- Bound-flipping (long-step) ratio test. Walk the breakpoints in
      // dual-ratio order; a boxed column whose whole box fits inside the
      // remaining violation is *flipped* across it (its reduced cost will
      // change sign as the duals move past its breakpoint, and a boxed
      // variable is dual feasible at either bound), retiring the
      // breakpoint without a basis change. The first breakpoint that
      // cannot flip — free or one-sided column, box too large, or the last
      // one standing — becomes the entering pivot column.
      //
      // The walk usually stops after a few breakpoints, so they are not
      // sorted: a heap under the walk's strict total order (ratio, then
      // larger |alpha|, then j) is built in linear time and popped only as
      // far as the walk goes. Each pop parks the breakpoint at the back of
      // `bps`, so the walked ones sit in bps[heap_end, size) in reverse
      // walk order. ---
      auto after = [](const Breakpoint& a, const Breakpoint& b) {
        if (a.ratio != b.ratio) return a.ratio > b.ratio;
        if (a.abs_alpha != b.abs_alpha) return a.abs_alpha < b.abs_alpha;
        return a.j > b.j;
      };
      std::make_heap(bps.begin(), bps.end(), after);
      size_t heap_end = bps.size();
      auto pop = [&] {
        std::pop_heap(bps.begin(),
                      bps.begin() + static_cast<ptrdiff_t>(heap_end), after);
        return bps[--heap_end];
      };
      double slope = best_viol;
      const double keep_tol =
          options_.feas_tol * (1.0 + std::abs(xb_[leave_row]));
      size_t flips = 0;  // walked breakpoints that get flipped
      Breakpoint bp = pop();
      while (heap_end > 0) {  // the last one standing must pivot
        if (std::isinf(lb_[bp.j]) || std::isinf(ub_[bp.j])) break;
        double step = bp.abs_alpha * (ub_[bp.j] - lb_[bp.j]);
        if (slope - step <= keep_tol) break;  // flip would erase the viol
        slope -= step;
        ++flips;
        bp = pop();
      }
      enter = bp.j;
      best_alpha = bp.alpha;
      if (flips > 0) {
        // Apply every flip with a single FTRAN of the accumulated delta
        // column: xb -= B^{-1} (sum_j delta_j A_j). The basis is untouched,
        // so no eta is spent and the eta file stays short.
        flip_accum.assign(static_cast<size_t>(m_), 0.0);
        for (size_t k = 0; k < flips; ++k) {
          int j = bps[bps.size() - 1 - k].j;
          double delta_j = status_[j] == VarStatus::kAtLower
                               ? ub_[j] - lb_[j]
                               : lb_[j] - ub_[j];
          if (j < n_) {
            ScatterCol(j, delta_j, flip_accum.data());
          } else {
            flip_accum[j - n_] -= delta_j;
          }
          status_[j] = status_[j] == VarStatus::kAtLower
                           ? VarStatus::kAtUpper
                           : VarStatus::kAtLower;
        }
        bound_flips_ += static_cast<int64_t>(flips);
        FtranVec(&flip_accum);
        for (int i = 0; i < m_; ++i) xb_[i] -= flip_accum[i];
      }
    }
    if (enter < 0) {
      // A violated row with no way to fix it: the LP is infeasible (the
      // caller's primal phase 1 re-confirms from this basis, cheaply).
      return LpStatus::kInfeasible;
    }

    Ftran(enter, &w);
    double pivot = w[leave_row];
    if (std::abs(pivot) < options_.pivot_tol) {
      // rho-based alpha and the fresh FTRAN disagree: numerical trouble.
      if (!Refactorize()) InitAllSlackBasis();
      ComputeBasicValues();
      *bailed = true;
      return LpStatus::kOptimal;
    }

    if (dse) {
      // Weight recurrence needs the pre-pivot inverse: before PushEta.
      UpdateDseWeights(leave_row, w, rho, gamma_exact);
      ++dse_pivots_;
    }

    ++*iterations;

    int leave_var = basis_[leave_row];
    double target = below ? lb_[leave_var] : ub_[leave_var];
    double delta = (xb_[leave_row] - target) / pivot;
    double enter_value = NonbasicValue(enter) + delta;
    for (int i = 0; i < m_; ++i) xb_[i] -= delta * w[i];
    status_[leave_var] = below ? VarStatus::kAtLower : VarStatus::kAtUpper;
    basis_[leave_row] = enter;
    status_[enter] = VarStatus::kBasic;
    xb_[leave_row] = enter_value;

    // Product-form update of B^{-1}: one eta factor.
    PushEta(leave_row, w);
  }
}

LpResult SimplexSolver::Solve(const Deadline& deadline) {
  LpResult result;
  InitSolveCounters();
  RefreshActiveColumns();
  bool warm = options_.warm_start && basis_valid_;
  if (!warm) {
    InitAllSlackBasis();
  } else if (pivots_since_refactor_ > 0 && !Refactorize()) {
    // pivots_since_refactor_ == 0 means the eta file is empty and binv0_
    // is exactly the last factorization (e.g. RestoreBasis just rebuilt
    // it); bound changes do not invalidate it, so skip the redundant
    // O(m^3) refactorization.
    InitAllSlackBasis();
    warm = false;
  }
  ComputeBasicValues();

  int iterations = 0;
  if (warm && MakeDualFeasible()) {
    bool bailed = false;
    LpStatus dual_st = RunDualPhase(deadline, &iterations, &bailed);
    if (!bailed) {
      result.used_dual = true;
      if (dual_st == LpStatus::kIterationLimit ||
          dual_st == LpStatus::kTimeLimit) {
        result.iterations = iterations;
        result.status = dual_st;
        result.pricing_candidate_hits = candidate_hits_;
        result.bound_flips = bound_flips_;
        result.dse_pivots = dse_pivots_;
        return result;
      }
    }
    // Fall through in every other case: the primal phases below finish (and
    // verify) the solve from wherever the dual phase left the basis. When
    // the dual phase ended primal feasible, phase 1 exits immediately and
    // phase 2 usually does zero pivots; when it claimed infeasibility,
    // phase 1 re-proves it from a basis that is already near the proof.
  }
  LpStatus st = RunPhase(/*phase1=*/true, deadline, &iterations);
  if (st == LpStatus::kOptimal) {
    st = RunPhase(/*phase1=*/false, deadline, &iterations);
  }
  result.iterations = iterations;
  result.status = st;
  result.pricing_candidate_hits = candidate_hits_;
  result.bound_flips = bound_flips_;
  result.dse_pivots = dse_pivots_;
  if (st != LpStatus::kOptimal) return result;

  result.x.assign(n_, 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[j] != VarStatus::kBasic) result.x[j] = NonbasicValue(j);
  }
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] < n_) result.x[basis_[i]] = xb_[i];
  }
  double obj = 0;
  for (int j = 0; j < n_; ++j) obj += model_->obj()[j] * result.x[j];
  result.objective = obj;
  return result;
}

}  // namespace paql::lp
