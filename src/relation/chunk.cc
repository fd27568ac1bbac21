#include "relation/chunk.h"

#include <algorithm>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace paql::relation {

namespace {

/// Run `fold(begin, end)` over kMorselRows-sized morsels of [0, n):
/// serially in ascending order when `threads` <= 1 or the input is a
/// single morsel, off the shared pool otherwise. The morsel grid depends
/// on n alone, never on the worker count; folds write to disjoint
/// per-morsel slots, so the caller's ascending-order merge is
/// deterministic.
template <typename Fold>
void ForEachMorsel(size_t n, int threads, const Fold& fold) {
  if (threads <= 1 || n <= kMorselRows) {
    for (size_t begin = 0; begin < n; begin += kMorselRows) {
      fold(begin, std::min(n, begin + kMorselRows));
    }
    return;
  }
  ThreadPool::Global().ParallelFor(
      n, kMorselRows, threads,
      [&](size_t begin, size_t end) { fold(begin, end); });
}

}  // namespace

void LoadNumericChunk(const ColumnSource& source, size_t col,
                      const RowSpan& span, NumericBatch* out) {
  source.LoadChunk(col, span, out);
}

void LoadNumericChunkRaw(const ColumnSource& source, size_t col,
                         const RowSpan& span, NumericBatch* out) {
  source.LoadChunkRaw(col, span, out);
}

double GatherMean(const ColumnSource& source, size_t col,
                  const std::vector<RowId>& rows) {
  if (rows.empty()) return 0.0;
  NumericBatch batch;
  double sum = 0.0;
  for (size_t off = 0; off < rows.size(); off += kChunkSize) {
    RowSpan span;
    span.rows = rows.data() + off;
    span.len = static_cast<uint32_t>(std::min(kChunkSize, rows.size() - off));
    source.LoadChunkRaw(col, span, &batch);
    // Deliberately scalar: a float SUM is order-sensitive, and the
    // determinism contract fixes the accumulation order (docs, "SIMD
    // kernels").
    for (uint32_t i = 0; i < span.len; ++i) sum += batch.values[i];
  }
  return sum / static_cast<double>(rows.size());
}

double GatherMaxAbsDeviation(const ColumnSource& source, size_t col,
                             const std::vector<RowId>& rows, double center,
                             int threads) {
  const size_t n = rows.size();
  std::vector<double> partial((n + kMorselRows - 1) / kMorselRows, 0.0);
  ForEachMorsel(n, threads, [&](size_t begin, size_t end) {
    NumericBatch batch;
    double radius = 0.0;
    for (size_t off = begin; off < end; off += kChunkSize) {
      RowSpan span;
      span.rows = rows.data() + off;
      span.len = static_cast<uint32_t>(std::min(kChunkSize, end - off));
      source.LoadChunkRaw(col, span, &batch);
      simd::FoldMaxAbsDeviation(batch.values.data(), span.len, center,
                                &radius);
    }
    partial[begin / kMorselRows] = radius;
  });
  double radius = 0.0;
  for (double p : partial) radius = std::max(radius, p);
  return radius;
}

double ColumnMinAbs(const ColumnSource& source, size_t col, int threads) {
  const double inf = std::numeric_limits<double>::infinity();
  const size_t n = source.num_rows();
  std::vector<double> partial((n + kMorselRows - 1) / kMorselRows, inf);
  ForEachMorsel(n, threads, [&](size_t begin, size_t end) {
    NumericBatch batch;
    double best = inf;
    for (size_t start = begin; start < end; start += kChunkSize) {
      RowSpan span;
      span.start = static_cast<RowId>(start);
      span.len = static_cast<uint32_t>(std::min(kChunkSize, end - start));
      source.LoadChunkRaw(col, span, &batch);
      simd::FoldMinAbs(batch.values.data(), span.len, &best);
    }
    partial[begin / kMorselRows] = best;
  });
  double best = inf;
  for (double p : partial) best = std::min(best, p);
  return best;
}

}  // namespace paql::relation
