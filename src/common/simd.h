// Portable SIMD kernels for the hot chunk loops: predicate compaction,
// min/max reductions, coefficient fills, and block decode. The dispatcher
// also picks the CRC-32 kernel (common/crc32.h).
//
// Design rules (docs/architecture.md, "SIMD kernels"):
//
//  * Every kernel is BIT-IDENTICAL to its scalar fallback. That restricts
//    what may be vectorized: comparisons, compaction, min/max folds (whose
//    scalar idiom `(v < acc) ? v : acc` is exactly the minpd/maxpd lane
//    semantics, NaN-skip included), per-lane independent arithmetic, and
//    integer work. Floating-point SUMS are never reassociated — GatherMean,
//    CoeffBatch's per-lane term accumulation, and leaf activities keep
//    their scalar operation order (CoeffBatch vectorizes ACROSS lanes,
//    which preserves the per-lane order).
//  * No FMA: kernels issue explicit mul-then-add so results match the
//    baseline (non-FMA) scalar codegen bit for bit. The x86 target
//    attributes deliberately omit "fma".
//  * Runtime dispatch: AVX2 when the CPU has it, else SSE2 (the x86-64
//    baseline), else scalar; NEON is selected at compile time on aarch64.
//    Individual functions carry `__attribute__((target(...)))`, so the
//    rest of the build keeps the portable baseline ISA.
//  * Two kill switches. Compile-time: -DPAQL_NO_SIMD (CMake option
//    PAQL_NO_SIMD) removes the intrinsic paths entirely. Runtime:
//    ForceScalar(true) — or the PAQL_NO_SIMD environment variable — routes
//    every call to the scalar fallback, which is how one differential_test
//    binary sweeps SIMD-on vs scalar and asserts bit-identity.
#ifndef PAQL_COMMON_SIMD_H_
#define PAQL_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace paql::simd {

/// Instruction set the dispatcher resolved to.
enum class Level { kScalar, kSse2, kAvx2, kNeon };

/// The level kernels will actually run at right now (respects both kill
/// switches).
Level ActiveLevel();

const char* LevelName(Level level);

/// Runtime kill switch: true routes every kernel to its scalar fallback.
/// Thread-safe; intended for A/B sweeps and for the PAQL_NO_SIMD=1
/// environment override (applied on first use).
void ForceScalar(bool on);
bool ScalarForced();

/// CRC-32 kernel (common/crc32.h) the dispatcher resolved to: carry-less
/// multiply folding where x86-64 has PCLMULQDQ, the ARMv8 CRC32
/// instructions where aarch64 has them, else the portable slicing-by-8
/// tables. Respects both kill switches, like ActiveLevel. Every kernel
/// computes the same function, so the choice changes speed only.
enum class CrcKernel { kSlice8, kPclmul, kArmv8 };
CrcKernel ActiveCrcKernel();
const char* CrcKernelName(CrcKernel kernel);

/// Comparison operator for CompactCmpConst. Semantics match the scalar
/// pipeline exactly: NaN operands fail every comparison; kNe additionally
/// requires both sides non-NaN (ordered non-equal).
enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Branchless selection compaction against a constant: writes the
/// ascending lane indices i in [0, n) with `values[i] op c` to idx[] and
/// returns how many were written. idx must have room for n entries and n
/// must be <= 65536 (lane indices are uint16). May write up to one SIMD
/// group (4 entries) past the returned count, never past idx + n rounded
/// up to the group — callers pass kChunkSize-sized index arrays with
/// n <= kChunkSize, which is always safe.
uint32_t CompactCmpConst(const double* values, uint32_t n, Cmp op, double c,
                         uint16_t* idx);

/// BETWEEN compaction: keeps lanes with lo <= values[i] && values[i] <= hi
/// (NaN fails). Same contract as CompactCmpConst.
uint32_t CompactRangeConst(const double* values, uint32_t n, double lo,
                           double hi, uint16_t* idx);

/// Elementwise constant arithmetic, constant on the right / left:
/// v[i] = v[i] op c  /  v[i] = c op v[i]. Lane-independent, so the SIMD
/// form performs the identical per-lane operation.
enum class Arith { kAdd, kSub, kMul, kDiv };
void ApplyConstRhs(double* v, uint32_t n, Arith op, double c);
void ApplyConstLhs(double* v, uint32_t n, Arith op, double c);

/// v[i] = -v[i] (IEEE sign flip, bit-identical to scalar negation).
void Negate(double* v, uint32_t n);

/// Fold `n` lanes into running min/max accumulators with the scalar idiom
/// `(v < lo) ? v : lo` / `(v > hi) ? v : hi` — NaN lanes never replace the
/// accumulator, matching std::min(lo, v) / std::max(hi, v).
void FoldMinMax(const double* v, uint32_t n, double* lo, double* hi);

/// Fold min(|v[i]|) into *best (NaN-skipping, as above).
void FoldMinAbs(const double* v, uint32_t n, double* best);

/// Fold max(|v[i] - center|) into *radius (NaN-skipping, as above).
void FoldMaxAbsDeviation(const double* v, uint32_t n, double center,
                         double* radius);

/// out[i] += scale * v[i] for all i: the dense CoeffBatch fill. Explicit
/// mul-then-add per lane (no FMA), so bit-identical to the scalar loop.
void MulAddConst(double* out, const double* v, uint32_t n, double scale);

/// Lanes with v[i] != 0.0 (NaN counts: NaN != 0 is true, matching the
/// scalar CSC fill's `c != 0.0` test).
uint32_t CountNonZero(const double* v, uint32_t n);

/// Frame-of-reference reconstruction: out[i] = (int64)(base + in[i]).
/// Pure wrap-around integer addition, trivially bit-exact.
void AddConstU64(const uint64_t* in, uint32_t n, uint64_t base, int64_t* out);

/// Scaled-decimal decode: out[i] = double(in[i]) / scale. Returns false
/// (without completing) unless every value fits the exactness gate
/// |v| <= 2^51 - 1, where the SIMD int64->double conversion (magic-number
/// trick) is exact; division is correctly rounded in IEEE, so the gated
/// path is bit-identical to the scalar cast-and-divide. On false the
/// caller must run the scalar loop (out[] may be partially written).
bool I64ToDoubleDiv(const int64_t* in, uint32_t n, double scale, double* out);

}  // namespace paql::simd

#endif  // PAQL_COMMON_SIMD_H_
