#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/simd.h"

#if !defined(PAQL_NO_SIMD) && defined(__x86_64__)
#define PAQL_CRC_PCLMUL 1
#include <immintrin.h>
#elif !defined(PAQL_NO_SIMD) && defined(__aarch64__)
#define PAQL_CRC_ARMV8 1
#include <arm_acle.h>
#endif

namespace paql {
namespace {

/// The reflected IEEE 802.3 polynomial: bit i holds the coefficient of
/// x^(31-i), so the low bit is the highest power.
constexpr uint32_t kPoly = 0xEDB88320u;

/// Inputs shorter than this (WAL frames, footers) stay on the table path:
/// the folding kernels pay a fixed setup and a 16-byte table tail.
constexpr size_t kFoldMinBytes = 256;

/// Slicing-by-8 tables: kTables[0] is the bytewise table, and
/// kTables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so eight table reads advance the register by eight bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeTables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = MakeTables();

/// Advance the raw (un-inverted) CRC register `c` over `n` bytes.
uint32_t UpdateSlice8(uint32_t c, const unsigned char* p, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    const uint32_t lo = static_cast<uint32_t>(word) ^ c;
    const uint32_t hi = static_cast<uint32_t>(word >> 32);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
#endif
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(PAQL_CRC_PCLMUL)

/// x^k mod P in the reflected bit order, shifted left one bit: the form a
/// carry-less multiply of two reflected operands needs, since their
/// 127-bit product lands one bit below the reflected 128-bit lane.
constexpr uint64_t FoldConstant(unsigned k) {
  uint32_t r = 0x80000000u;  // x^0
  for (unsigned i = 0; i < k; ++i) r = (r & 1u) ? (r >> 1) ^ kPoly : r >> 1;
  return uint64_t{r} << 1;
}

/// Fold constants for a fold distance of four lanes (the 64-byte main
/// loop) and of one lane (collapsing the accumulators): a lane's low
/// (earlier, higher-degree) half is multiplied by x^(distance+32) and its
/// high half by x^(distance-32); the product's sum is congruent mod P to
/// the lane moved `distance` bits later in the message.
constexpr uint64_t kFold4Lo = FoldConstant(4 * 128 + 32);
constexpr uint64_t kFold4Hi = FoldConstant(4 * 128 - 32);
constexpr uint64_t kFold1Lo = FoldConstant(128 + 32);
constexpr uint64_t kFold1Hi = FoldConstant(128 - 32);

__attribute__((target("pclmul,sse2"))) inline __m128i Fold(__m128i lane,
                                                            __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                       _mm_clmulepi64_si128(lane, k, 0x11));
}

/// PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ"): four 128-bit accumulators fold 64 bytes
/// per step, then collapse to one lane. Instead of a Barrett reduction,
/// the final lane is run through the table path as a 16-byte message: it
/// has the same CRC as everything it absorbed. Requires n >= 64.
__attribute__((target("pclmul,sse2"))) uint32_t UpdatePclmul(
    uint32_t c, const unsigned char* p, size_t n) {
  const __m128i k4 = _mm_set_epi64x(static_cast<int64_t>(kFold4Hi),
                                    static_cast<int64_t>(kFold4Lo));
  const __m128i k1 = _mm_set_epi64x(static_cast<int64_t>(kFold1Hi),
                                    static_cast<int64_t>(kFold1Lo));
  auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // The register enters as the first four message bytes XOR'd with it.
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k4), load(p));
    x1 = _mm_xor_si128(Fold(x1, k4), load(p + 16));
    x2 = _mm_xor_si128(Fold(x2, k4), load(p + 32));
    x3 = _mm_xor_si128(Fold(x3, k4), load(p + 48));
  }
  __m128i x = _mm_xor_si128(Fold(x0, k1), x1);
  x = _mm_xor_si128(Fold(x, k1), x2);
  x = _mm_xor_si128(Fold(x, k1), x3);
  for (; n >= 16; p += 16, n -= 16) x = _mm_xor_si128(Fold(x, k1), load(p));
  unsigned char lane[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lane), x);
  return UpdateSlice8(UpdateSlice8(0, lane, sizeof(lane)), p, n);
}

#elif defined(PAQL_CRC_ARMV8)

/// The ARMv8 CRC32X/CRC32B instructions implement exactly this register
/// update (reflected 0x04C11DB7, no inversion).
__attribute__((target("+crc"))) uint32_t UpdateArmv8(uint32_t c,
                                                     const unsigned char* p,
                                                     size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = __crc32d(c, word);
  }
  for (; n > 0; ++p, --n) c = __crc32b(c, *p);
  return c;
}

#endif

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  if (n >= kFoldMinBytes) {
    switch (simd::ActiveCrcKernel()) {
#if defined(PAQL_CRC_PCLMUL)
      case simd::CrcKernel::kPclmul: c = UpdatePclmul(c, p, n); break;
#elif defined(PAQL_CRC_ARMV8)
      case simd::CrcKernel::kArmv8: c = UpdateArmv8(c, p, n); break;
#endif
      default: c = UpdateSlice8(c, p, n); break;
    }
  } else {
    c = UpdateSlice8(c, p, n);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace paql
