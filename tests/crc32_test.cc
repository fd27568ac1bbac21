// CRC-32 kernel tests (common/crc32.h): the known answer, every dispatched
// kernel and the forced-scalar slicing-by-8 path against a bytewise
// oracle over every length 0..4096 and random offsets, chained
// computation, and the mask round trip.
//
// On a build or machine whose dispatch resolves to the table path the
// dispatched and forced runs are the same code; the oracle comparison
// still checks slicing-by-8 against the bytewise definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/simd.h"

namespace paql {
namespace {

/// Restore SIMD dispatch on scope exit no matter how a test ends.
struct ForceScalarGuard {
  ~ForceScalarGuard() { simd::ForceScalar(false); }
};

/// The definition: one bit at a time, no tables.
uint32_t OracleCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return ~c;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32Test, KnownAnswer) {
  ForceScalarGuard guard;
  for (bool force : {false, true}) {
    simd::ForceScalar(force);
    EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(Crc32(""), 0u);
    // 1 KiB of zeros reaches the folding kernels.
    const std::vector<unsigned char> zeros(1024, 0);
    EXPECT_EQ(Crc32(zeros.data(), zeros.size()),
              OracleCrc32(zeros.data(), zeros.size(), 0));
  }
}

TEST(Crc32Test, EveryLengthMatchesTheOracle) {
  ForceScalarGuard guard;
  const std::vector<unsigned char> bytes = RandomBytes(4096 + 64, 17);
  for (size_t n = 0; n <= 4096; ++n) {
    // Vary the start so unaligned loads and every tail length appear.
    const unsigned char* p = bytes.data() + (n % 61);
    const uint32_t seed = static_cast<uint32_t>(n * 2654435761u);
    const uint32_t want = OracleCrc32(p, n, seed);
    simd::ForceScalar(false);
    ASSERT_EQ(Crc32(p, n, seed), want) << "dispatched, n=" << n;
    simd::ForceScalar(true);
    ASSERT_EQ(Crc32(p, n, seed), want) << "forced scalar, n=" << n;
  }
}

TEST(Crc32Test, RandomOffsetsAlignmentsAndSeeds) {
  ForceScalarGuard guard;
  const std::vector<unsigned char> bytes = RandomBytes(1 << 18, 29);
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = rng() % (64 * 1024);
    const size_t offset = rng() % (bytes.size() - n);
    const uint32_t seed = static_cast<uint32_t>(rng());
    const unsigned char* p = bytes.data() + offset;
    const uint32_t want = OracleCrc32(p, n, seed);
    simd::ForceScalar(false);
    ASSERT_EQ(Crc32(p, n, seed), want)
        << "dispatched, n=" << n << " offset=" << offset;
    simd::ForceScalar(true);
    ASSERT_EQ(Crc32(p, n, seed), want)
        << "forced scalar, n=" << n << " offset=" << offset;
  }
}

TEST(Crc32Test, ChainedPiecesEqualOneCall) {
  ForceScalarGuard guard;
  const std::vector<unsigned char> bytes = RandomBytes(20000, 43);
  std::mt19937_64 rng(47);
  for (bool force : {false, true}) {
    simd::ForceScalar(force);
    const uint32_t whole = Crc32(bytes.data(), bytes.size());
    for (int trial = 0; trial < 50; ++trial) {
      uint32_t crc = 0;
      size_t at = 0;
      while (at < bytes.size()) {
        // Pieces straddle the table/folding threshold in both directions.
        const size_t piece = std::min(bytes.size() - at, rng() % 3000);
        crc = Crc32(bytes.data() + at, piece, crc);
        at += piece;
      }
      ASSERT_EQ(crc, whole) << "trial " << trial << " force=" << force;
    }
  }
}

TEST(Crc32Test, MaskRoundTrips) {
  std::mt19937_64 rng(53);
  for (int i = 0; i < 10000; ++i) {
    const uint32_t crc = static_cast<uint32_t>(rng());
    EXPECT_EQ(UnmaskCrc32(MaskCrc32(crc)), crc);
  }
  EXPECT_EQ(UnmaskCrc32(MaskCrc32(0)), 0u);
  EXPECT_EQ(UnmaskCrc32(MaskCrc32(0xFFFFFFFFu)), 0xFFFFFFFFu);
}

TEST(Crc32Test, DispatchHonorsTheKillSwitch) {
  ForceScalarGuard guard;
  simd::ForceScalar(true);
  EXPECT_EQ(simd::ActiveCrcKernel(), simd::CrcKernel::kSlice8);
  simd::ForceScalar(false);
#if defined(PAQL_NO_SIMD)
  EXPECT_EQ(simd::ActiveCrcKernel(), simd::CrcKernel::kSlice8);
#endif
  EXPECT_NE(std::string(simd::CrcKernelName(simd::ActiveCrcKernel())),
            "unknown");
}

}  // namespace
}  // namespace paql
