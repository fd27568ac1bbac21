// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Three kernels compute the same function, picked per call by the SIMD
// dispatcher (simd::ActiveCrcKernel): PCLMULQDQ carry-less-multiply
// folding on x86-64, the ARMv8 CRC32 instructions on aarch64, and
// portable slicing-by-8 tables everywhere else. simd::ForceScalar and
// PAQL_NO_SIMD pin the table path, and inputs under 256 bytes (WAL
// frames, footers) always take it.
//
// Used to frame WAL records and to checksum block-store payloads and
// footers so that torn writes and bit rot are detected at read time and
// surfaced as structured `Status::Corruption` errors instead of silently
// decoding garbage (or worse, crashing).
#ifndef PAQL_COMMON_CRC32_H_
#define PAQL_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace paql {

/// CRC-32 of `data`, continuing from `seed` (pass the previous call's
/// return value to checksum a logical buffer in pieces; start at 0).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

/// CRC masking (RocksDB/LevelDB idiom): a CRC stored alongside the data it
/// covers must not look like a CRC of itself, or a file of zeros verifies.
/// The mask is a rotation plus an additive constant; unmasking inverts it.
inline uint32_t MaskCrc32(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc32(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace paql

#endif  // PAQL_COMMON_CRC32_H_
