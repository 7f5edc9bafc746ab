// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the checksum the
// journal's on-disk records and the page files' frames carry so recovery
// can reject a torn or corrupted tail (exec/journal.h, storage/page.h).
// Header-only, no dependencies.
//
// Slicing-by-8: eight 256-entry tables, built at compile time, fold eight
// input bytes per step instead of one.  Table k maps a byte to its CRC
// contribution k positions further from the end of the 8-byte block, so
// the result is exactly the bytewise CRC for every input — the on-disk
// format is unchanged (crc32_test pins it with the standard check value
// and a sweep against the bytewise loop).  Words are assembled from bytes
// in little-endian order, so the code is endian-independent.
#ifndef WUW_COMMON_CRC32_H_
#define WUW_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace wuw {

namespace internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load from bytes (compiles to one load on
/// little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace internal

/// CRC-32 of `len` bytes at `data` (standard init/final XOR of ~0).
inline uint32_t Crc32(const void* data, size_t len) {
  const auto& t = internal::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = crc ^ internal::LoadLe32(p);
    const uint32_t hi = internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace wuw

#endif  // WUW_COMMON_CRC32_H_
