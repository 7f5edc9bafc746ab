// Pins the CRC-32 every durable artifact carries (journal records, page
// frames of extent images and spill files): the standard IEEE check value,
// and equality with the plain bytewise table loop for every length up to
// 4096 at every start alignment — so a faster implementation can never
// silently change the on-disk format.
#include "common/crc32.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wuw {
namespace {

/// The textbook bytewise table loop (reflected 0xEDB88320, init/final
/// XOR ~0) with its own table, so it shares no code with the
/// implementation under test.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32(fox.data(), fox.size()), 0x414FA339u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kAlignments = 8;
  // Deterministic pseudo-random bytes (xorshift), covering every byte
  // value many times over.
  std::vector<unsigned char> buf(kMaxLen + kAlignments);
  uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  for (size_t align = 0; align < kAlignments; ++align) {
    const unsigned char* p = buf.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len))
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32Test, AllOnesAndZeroBlocks) {
  for (unsigned char fill : {0x00, 0xFF}) {
    std::array<unsigned char, 64> block;
    block.fill(fill);
    for (size_t len = 0; len <= block.size(); ++len) {
      EXPECT_EQ(Crc32(block.data(), len), BytewiseCrc32(block.data(), len))
          << "fill=" << int{fill} << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace wuw
