// Unit + property tests for the SmartMedia-Hamming ECC.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/random.h"
#include "flash/ecc.h"

namespace ipa::flash {
namespace {

std::vector<uint8_t> RandomSegment(Rng& rng, size_t n) {
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

TEST(EccTest, CleanDataVerifies) {
  Rng rng(1);
  auto data = RandomSegment(rng, kEccSegment);
  auto ecc = EccEncode(data.data(), data.size());
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc), EccResult::kClean);
}

TEST(EccTest, ShortSegmentsSupported) {
  Rng rng(2);
  for (size_t len : {1u, 7u, 100u, 255u}) {
    auto data = RandomSegment(rng, len);
    auto ecc = EccEncode(data.data(), len);
    EXPECT_EQ(EccCheckAndCorrect(data.data(), len, ecc), EccResult::kClean);
  }
}

TEST(EccTest, DoubleBitErrorDetected) {
  Rng rng(4);
  auto data = RandomSegment(rng, kEccSegment);
  auto ecc = EccEncode(data.data(), data.size());
  data[10] ^= 0x01;
  data[200] ^= 0x80;
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
            EccResult::kUncorrectable);
}

TEST(EccTest, ErrorInEccBytesTolerated) {
  Rng rng(5);
  auto data = RandomSegment(rng, kEccSegment);
  auto ecc = EccEncode(data.data(), data.size());
  auto orig = data;
  ecc[1] ^= 0x10;  // single flipped bit inside the ECC itself
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
            EccResult::kCorrected);
  EXPECT_EQ(data, orig);  // data untouched
}

TEST(EccTest, RegionEncodesPerSegment) {
  Rng rng(6);
  auto data = RandomSegment(rng, 1000);
  EXPECT_EQ(EccRegionBytes(1000), 4 * kEccBytesPerSegment);
  auto ecc = EccEncodeRegion(data.data(), data.size());
  ASSERT_EQ(ecc.size(), EccRegionBytes(1000));
  uint64_t corrected = 0;
  EXPECT_EQ(EccCheckRegion(data.data(), data.size(), ecc.data(), ecc.size(),
                           &corrected),
            EccResult::kClean);
  EXPECT_EQ(corrected, 0u);
}

TEST(EccTest, RegionCorrectsOneErrorPerSegment) {
  Rng rng(7);
  auto data = RandomSegment(rng, 1024);
  auto orig = data;
  auto ecc = EccEncodeRegion(data.data(), data.size());
  data[100] ^= 0x04;   // segment 0
  data[300] ^= 0x40;   // segment 1
  data[900] ^= 0x01;   // segment 3
  uint64_t corrected = 0;
  EXPECT_EQ(EccCheckRegion(data.data(), data.size(), ecc.data(), ecc.size(),
                           &corrected),
            EccResult::kCorrected);
  EXPECT_EQ(corrected, 3u);
  EXPECT_EQ(data, orig);
}

// The bitwise encoder EccEncode replaced, kept as the oracle for its tables.
std::array<uint8_t, kEccBytesPerSegment> BitwiseEccEncode(const uint8_t* data, size_t len) {
  auto parity = [](unsigned b) { return static_cast<unsigned>(__builtin_popcount(b) & 1); };
  uint16_t lp = 0;
  uint8_t cp = 0;
  for (size_t i = 0; i < kEccSegment; i++) {
    uint8_t b = (i < len) ? data[i] : 0;
    if (parity(b)) {
      for (unsigned k = 0; k < 8; k++) {
        unsigned bit = ((i >> k) & 1) ? (2 * k + 1) : (2 * k);
        lp ^= static_cast<uint16_t>(1u << bit);
      }
    }
    cp ^= static_cast<uint8_t>(parity(b & 0x55) << 0 | parity(b & 0xAA) << 1 |
                               parity(b & 0x33) << 2 | parity(b & 0xCC) << 3 |
                               parity(b & 0x0F) << 4 | parity(b & 0xF0) << 5);
  }
  return {static_cast<uint8_t>(lp & 0xFF), static_cast<uint8_t>(lp >> 8),
          static_cast<uint8_t>(cp | 0xC0)};
}

TEST(EccTest, TableEncoderMatchesBitwise) {
  Rng rng(5);
  // Random whole pages, segment by segment.
  for (int page = 0; page < 64; page++) {
    auto data = RandomSegment(rng, 4096);
    for (size_t off = 0; off < data.size(); off += kEccSegment) {
      ASSERT_EQ(EccEncode(data.data() + off, kEccSegment),
                BitwiseEccEncode(data.data() + off, kEccSegment))
          << "page " << page << " offset " << off;
    }
  }
  // Every segment length, including the zero-padded short ones.
  for (size_t len = 1; len <= kEccSegment; len++) {
    for (int rep = 0; rep < 4; rep++) {
      auto data = RandomSegment(rng, len);
      ASSERT_EQ(EccEncode(data.data(), len), BitwiseEccEncode(data.data(), len))
          << "len " << len;
    }
  }
  // Erased-looking pages: mostly 0xFF with a few programmed bytes.
  for (int page = 0; page < 64; page++) {
    std::vector<uint8_t> data(4096, 0xFF);
    for (int k = 0; k < page; k++) {
      data[rng.Next() % data.size()] = static_cast<uint8_t>(rng.Next());
    }
    for (size_t off = 0; off < data.size(); off += kEccSegment) {
      ASSERT_EQ(EccEncode(data.data() + off, kEccSegment),
                BitwiseEccEncode(data.data() + off, kEccSegment))
          << "0xFF page " << page << " offset " << off;
    }
  }
}

// Property sweep: every single-bit flip in a 256B segment is corrected.
class EccSingleBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(EccSingleBitSweep, EverySingleBitErrorCorrected) {
  Rng rng(42 + GetParam());
  auto data = RandomSegment(rng, kEccSegment);
  auto orig = data;
  auto ecc = EccEncode(data.data(), data.size());
  // Flip every 37th bit position to keep runtime modest but cover bytes/bits.
  for (size_t bitpos = GetParam(); bitpos < kEccSegment * 8; bitpos += 37) {
    data = orig;
    data[bitpos / 8] ^= static_cast<uint8_t>(1u << (bitpos % 8));
    ASSERT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
              EccResult::kCorrected)
        << "bit " << bitpos;
    ASSERT_EQ(data, orig) << "bit " << bitpos;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, EccSingleBitSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace ipa::flash
