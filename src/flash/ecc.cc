#include "flash/ecc.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ipa::flash {

namespace {

struct EccTables {
  std::array<uint8_t, 256> parity{};      // parity of the byte
  std::array<uint8_t, 256> col_parity{};  // CP0..CP5 of the byte
};

constexpr uint8_t Parity8(unsigned b) {
  return static_cast<uint8_t>(std::popcount(b) & 1);
}

// CPk is the parity of the bits of every byte selected by kColumnMasks[k].
constexpr uint8_t kColumnMasks[6] = {0x55, 0xAA, 0x33, 0xCC, 0x0F, 0xF0};

constexpr EccTables MakeEccTables() {
  EccTables t;
  for (unsigned b = 0; b < 256; b++) {
    t.parity[b] = Parity8(b);
    for (unsigned k = 0; k < 6; k++) {
      t.col_parity[b] |= static_cast<uint8_t>(Parity8(b & kColumnMasks[k]) << k);
    }
  }
  return t;
}

constexpr EccTables kEccTables = MakeEccTables();

// Moves bit k of an 8-bit value to bit 2k.
constexpr uint16_t SpreadBits(unsigned x) {
  x = (x | (x << 4)) & 0x0F0F;
  x = (x | (x << 2)) & 0x3333;
  x = (x | (x << 1)) & 0x5555;
  return static_cast<uint16_t>(x);
}

}  // namespace

std::array<uint8_t, kEccBytesPerSegment> EccEncode(const uint8_t* data, size_t len) {
  // Classic SmartMedia 22-bit Hamming code: 16 line-parity bits over the byte
  // address, 6 column-parity bits over the bit position. Both are linear, so
  // one pass folds the segment into three values:
  //   - the XOR of all bytes, whose column parity is CP0..CP5;
  //   - the XOR of the addresses of the odd-parity bytes, whose bit k is
  //     LP2k+1 (odd-parity bytes with address bit k set);
  //   - the parity of the number of odd-parity bytes, which XORed with LP2k+1
  //     gives LP2k (odd-parity bytes with address bit k clear).
  // Zero padding past `len` changes none of them.
  len = std::min(len, kEccSegment);
  unsigned all = 0;
  unsigned odd_addr = 0;
  unsigned odd_count = 0;
  for (size_t i = 0; i < len; i++) {
    unsigned odd = kEccTables.parity[data[i]];
    all ^= data[i];
    odd_addr ^= static_cast<unsigned>(i) & (0u - odd);
    odd_count ^= odd;
  }
  // bit 2k = LP2k, bit 2k+1 = LP2k+1
  const unsigned even = odd_addr ^ (odd_count ? 0xFFu : 0u);
  const uint16_t lp = static_cast<uint16_t>(SpreadBits(odd_addr) << 1 | SpreadBits(even));
  const uint8_t cp = kEccTables.col_parity[all];

  std::array<uint8_t, 3> ecc;
  ecc[0] = static_cast<uint8_t>(lp & 0xFF);
  ecc[1] = static_cast<uint8_t>(lp >> 8);
  ecc[2] = static_cast<uint8_t>(cp | 0xC0);  // top two bits fixed to 1
  return ecc;
}

EccResult EccCheckAndCorrect(uint8_t* data, size_t len,
                             const std::array<uint8_t, kEccBytesPerSegment>& stored) {
  auto computed = EccEncode(data, len);
  uint8_t d0 = static_cast<uint8_t>(stored[0] ^ computed[0]);
  uint8_t d1 = static_cast<uint8_t>(stored[1] ^ computed[1]);
  uint8_t d2 = static_cast<uint8_t>((stored[2] ^ computed[2]) & 0x3F);

  if ((d0 | d1 | d2) == 0) return EccResult::kClean;

  int total = std::popcount(static_cast<unsigned>(d0)) +
              std::popcount(static_cast<unsigned>(d1)) +
              std::popcount(static_cast<unsigned>(d2));

  // A single flipped data bit flips exactly one bit of every LP/CP pair:
  // 8 LP pairs + 3 CP pairs = 11 differing bits, one per pair.
  bool one_per_pair = (((d0 ^ (d0 >> 1)) & 0x55) == 0x55) &&
                      (((d1 ^ (d1 >> 1)) & 0x55) == 0x55) &&
                      (((d2 ^ (d2 >> 1)) & 0x15) == 0x15);
  if (total == 11 && one_per_pair) {
    unsigned byte_addr = ((d0 >> 1) & 1) << 0 | ((d0 >> 3) & 1) << 1 |
                         ((d0 >> 5) & 1) << 2 | ((d0 >> 7) & 1) << 3 |
                         ((d1 >> 1) & 1) << 4 | ((d1 >> 3) & 1) << 5 |
                         ((d1 >> 5) & 1) << 6 | ((d1 >> 7) & 1) << 7;
    unsigned bit_addr = ((d2 >> 1) & 1) << 0 | ((d2 >> 3) & 1) << 1 |
                        ((d2 >> 5) & 1) << 2;
    if (byte_addr < len) {
      data[byte_addr] ^= static_cast<uint8_t>(1u << bit_addr);
    }
    // An error in the zero-padding region cannot happen physically; if the
    // address points past `len` the stored ECC itself was damaged.
    return EccResult::kCorrected;
  }

  if (total == 1) {
    // Single-bit error in the ECC bytes themselves; the data is intact.
    return EccResult::kCorrected;
  }
  return EccResult::kUncorrectable;
}

size_t EccRegionBytes(size_t data_len) {
  size_t segments = (data_len + kEccSegment - 1) / kEccSegment;
  return segments * kEccBytesPerSegment;
}

std::vector<uint8_t> EccEncodeRegion(const uint8_t* data, size_t len) {
  std::vector<uint8_t> out;
  out.reserve(EccRegionBytes(len));
  for (size_t off = 0; off < len; off += kEccSegment) {
    size_t seg = std::min(kEccSegment, len - off);
    auto ecc = EccEncode(data + off, seg);
    out.insert(out.end(), ecc.begin(), ecc.end());
  }
  return out;
}

EccResult EccCheckRegion(uint8_t* data, size_t len, const uint8_t* stored_ecc,
                         size_t stored_len, uint64_t* corrected_bits) {
  EccResult worst = EccResult::kClean;
  size_t seg_idx = 0;
  for (size_t off = 0; off < len; off += kEccSegment, seg_idx++) {
    if ((seg_idx + 1) * kEccBytesPerSegment > stored_len) {
      return EccResult::kUncorrectable;
    }
    size_t seg = std::min(kEccSegment, len - off);
    std::array<uint8_t, 3> stored;
    std::memcpy(stored.data(), stored_ecc + seg_idx * kEccBytesPerSegment, 3);
    EccResult r = EccCheckAndCorrect(data + off, seg, stored);
    if (r == EccResult::kCorrected && corrected_bits) (*corrected_bits)++;
    if (static_cast<int>(r) > static_cast<int>(worst)) worst = r;
  }
  return worst;
}

}  // namespace ipa::flash
