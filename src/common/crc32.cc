#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ipa {

namespace {
constexpr uint32_t kPoly = 0x82F63B78u;  // CRC32-C reflected polynomial

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the bytewise table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight lookups advance the CRC by 8 bytes.
// Built at compile time: safe to use from any static initializer.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; k++) {
    for (uint32_t i = 0; i < 256; i++) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
}  // namespace

namespace detail {

uint32_t Crc32cPortable(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = LoadLe32(data) ^ crc;
    uint32_t hi = LoadLe32(data + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^ kTables[5][(lo >> 16) & 0xFF] ^
          kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; data++, len--) {
    crc = kTables[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool Crc32cHardwareAvailable() {
  // cpu_init makes the query valid even before the runtime's own
  // constructor has run, i.e. from another static initializer.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const uint8_t* data, size_t len,
                                                          uint32_t seed) {
  uint64_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; data++, len--) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}

#else

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cHardware(const uint8_t* data, size_t len, uint32_t seed) {
  return Crc32cPortable(data, len, seed);
}

#endif

}  // namespace detail

uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed) {
  // A function-local static is initialised on first use, so the choice is
  // right even when the first call comes from a static initializer.
  static const bool hardware = detail::Crc32cHardwareAvailable();
  return hardware ? detail::Crc32cHardware(data, len, seed)
                  : detail::Crc32cPortable(data, len, seed);
}

}  // namespace ipa
