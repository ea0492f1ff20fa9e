// CRC32-C (Castagnoli polynomial) for every checksum in the stack: WAL
// records, the PageFtl/StreamFtl OOB entries and their mount checks, net
// frames, replication changesets and the delta codec's Crc16.
//
// Crc32c picks its kernel once, at the first call: the SSE4.2 CRC32
// instruction on x86-64 CPUs that have it, otherwise a portable slice-by-8
// table loop. Both return the same value for every input, so checksums
// written on one machine verify on any other.

#pragma once

#include <cstddef>
#include <cstdint>

namespace ipa {

/// Compute CRC32-C over `data[0..len)`, chained from `seed` (0 to start).
uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed = 0);

/// The two kernels behind Crc32c, exposed so tests and micro-benches can
/// compare them. Callers outside those use Crc32c.
namespace detail {

/// Slice-by-8 table loop; runs on every CPU.
uint32_t Crc32cPortable(const uint8_t* data, size_t len, uint32_t seed);

/// True when this CPU has the SSE4.2 CRC32 instruction (x86-64 only).
bool Crc32cHardwareAvailable();

/// SSE4.2 kernel. Call only when Crc32cHardwareAvailable(); on other
/// architectures it is the portable kernel.
uint32_t Crc32cHardware(const uint8_t* data, size_t len, uint32_t seed);

}  // namespace detail

}  // namespace ipa
