// CRC32C (Castagnoli) over byte spans, used for end-to-end payload
// integrity on staged message chunks: the sender stamps the checksum into
// the ring cell header, the receiver verifies it after copying the chunk
// out of the pool, and a mismatch (torn cell, media poison that slipped
// past the device model, stray write) becomes a retryable NAK instead of
// silent corruption.
//
// Two implementations, picked once at startup:
//   - hardware: SSE4.2 `crc32` (x86-64) or the ARMv8 CRC32 extension,
//     detected at runtime so the same binary runs on hosts without them;
//     on x86 long inputs run three independent crc32 chains whose results
//     are joined with a precomputed GF(2) shift table;
//   - software: slice-by-8 table, no ISA dependence.
// The checksum is host-side work only — it charges no virtual time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cmpi {

namespace detail {
/// Lane length of the x86 hardware kernel: inputs of at least three lanes
/// are checksummed as three interleaved kCrc32cLane-byte streams per block.
inline constexpr std::size_t kCrc32cLane = 4096;

/// Lazily built 8x256 lookup table for the Castagnoli polynomial
/// (0x1EDC6F41, reflected 0x82F63B78).
const std::uint32_t* crc32c_table() noexcept;

/// Portable slice-by-8 implementation. Exposed so tests can check that the
/// hardware path agrees with it bit-for-bit.
std::uint32_t crc32c_sw(std::span<const std::byte> data,
                        std::uint32_t seed) noexcept;

/// True when the running CPU has a usable CRC32C instruction (SSE4.2 on
/// x86-64, the CRC extension on ARMv8) and the hardware path is active.
bool crc32c_hw_available() noexcept;

/// Hardware implementation; only callable when crc32c_hw_available().
std::uint32_t crc32c_hw(std::span<const std::byte> data,
                        std::uint32_t seed) noexcept;
}  // namespace detail

/// CRC32C of `data`, continuing from `seed` (pass the previous result to
/// checksum a message in chunks). The empty span returns `seed` unchanged.
std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed = 0) noexcept;

}  // namespace cmpi
