#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#include "common/align.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CMPI_CRC32C_X86 1
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define CMPI_CRC32C_ARM 1
#endif

namespace cmpi {
namespace detail {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

std::array<std::uint32_t, 8 * 256> build_table() noexcept {
  std::array<std::uint32_t, 8 * 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = table[i];
    for (std::size_t slice = 1; slice < 8; ++slice) {
      crc = table[crc & 0xFFu] ^ (crc >> 8);
      table[slice * 256 + i] = crc;
    }
  }
  return table;
}

std::uint64_t load_u64(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One slice-by-8 step: folds the 8 bytes at `p` into the running
/// (pre-inverted) crc state.
std::uint32_t slice8_step(const std::uint32_t* table, std::uint32_t crc,
                          const std::byte* p) noexcept {
  std::uint32_t lo = crc;
  lo ^= static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
  const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                           (static_cast<std::uint32_t>(p[5]) << 8) |
                           (static_cast<std::uint32_t>(p[6]) << 16) |
                           (static_cast<std::uint32_t>(p[7]) << 24);
  return table[7 * 256 + (lo & 0xFFu)] ^ table[6 * 256 + ((lo >> 8) & 0xFFu)] ^
         table[5 * 256 + ((lo >> 16) & 0xFFu)] ^
         table[4 * 256 + ((lo >> 24) & 0xFFu)] ^ table[3 * 256 + (hi & 0xFFu)] ^
         table[2 * 256 + ((hi >> 8) & 0xFFu)] ^
         table[1 * 256 + ((hi >> 16) & 0xFFu)] ^
         table[0 * 256 + ((hi >> 24) & 0xFFu)];
}

}  // namespace

const std::uint32_t* crc32c_table() noexcept {
  static const std::array<std::uint32_t, 8 * 256> table = build_table();
  return table.data();
}

std::uint32_t crc32c_sw(std::span<const std::byte> data,
                        std::uint32_t seed) noexcept {
  const std::uint32_t* table = crc32c_table();
  std::uint32_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    crc = slice8_step(table, crc, p);
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = table[(crc ^ static_cast<std::uint32_t>(*p++)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(CMPI_CRC32C_X86)

namespace {

// One crc32 instruction has a latency of three cycles but a throughput of
// one per cycle, so a single dependency chain runs at a third of the
// unit's rate. Long inputs are cut into blocks of three kLane-byte lanes
// checksummed by independent chains; the lane CRCs are then joined with
// the CRC-combine identity crc(A || B) = shift_|B|(crc(A)) ^ crc(B), where
// crc(B) starts from a zero register and shift_n appends n zero bytes.
constexpr std::size_t kLane = kCrc32cLane;
static_assert(is_pow2(kLane));

using Gf2Matrix = std::array<std::uint32_t, 32>;

/// Product of a 32x32 GF(2) matrix (column i = image of bit i) and `vec`.
std::uint32_t gf2_times(const Gf2Matrix& mat, std::uint32_t vec) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; ++i, vec >>= 1) {
    if (vec & 1u) {
      sum ^= mat[i];
    }
  }
  return sum;
}

Gf2Matrix gf2_square(const Gf2Matrix& mat) noexcept {
  Gf2Matrix square{};
  for (std::size_t i = 0; i < 32; ++i) {
    square[i] = gf2_times(mat, mat[i]);
  }
  return square;
}

/// Byte-indexed tables of the operator that feeds kLane zero bytes through
/// the (reflected) CRC register, built as zlib's crc32_combine does: start
/// from the one-zero-bit operator and square it up to 8 * kLane bits.
std::array<std::uint32_t, 4 * 256> build_lane_shift() noexcept {
  Gf2Matrix op{};
  op[0] = kPoly;
  for (std::size_t i = 1; i < 32; ++i) {
    op[i] = 1u << (i - 1);
  }
  for (std::size_t bits = 1; bits < 8 * kLane; bits <<= 1) {
    op = gf2_square(op);
  }
  std::array<std::uint32_t, 4 * 256> table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 4; ++k) {
      table[k * 256 + b] = gf2_times(op, b << (8 * k));
    }
  }
  return table;
}

/// shift_kLane(crc) of a raw (pre-inversion) register value.
std::uint32_t lane_shift(std::uint32_t crc) noexcept {
  static const std::array<std::uint32_t, 4 * 256> table = build_lane_shift();
  return table[crc & 0xFFu] ^ table[256 + ((crc >> 8) & 0xFFu)] ^
         table[512 + ((crc >> 16) & 0xFFu)] ^ table[768 + (crc >> 24)];
}

/// Register after a whole block, from the registers of its three lanes.
std::uint64_t join_lanes(std::uint64_t crc0, std::uint64_t crc1,
                         std::uint64_t crc2) noexcept {
  const std::uint32_t crc01 =
      lane_shift(static_cast<std::uint32_t>(crc0)) ^
      static_cast<std::uint32_t>(crc1);
  return lane_shift(crc01) ^ crc2;
}

}  // namespace

bool crc32c_hw_available() noexcept {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::byte> data, std::uint32_t seed) noexcept {
  std::uint64_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 3 * kLane) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      crc = _mm_crc32_u64(crc, load_u64(p + i));
      crc1 = _mm_crc32_u64(crc1, load_u64(p + kLane + i));
      crc2 = _mm_crc32_u64(crc2, load_u64(p + 2 * kLane + i));
    }
    crc = join_lanes(crc, crc1, crc2);
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  while (n >= 8) {
    crc = _mm_crc32_u64(crc, load_u64(p));
    p += 8;
    n -= 8;
  }
  std::uint32_t crc32 = static_cast<std::uint32_t>(crc);
  while (n-- > 0) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p++));
  }
  return ~crc32;
}

#elif defined(CMPI_CRC32C_ARM)

bool crc32c_hw_available() noexcept {
  // __ARM_FEATURE_CRC32 means the compiler already targets a CPU with the
  // CRC extension, so no runtime probe is needed.
  return true;
}

std::uint32_t crc32c_hw(std::span<const std::byte> data,
                        std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    crc = __crc32cd(crc, load_u64(p));
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = __crc32cb(crc, static_cast<std::uint8_t>(*p++));
  }
  return ~crc;
}

#else

bool crc32c_hw_available() noexcept { return false; }

std::uint32_t crc32c_hw(std::span<const std::byte> data,
                        std::uint32_t seed) noexcept {
  return crc32c_sw(data, seed);
}

#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed) noexcept {
  if (detail::crc32c_hw_available()) {
    return detail::crc32c_hw(data, seed);
  }
  return detail::crc32c_sw(data, seed);
}

}  // namespace cmpi
