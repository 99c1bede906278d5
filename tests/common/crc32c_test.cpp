// CRC32C: known-answer vectors, chunked-seed chaining, and bit-for-bit
// agreement between the hardware (SSE4.2 / ARMv8 CRC) and slice-by-8
// software paths on random buffers of awkward lengths and alignments.
#include "common/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace cmpi {
namespace {

std::vector<std::byte> random_bytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> data(size);
  Rng rng(seed);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(256));
  }
  return data;
}

std::span<const std::byte> as_bytes(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 (iSCSI) appendix test patterns.
  EXPECT_EQ(crc32c({}), 0u);
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::vector<std::byte> ones(32, std::byte{0xFF});
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);
}

TEST(Crc32c, SeedChainsAcrossChunks) {
  const std::vector<std::byte> data = random_bytes(4096 + 13, 1);
  const std::uint32_t whole = crc32c(data);
  // Any chunking must give the same result when the seed is threaded
  // through — the rendezvous path checksums segments in sub-chunks whose
  // boundaries differ between sender and receiver.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7},
                                std::size_t{512}, std::size_t{4096}}) {
    std::uint32_t crc = 0;
    for (std::size_t off = 0; off < data.size(); off += cut) {
      const std::size_t n = std::min(cut, data.size() - off);
      crc = crc32c(std::span(data).subspan(off, n), crc);
    }
    EXPECT_EQ(crc, whole) << "chunk size " << cut;
  }
}

TEST(Crc32c, HardwareAgreesWithSoftware) {
  if (!detail::crc32c_hw_available()) {
    GTEST_SKIP() << "no CRC32C instruction on this host";
  }
  Rng rng(2);
  for (int round = 0; round < 64; ++round) {
    // Lengths straddling the 8-byte stride and a random sub-span start so
    // both head/tail scalar loops and unaligned reads are covered.
    const std::size_t size = rng.next_below(3000) + 1;
    const std::vector<std::byte> data = random_bytes(size, 100 + round);
    const std::size_t skip = rng.next_below(std::min<std::size_t>(size, 9));
    const auto span = std::span(data).subspan(skip);
    const auto seed = static_cast<std::uint32_t>(rng.next_below(1u << 31));
    EXPECT_EQ(detail::crc32c_hw(span, seed), detail::crc32c_sw(span, seed));
  }
}

// Lengths around the x86 kernel's 3-lane block boundary (the random
// agreement tests above stay below one block), from unaligned starts and
// with the seed threaded through a split.
TEST(Crc32c, LaneBoundaryLengthsAgreeWithSoftware) {
  constexpr std::size_t kL = detail::kCrc32cLane;
  const std::size_t lengths[] = {0,          1,          3 * kL - 1,
                                 3 * kL,     3 * kL + 1, 3 * kL + 7,
                                 6 * kL,     (2u << 20) + 5};
  const std::vector<std::byte> data = random_bytes((2u << 20) + 64, 5);
  Rng rng(6);
  for (const std::size_t n : lengths) {
    for (const std::size_t skip : {std::size_t{0}, std::size_t{1},
                                   std::size_t{5}}) {
      const auto span = std::span(data).subspan(skip, n);
      const auto seed = static_cast<std::uint32_t>(rng.next_below(1u << 31));
      const std::uint32_t want = detail::crc32c_sw(span, seed);
      EXPECT_EQ(crc32c(span, seed), want) << "n=" << n << " skip=" << skip;
      const std::size_t cut = n / 3;
      EXPECT_EQ(crc32c(span.subspan(cut), crc32c(span.first(cut), seed)),
                want)
          << "chained, n=" << n << " skip=" << skip;
      if (detail::crc32c_hw_available()) {
        EXPECT_EQ(detail::crc32c_hw(span, seed), want);
      }
    }
  }
}

}  // namespace
}  // namespace cmpi
