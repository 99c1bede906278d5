// Input generation and output checks for the cMPI benchmark.
//
// Everything here is independent of the library: inputs come from the
// benchmark's own seeded generator, so a change to cMPI cannot change what
// the benchmark feeds it, and the checks judge outputs against values the
// benchmark computed itself.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

/// splitmix64 step: a full-period 64-bit mixer, enough for input
/// generation and cheap to reproduce in any language.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded stream of 64-bit values.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(state_);
  }
  /// Uniform double in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [0, bound); bound > 0. The modulo bias is below
  /// 2^-40 for every bound this benchmark uses.
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Derive an independent seed for one (stream id, index) from the run seed.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t id,
                            std::uint64_t index = 0) noexcept {
  return mix(mix(seed ^ mix(id)) ^ index);
}

/// `count` sizes log-uniform over [lo, hi], stratified: size i is drawn
/// from the i-th of `count` equal-probability strata, then the list is
/// shuffled. Each seed gives other sizes and another order, but the size
/// distribution of the whole list barely moves between seeds, so a
/// percentile over it compares across seeds.
inline std::vector<std::size_t> log_uniform_sizes(std::uint64_t seed,
                                                  std::size_t count,
                                                  std::size_t lo,
                                                  std::size_t hi) {
  Stream rng(seed);
  const double log_lo = std::log(static_cast<double>(lo));
  const double log_hi = std::log(static_cast<double>(hi));
  std::vector<std::size_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i) + rng.unit()) /
                     static_cast<double>(count);
    const double v = std::exp(log_lo + u * (log_hi - log_lo));
    sizes[i] = std::clamp(static_cast<std::size_t>(std::llround(v)), lo, hi);
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.below(i)]);
  }
  return sizes;
}

/// A seeded block of random bytes from which every payload is cut: the
/// payload for key k is the `size` bytes at a key-derived offset. Senders
/// send straight out of the block and receivers compare against it, so no
/// payload is filled or hashed on the timed path.
class PatternBlock {
 public:
  PatternBlock(std::uint64_t seed, std::size_t max_payload)
      : max_payload_(max_payload), bytes_(2 * max_payload + 4096) {
    Stream rng(seed);
    for (std::size_t i = 0; i + 8 <= bytes_.size(); i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(bytes_.data() + i, &v, 8);
    }
  }

  /// Payload bytes for `key`; size <= max_payload.
  [[nodiscard]] std::span<const std::byte> payload(std::uint64_t key,
                                                   std::size_t size) const {
    const std::size_t span = bytes_.size() - max_payload_;
    const std::size_t offset = static_cast<std::size_t>(mix(key) % span);
    return {bytes_.data() + offset, std::min(size, max_payload_)};
  }

 private:
  std::size_t max_payload_;
  std::vector<std::byte> bytes_;
};

/// True when `got` is exactly the `size`-byte payload for `key`: same
/// length, same bytes.
inline bool payload_ok(const PatternBlock& pattern, std::uint64_t key,
                       std::size_t size, std::span<const std::byte> got) {
  const std::span<const std::byte> want = pattern.payload(key, size);
  return want.size() == size && got.size() == size &&
         std::memcmp(want.data(), got.data(), size) == 0;
}

/// The residual rank `rank` contributes at `step`: a small integer held in
/// a double, so any summation order gives the exact same sum.
inline double residual(std::uint64_t seed, int rank, std::uint64_t step) {
  return static_cast<double>(derive(seed, 0x7e5, step * 64 + rank) % 1024);
}

/// Closed form of the allreduce-sum of residual() over `nranks` ranks.
inline double residual_sum(std::uint64_t seed, int nranks,
                           std::uint64_t step) {
  double sum = 0;
  for (int r = 0; r < nranks; ++r) {
    sum += residual(seed, r, step);
  }
  return sum;
}

/// True when an allreduce-sum of residual() equals the closed form
/// exactly (integer-valued doubles: no rounding in any order).
inline bool reduction_ok(double got, std::uint64_t seed, int nranks,
                         std::uint64_t step) {
  return got == residual_sum(seed, nranks, step);
}

}  // namespace perfbench
