// Virtual time.
//
// The reproduction measures a simulated CXL device and simulated NICs, so
// wall-clock timing is meaningless (and the CI host has one core). Instead,
// every rank carries a virtual clock denominated in nanoseconds. Functional
// operations charge model time with advance(); causality across ranks uses
// max-plus propagation: when rank B observes a value rank A published at
// virtual time t, B calls observe(t) so its clock is at least t. This is the
// standard conservative PDES treatment and is exactly how SimGrid-style
// simulators (which the paper itself uses for scaling, §4.4) account time.
#pragma once

#include <algorithm>

#include "common/contracts.hpp"

namespace cmpi::simtime {

/// Virtual nanoseconds. Double keeps sub-ns bandwidth costs exact enough
/// (53-bit mantissa ≈ 0.1 ns resolution over multi-hour horizons).
using Ns = double;

inline constexpr Ns kNsPerUs = 1e3;
inline constexpr Ns kNsPerMs = 1e6;
inline constexpr Ns kNsPerSec = 1e9;

/// Per-rank virtual clock. Not thread-safe: each clock is owned by exactly
/// one rank thread; cross-rank interaction happens by exchanging timestamps
/// through messages/flags and calling observe().
class VClock {
 public:
  VClock() noexcept = default;
  explicit VClock(Ns start) noexcept : now_(start) { CMPI_EXPECTS(start >= 0); }

  /// Current virtual time.
  [[nodiscard]] Ns now() const noexcept { return now_; }

  /// Charge `dt` nanoseconds of local work.
  void advance(Ns dt) noexcept {
    CMPI_EXPECTS(dt >= 0);
    now_ += dt;
  }

  /// Incorporate a remote completion stamp: this rank cannot have observed
  /// the effect before it happened.
  void observe(Ns remote_completion) noexcept {
    now_ = std::max(now_, remote_completion);
  }

  /// Reset to a given time (benchmark iteration boundaries; the p2p layer
  /// also runs a drain on a message's own timeline, then resets back).
  void reset(Ns t = 0) noexcept {
    CMPI_EXPECTS(t >= 0);
    now_ = t;
  }

 private:
  Ns now_ = 0;
};

}  // namespace cmpi::simtime
