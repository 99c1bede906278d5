#include "runtime/config_validate.hpp"

#include <cstdint>
#include <limits>
#include <string>

#include "common/units.hpp"
#include "runtime/universe.hpp"

namespace cmpi::runtime {

namespace {
constexpr std::size_t kMinThreshold = 512;
constexpr std::size_t kMinQuantum = 4_KiB;
constexpr std::size_t kMaxQuantum = 16_MiB;
constexpr std::size_t kMaxInflight = 64;
}  // namespace

Status validate(const UniverseConfig& config) {
  const std::size_t threshold = config.rendezvous_threshold;
  if (threshold != 0 && threshold != ~std::size_t{0} &&
      threshold < kMinThreshold) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_threshold must be 0 (default), SIZE_MAX "
        "(rendezvous off) or >= " +
        std::to_string(kMinThreshold) + " bytes, got " +
        std::to_string(threshold));
  }
  const std::size_t quantum = config.rendezvous_quantum;
  if (quantum != 0 && (quantum < kMinQuantum || quantum > kMaxQuantum)) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_quantum must be 0 (default) or in [" +
        std::to_string(kMinQuantum) + ", " + std::to_string(kMaxQuantum) +
        "] bytes, got " + std::to_string(quantum));
  }
  if (config.rendezvous_inflight > kMaxInflight) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_inflight must be 0 (default) or in [1, " +
        std::to_string(kMaxInflight) + "], got " +
        std::to_string(config.rendezvous_inflight));
  }
  return Status::ok();
}

}  // namespace cmpi::runtime
