// Copy contention is counted per node in virtual time.
//
// A large bulk copy pays the memory-hierarchy contention penalty for the
// other streams of its own node whose copies overlap it in virtual time,
// whatever order the host issues them in; copies on other nodes, or far
// apart in virtual time, do not slow it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "cxlsim/accessor.hpp"

namespace cmpi::cxlsim {
namespace {

constexpr std::size_t kCopyBytes = 1_MiB;

/// One device, two nodes, two ranks per node.
struct Platform {
  Platform() : device(check_ok(DaxDevice::create(4 * kDaxAlignment))) {
    for (int n = 0; n < 2; ++n) {
      nodes.push_back(std::make_unique<CacheSim>(*device));
    }
    for (int r = 0; r < 4; ++r) {
      ranks.push_back(std::make_unique<Accessor>(
          *device, *nodes[static_cast<std::size_t>(r / 2)],
          clocks[static_cast<std::size_t>(r)]));
    }
  }

  /// Virtual time rank `r`'s bulk_write of kCopyBytes charges its clock.
  simtime::Ns copy(int r) {
    const std::vector<std::byte> data(kCopyBytes, std::byte{0x3c});
    simtime::VClock& clock = clocks[static_cast<std::size_t>(r)];
    const simtime::Ns before = clock.now();
    ranks[static_cast<std::size_t>(r)]->bulk_write(
        static_cast<std::uint64_t>(r) * kCopyBytes, data);
    return clock.now() - before;
  }

  [[nodiscard]] simtime::Ns solo() const {
    const CxlTimingModel& timing = device->timing();
    return timing.params().flush_base + timing.cpu_copy_cost(kCopyBytes);
  }

  std::unique_ptr<DaxDevice> device;
  std::vector<std::unique_ptr<CacheSim>> nodes;
  simtime::VClock clocks[4];
  std::vector<std::unique_ptr<Accessor>> ranks;
};

TEST(CopyContention, OverlappingCopiesOnDifferentNodesRunAtTheSoloRate) {
  for (const bool reversed : {false, true}) {
    Platform platform;  // ranks 0 and 2 sit on nodes 0 and 1
    const int first = reversed ? 2 : 0;
    const int second = reversed ? 0 : 2;
    EXPECT_DOUBLE_EQ(platform.copy(first), platform.solo()) << reversed;
    EXPECT_DOUBLE_EQ(platform.copy(second), platform.solo()) << reversed;
  }
}

TEST(CopyContention, OverlappingCopiesOnOneNodeContend) {
  simtime::Ns totals[2] = {0, 0};
  for (const bool reversed : {false, true}) {
    Platform platform;  // ranks 0 and 1 share node 0
    const simtime::Ns a = platform.copy(reversed ? 1 : 0);
    const simtime::Ns b = platform.copy(reversed ? 0 : 1);
    EXPECT_GT(a + b, 2 * platform.solo()) << reversed;
    EXPECT_GT(std::max(a, b), platform.solo()) << reversed;
    totals[reversed ? 1 : 0] = a + b;
  }
  EXPECT_DOUBLE_EQ(totals[0], totals[1]);
}

TEST(CopyContention, CopiesApartInVirtualTimeDoNotContend) {
  // The later copy in virtual time is issued first by the host.
  Platform platform;
  platform.clocks[1].advance(10 * platform.solo());
  EXPECT_DOUBLE_EQ(platform.copy(1), platform.solo());
  EXPECT_DOUBLE_EQ(platform.copy(0), platform.solo());
}

}  // namespace
}  // namespace cmpi::cxlsim
