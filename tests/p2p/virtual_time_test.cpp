// When a drained cell's stamp reaches the receiving rank's clock.
//
// Host threads run in any order, so a sender far ahead in virtual time can
// land a message in a receiver's ring long before the receiver's clock gets
// there. Draining such a message while the receiver waits for something
// else must not pull the receiver's clock forward; the receive that
// finally takes the message must end no earlier than the message's stamp.
// A host latch (outside virtual time) forces the worst host order
// deterministically.
#include "p2p/endpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <vector>

namespace cmpi::p2p {
namespace {

runtime::UniverseConfig three_nodes() {
  runtime::UniverseConfig cfg;
  cfg.nodes = 3;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  return cfg;
}

TEST(EndpointVirtualTime, UnrelatedFutureMessageDoesNotMoveABlockedRank) {
  constexpr int kAwaitedTag = 1;
  constexpr int kLateTag = 2;
  runtime::Universe universe(three_nodes());
  std::latch late_published(1);
  std::atomic<double> late_stamp{0};
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    std::vector<std::byte> buffer(64, std::byte{0x5a});
    switch (ctx.rank()) {
      case 2:
        // 1 ms ahead of the others, on a tag rank 0 has not posted yet.
        ctx.clock().advance(1e6);
        late_stamp = ctx.clock().now();
        check_ok(ep.send(0, kLateTag, buffer));
        late_published.count_down();  // the cell is in rank 0's ring
        break;
      case 1:
        late_published.wait();
        check_ok(ep.send(0, kAwaitedTag, buffer));
        break;
      default: {
        check_ok(ep.recv(1, kAwaitedTag, buffer));
        EXPECT_LT(ctx.clock().now(), late_stamp.load())
            << "draining rank 2's message while blocked on rank 1 moved "
               "rank 0's clock to rank 2's stamp";
        const RecvInfo info = check_ok(ep.recv(2, kLateTag, buffer));
        EXPECT_EQ(info.bytes, buffer.size());
        EXPECT_GE(ctx.clock().now(), late_stamp.load())
            << "receiving rank 2's message ended before it was sent";
        break;
      }
    }
  });
}

}  // namespace
}  // namespace cmpi::p2p
