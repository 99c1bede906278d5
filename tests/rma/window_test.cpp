#include "rma/window.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

namespace cmpi::rma {
namespace {

runtime::UniverseConfig small_config(unsigned nodes, unsigned per_node) {
  runtime::UniverseConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = per_node;
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  return cfg;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 17 + i * 3) & 0xFF);
  }
  return out;
}

TEST(Window, SegmentsAreContiguousPerRank) {
  runtime::Universe universe(small_config(2, 2));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "layout", 4096);
    for (int r = 0; r + 1 < ctx.nranks(); ++r) {
      EXPECT_EQ(win.segment_offset(r) + win.win_size(),
                win.segment_offset(r + 1));
    }
    win.free();
  });
}

TEST(Window, WinSizeRoundsToCacheline) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "round", 100);
    EXPECT_EQ(win.win_size(), 128u);
    win.free();
  });
}

// disp + size wraps past 2^64 to a value inside the window; the range check
// must still reject the put instead of letting it write the origin's own
// segment.
TEST(WindowDeathTest, PutWithWrappingDisplacementIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        runtime::Universe universe(small_config(2, 1));
        universe.run([&](runtime::RankCtx& ctx) {
          Window win = Window::create(ctx, "wrap", 4096);
          if (ctx.rank() == 0) {
            win.put(1, ~std::uint64_t{0} - 63, pattern(64, 1));
          }
          win.free();
        });
      },
      "precondition");
}

TEST(Window, PutWithPscwDeliversData) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "pscw_put", 4096);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    const auto data = pattern(1024, 5);
    if (ctx.rank() == 0) {
      win.start(target);
      win.put(1, 128, data);
      win.complete(target);
    } else {
      win.post(origin);
      win.wait(origin);
      std::vector<std::byte> got(1024);
      win.read_local(128, got);
      EXPECT_EQ(got, data);
    }
    win.free();
  });
}

TEST(Window, GetWithPscwFetchesTargetData) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "pscw_get", 2048);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    const auto data = pattern(512, 9);
    if (ctx.rank() == 1) {
      win.write_local(64, data);  // target fills its segment
      win.post(origin);
      win.wait(origin);
    } else {
      win.start(target);
      std::vector<std::byte> got(512);
      win.get(1, 64, got);
      EXPECT_EQ(got, data);
      win.complete(target);
    }
    win.free();
  });
}

TEST(Window, PscwEpochsRepeat) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "pscw_repeat", 256);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    for (int epoch = 0; epoch < 10; ++epoch) {
      const auto data = pattern(64, epoch);
      if (ctx.rank() == 0) {
        win.start(target);
        win.put(1, 0, data);
        win.complete(target);
      } else {
        win.post(origin);
        win.wait(origin);
        std::vector<std::byte> got(64);
        win.read_local(0, got);
        EXPECT_EQ(got, data) << "epoch " << epoch;
      }
    }
    win.free();
  });
}

TEST(Window, PscwWaitSynchronizesVirtualTime) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "pscw_time", 256);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    if (ctx.rank() == 0) {
      ctx.clock().advance(5e6);  // origin is slow before completing
      win.start(target);
      win.complete(target);
    } else {
      win.post(origin);
      win.wait(origin);
      EXPECT_GE(ctx.clock().now(), 5e6);
    }
    win.free();
  });
}

TEST(Window, MultipleOriginsOneTarget) {
  runtime::Universe universe(small_config(3, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "fanin", 4096);
    const std::array<int, 2> origins{0, 1};
    const std::array<int, 1> target{2};
    if (ctx.rank() == 2) {
      win.post(origins);
      win.wait(origins);
      for (int o = 0; o < 2; ++o) {
        std::vector<std::byte> got(128);
        win.read_local(static_cast<std::uint64_t>(o) * 1024, got);
        EXPECT_EQ(got, pattern(128, o + 1));
      }
    } else {
      win.start(target);
      win.put(2, static_cast<std::uint64_t>(ctx.rank()) * 1024,
              pattern(128, ctx.rank() + 1));
      win.complete(target);
    }
    win.free();
  });
}

TEST(Window, FenceSeparatesEpochs) {
  runtime::Universe universe(small_config(2, 2));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "fence", 1024);
    const int n = ctx.nranks();
    const int right = (ctx.rank() + 1) % n;
    // Epoch 1: everyone puts its rank id into its right neighbor.
    win.fence();
    const std::uint64_t value = static_cast<std::uint64_t>(ctx.rank() + 100);
    win.put(right, 0,
            {reinterpret_cast<const std::byte*>(&value), sizeof value});
    win.fence();
    // Epoch 2: read own segment.
    std::uint64_t got = 0;
    win.read_local(0, {reinterpret_cast<std::byte*>(&got), sizeof got});
    const int left = (ctx.rank() + n - 1) % n;
    EXPECT_EQ(got, static_cast<std::uint64_t>(left + 100));
    win.fence();
    win.free();
  });
}

TEST(Window, LockUnlockExcludesConcurrentAccumulate) {
  // All ranks accumulate into rank 0's counter under the window lock; the
  // total must not lose updates.
  runtime::Universe universe(small_config(2, 2));
  constexpr int kIters = 25;
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "lockacc", 64);
    if (ctx.rank() == 0) {
      const double zero = 0.0;
      win.write_local(0, std::as_bytes(std::span(&zero, 1)));
    }
    win.fence();
    const double one = 1.0;
    for (int i = 0; i < kIters; ++i) {
      win.lock(0);
      win.accumulate(0, 0, std::span(&one, 1), AccumulateOp::kSum);
      win.unlock(0);
    }
    win.fence();
    if (ctx.rank() == 0) {
      double total = 0;
      std::vector<std::byte> raw(sizeof total);
      win.get(0, 0, raw);
      std::memcpy(&total, raw.data(), sizeof total);
      EXPECT_DOUBLE_EQ(total, ctx.nranks() * kIters);
    }
    win.free();
  });
}

TEST(Window, AccumulateOps) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "accops", 256);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    if (ctx.rank() == 1) {
      const std::array<double, 3> init{10.0, 10.0, 10.0};
      win.write_local(0, std::as_bytes(std::span(init)));
      win.post(origin);
      win.wait(origin);
      std::array<double, 3> got{};
      std::vector<std::byte> raw(sizeof got);
      win.read_local(0, raw);
      std::memcpy(got.data(), raw.data(), sizeof got);
      EXPECT_DOUBLE_EQ(got[0], 13.0);   // sum
      EXPECT_DOUBLE_EQ(got[1], 10.0);   // min(10, 13)
      EXPECT_DOUBLE_EQ(got[2], 13.0);   // replace
    } else {
      win.start(target);
      const double v = 3.0;
      win.accumulate(1, 0, std::span(&v, 1), AccumulateOp::kSum);
      const double m = 13.0;
      win.accumulate(1, 8, std::span(&m, 1), AccumulateOp::kMin);
      win.accumulate(1, 16, std::span(&m, 1), AccumulateOp::kReplace);
      win.complete(target);
    }
    win.free();
  });
}

TEST(Window, TwoWindowsCoexist) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window a = Window::create(ctx, "multi_a", 256);
    Window b = Window::create(ctx, "multi_b", 256);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    if (ctx.rank() == 0) {
      a.start(target);
      b.start(target);
      a.put(1, 0, pattern(64, 1));
      b.put(1, 0, pattern(64, 2));
      a.complete(target);
      b.complete(target);
    } else {
      a.post(origin);
      b.post(origin);
      a.wait(origin);
      b.wait(origin);
      std::vector<std::byte> got(64);
      a.read_local(0, got);
      EXPECT_EQ(got, pattern(64, 1));
      b.read_local(0, got);
      EXPECT_EQ(got, pattern(64, 2));
    }
    b.free();
    a.free();
  });
}

TEST(Window, FreeReleasesArenaSpace) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    const std::uint64_t before =
        ctx.rank() == 0 ? ctx.arena().free_bytes() : 0;
    ctx.barrier();
    Window win = Window::create(ctx, "tofree", 4096);
    win.free();
    ctx.barrier();
    if (ctx.rank() == 0) {
      EXPECT_EQ(ctx.arena().free_bytes(), before);
    }
  });
}

TEST(Window, SmallPutLatencyIsMicrosecondScale) {
  // Fig. 6 sanity: one-sided small-message latency with PSCW sync should
  // land in the ~3-30 us band (paper: ~12 us).
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Window win = Window::create(ctx, "lat", 4096);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    constexpr int kIters = 50;
    win.fence();
    const double start = ctx.clock().now();
    for (int i = 0; i < kIters; ++i) {
      if (ctx.rank() == 0) {
        win.start(target);
        win.put(1, 0, pattern(8, i));
        win.complete(target);
      } else {
        win.post(origin);
        win.wait(origin);
      }
    }
    win.fence();
    const double per_op_us = (ctx.clock().now() - start) / kIters / 1000.0;
    EXPECT_GT(per_op_us, 1.0);
    EXPECT_LT(per_op_us, 40.0);
    win.free();
  });
}

}  // namespace
}  // namespace cmpi::rma
