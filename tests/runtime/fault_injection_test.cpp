// Fault injection and failure detection/recovery, end to end: scripted
// rank crashes (access-count and sync-point triggered), poisoned-line
// reads, degraded-link latency, and the deadline-aware blocking variants
// (SeqBarrier::enter_for, BakeryLock via Window::lock_for, Endpoint's
// *_for family) that let survivors observe a peer's death instead of
// hanging. Includes the acceptance scenario from the robustness issue:
// a rank killed while holding a window lock mid-put, with the survivor
// breaking the lock via the heartbeat lease and completing its epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/cmpi.hpp"
#include "cxlsim/fault_injector.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/seq_barrier.hpp"
#include "runtime/universe.hpp"

namespace cmpi::runtime {
namespace {

using namespace std::chrono_literals;

UniverseConfig fault_config(unsigned nodes = 2, unsigned per_node = 1) {
  UniverseConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = per_node;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  // Short lease so dead-peer verdicts arrive quickly; the deadlines the
  // tests pass are an order of magnitude longer, so a live-but-slow CI
  // machine cannot flip a kPeerFailed expectation into kTimedOut.
  cfg.failure_lease = 50ms;
  return cfg;
}

TEST(FaultInjection, NoPlanMeansNoInjector) {
  // Zero-cost-when-off: an empty plan installs nothing — every Accessor
  // fault hook stays a single null pointer compare.
  Universe universe(fault_config());
  EXPECT_EQ(universe.fault_injector(), nullptr);
  universe.run([](RankCtx& ctx) { ctx.barrier(); });
  EXPECT_EQ(universe.fault_injector(), nullptr);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(FaultInjection, CrashAtNthAccessKillsOnlyThatRank) {
  UniverseConfig cfg = fault_config();
  cfg.fault_plan.crash_at_access.push_back({.rank = 1, .nth = 1});
  Universe universe(cfg);
  ASSERT_NE(universe.fault_injector(), nullptr);

  std::atomic<bool> rank0_finished{false};
  std::atomic<bool> rank1_finished{false};
  universe.run([&](RankCtx& ctx) {
    // Rank 1's very first pool access (inside its arena attach) fires the
    // crash; Universe::run absorbs the RankCrashed at the rank boundary,
    // so this body never runs for rank 1 and the run() call still returns
    // normally. Rank 0 does purely local work and is unaffected.
    if (ctx.rank() == 0) {
      check_ok(ctx.arena().create("survivor_obj", 4096));
      rank0_finished = true;
    } else {
      rank1_finished = true;
    }
  });

  EXPECT_TRUE(rank0_finished.load());
  EXPECT_FALSE(rank1_finished.load());
  const cxlsim::FaultInjector* fi = universe.fault_injector();
  EXPECT_TRUE(fi->rank_crashed(1));
  EXPECT_FALSE(fi->rank_crashed(0));
  EXPECT_EQ(fi->count(cxlsim::FaultInjector::Kind::kCrash), 1u);
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

TEST(FaultInjection, CrashAtSyncPointFiresAtTheScriptedOccurrence) {
  UniverseConfig cfg = fault_config(1, 1);
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "test-kill", .occurrence = 2});
  Universe universe(cfg);

  std::atomic<int> arrivals{0};
  universe.run([&](RankCtx& ctx) {
    ctx.acc().fault_sync_point("test-kill");  // occurrence 1: survives
    arrivals = 1;
    ctx.acc().fault_sync_point("test-kill");  // occurrence 2: crashes
    arrivals = 2;                             // unreachable
  });

  EXPECT_EQ(arrivals.load(), 1);
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{0}));
  const auto events = universe.fault_injector()->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, cxlsim::FaultInjector::Kind::kCrash);
  EXPECT_EQ(events[0].rank, 0);
}

TEST(FaultInjection, PoisonedReadSurfacesDataPoisoned) {
  UniverseConfig cfg = fault_config(1, 1);
  // Poison the whole pool: any post-bootstrap read observes it (the plan
  // is installed after bootstrap, so formatting traffic stays clean).
  cfg.fault_plan.poison.push_back({.offset = 0, .size = cfg.pool_size});
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    // Arena attach already read poisoned metadata; drain the sticky flag.
    (void)ctx.acc().take_poison_status("attach");
    ASSERT_FALSE(ctx.acc().poison_pending());

    const auto obj = check_ok(ctx.arena().create("poisoned_obj", 4096));
    std::vector<std::byte> buf(256);
    ctx.acc().bulk_read(obj.pool_offset, buf);
    EXPECT_TRUE(ctx.acc().poison_pending());
    const Status s = ctx.acc().take_poison_status("poisoned_obj read");
    EXPECT_EQ(s.code(), ErrorCode::kDataPoisoned);
    // The flag is consumed: a second take reports clean.
    EXPECT_FALSE(ctx.acc().poison_pending());
    EXPECT_TRUE(ctx.acc().take_poison_status("again").is_ok());
  });

  EXPECT_GT(universe.fault_injector()->count(
                cxlsim::FaultInjector::Kind::kPoisonedRead),
            0u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(FaultInjection, DegradedLinkStretchesVirtualTime) {
  // The same workload under a 8x degraded link must take strictly more
  // virtual time (the multiplier applies to flush write-backs and fills).
  const auto run_workload = [](double multiplier) {
    UniverseConfig cfg = fault_config(1, 1);
    cfg.fault_plan.degraded_link_multiplier = multiplier;
    Universe universe(cfg);
    std::atomic<double> elapsed{0.0};
    universe.run([&](RankCtx& ctx) {
      const auto obj = check_ok(ctx.arena().create("timing_obj", 64_KiB));
      std::vector<std::byte> buf(4096, std::byte{0x5a});
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t at =
            obj.pool_offset + static_cast<std::uint64_t>(i) * buf.size();
        ctx.acc().coherent_write(at, buf);
        ctx.acc().coherent_read(at, buf);
      }
      elapsed = ctx.clock().now();
    });
    return elapsed.load();
  };

  const double baseline = run_workload(1.0);
  const double degraded = run_workload(8.0);
  EXPECT_GT(baseline, 0.0);
  EXPECT_GT(degraded, baseline);
}

TEST(FaultInjection, BarrierEnterForReportsDeadPeer) {
  UniverseConfig cfg = fault_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "test-kill", .occurrence = 1});
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    if (ctx.rank() == 1) {
      ctx.acc().fault_sync_point("test-kill");
      FAIL() << "scripted crash did not fire";
    }
    // Rank 0 sets up a private barrier over an arena object (single
    // writer: rank 1 is already dead) and waits on the corpse.
    const auto obj = check_ok(
        ctx.arena().create("dead_barrier", SeqBarrier::footprint(2)));
    SeqBarrier::format(ctx.acc(), obj.pool_offset, 2);
    SeqBarrier barrier(ctx.acc(), obj.pool_offset, 2, 0);
    const Status s = barrier.enter_for(ctx.acc(), ctx.doorbell(),
                                       ctx.failure_detector(), 5000ms);
    EXPECT_EQ(s.code(), ErrorCode::kPeerFailed);
    EXPECT_NE(s.message().find("rank 1"), std::string::npos) << s.message();
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

TEST(FaultInjection, BarrierEnterForTimesOutOnSlowLivePeer) {
  UniverseConfig cfg = fault_config();
  cfg.failure_lease = 2000ms;  // nobody dies in this test
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      check_ok(ctx.arena().create("slow_barrier", SeqBarrier::footprint(2)));
    }
    ctx.barrier();
    const auto obj = check_ok(ctx.arena().open("slow_barrier"));
    if (ctx.rank() == 0) {
      SeqBarrier::format(ctx.acc(), obj.pool_offset, 2);
    }
    ctx.barrier();
    SeqBarrier barrier(ctx.acc(), obj.pool_offset, 2,
                       static_cast<std::size_t>(ctx.rank()));
    if (ctx.rank() == 0) {
      // Rank 1 is alive (beating) but slow: the deadline expires first.
      const Status s = barrier.enter_for(ctx.acc(), ctx.doorbell(),
                                         ctx.failure_detector(), 150ms);
      EXPECT_EQ(s.code(), ErrorCode::kTimedOut);
    } else {
      // Stay visibly alive past rank 0's deadline, then enter; rank 0 has
      // already published its arrival, so the plain enter completes.
      const auto until = std::chrono::steady_clock::now() + 600ms;
      while (std::chrono::steady_clock::now() < until) {
        ctx.failure_detector().beat(ctx.acc());
        std::this_thread::sleep_for(10ms);
      }
      barrier.enter(ctx.acc(), ctx.doorbell());
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(FaultInjection, RecvForReportsPeerFailedWhenSenderDies) {
  UniverseConfig cfg = fault_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "test-kill", .occurrence = 1});
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    Session mpi(ctx);
    std::byte token{0x42};
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 0, {&token, 1}));
      ctx.acc().fault_sync_point("test-kill");
      FAIL() << "scripted crash did not fire";
    } else {
      check_ok(mpi.recv(1, 0, {&token, 1}).status());
      // Rank 1 is now dead; a receive it will never match must fail by
      // lease (50 ms), far inside the 5 s deadline.
      std::vector<std::byte> buf(64);
      const auto r = mpi.recv_for(1, /*tag=*/7, buf, 5000ms);
      EXPECT_EQ(r.status().code(), ErrorCode::kPeerFailed);
      EXPECT_EQ(mpi.failed_ranks(), (std::vector<int>{1}));
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

TEST(FaultInjection, RecvForTimesOutOnSilentLivePeer) {
  UniverseConfig cfg = fault_config();
  cfg.failure_lease = 10000ms;  // the lease can never expire in this test
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 0) {
      std::vector<std::byte> buf(64);
      const auto r = mpi.recv_for(1, 0, buf, 150ms);
      EXPECT_EQ(r.status().code(), ErrorCode::kTimedOut);
    } else {
      // Alive but silent: outlive rank 0's deadline without sending.
      std::this_thread::sleep_for(400ms);
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
}

// A live rank that only drains messages which have already arrived must
// keep its heartbeat fresh. Each of rank 1's recv_for calls completes at
// once (the first pass drains the ring, later calls match the unexpected
// queue at post time), so unless wait_for beats on entry rank 1 stays
// silent for two leases while rank 0 waits on its reply, and rank 0
// wrongly convicts it.
TEST(FaultInjection, DrainingAlreadyArrivedMessagesKeepsTheLease) {
  constexpr auto kLease = 100ms;
  constexpr int kMessages = 8;
  constexpr int kReplyTag = 100;
  UniverseConfig cfg = fault_config();
  cfg.failure_lease = kLease;
  cfg.ring_cells = 16;  // every message fits before rank 1 drains any
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    Session mpi(ctx);
    std::byte token{0x5a};
    if (ctx.rank() == 0) {
      for (int tag = 0; tag < kMessages; ++tag) {
        check_ok(mpi.send(1, tag, {&token, 1}));
      }
      ctx.barrier();
      const auto r = mpi.recv_for(1, kReplyTag, {&token, 1}, 5000ms);
      EXPECT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_TRUE(mpi.failed_ranks().empty());
    } else {
      ctx.barrier();  // all kMessages are in the ring from here on
      // kMessages * kLease / 4 = two leases of draining.
      for (int tag = 0; tag < kMessages; ++tag) {
        std::this_thread::sleep_for(kLease / 4);
        const auto r = mpi.recv_for(0, tag, {&token, 1}, 5000ms);
        EXPECT_TRUE(r.is_ok()) << r.status().message();
      }
      check_ok(mpi.send(0, kReplyTag, {&token, 1}));
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(FaultInjection, SsendForReportsPeerFailedWhenReceiverDies) {
  UniverseConfig cfg = fault_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "test-kill", .occurrence = 1});
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    Session mpi(ctx);
    std::byte token{0x42};
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 0, {&token, 1}));
      ctx.acc().fault_sync_point("test-kill");
      FAIL() << "scripted crash did not fire";
    } else {
      check_ok(mpi.recv(1, 0, {&token, 1}).status());
      // A synchronous send cannot complete without the (dead) receiver
      // matching it; the detector fails it instead of hanging.
      std::vector<std::byte> data(256, std::byte{0x11});
      const Status s = mpi.ssend_for(1, 0, data, 5000ms);
      EXPECT_EQ(s.code(), ErrorCode::kPeerFailed);
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

// The acceptance scenario: rank 1 acquires the window lock, is killed at
// the "window-put" sync point (mid-put, lock still held in the pool),
// and rank 0's lock_for — via the heartbeat lease — declares it dead,
// breaks the abandoned bakery ticket, acquires the lock and completes
// its own epoch. Session::failed_ranks() reports exactly {1}.
TEST(FaultInjection, DeadWindowLockHolderIsBrokenAndEpochCompletes) {
  UniverseConfig cfg = fault_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "window-put", .occurrence = 1});
  Universe universe(cfg);

  universe.run([&](RankCtx& ctx) {
    Session mpi(ctx);
    rma::Window win = mpi.create_window("fault_win", 4096);
    std::byte token{0x01};
    std::vector<std::byte> payload(128, std::byte{0xab});

    if (ctx.rank() == 1) {
      win.lock(1);
      // Tell rank 0 the lock is held, then die inside the put.
      check_ok(mpi.send(0, 0, {&token, 1}));
      win.put(1, 0, payload);  // crashes at the "window-put" sync point
      FAIL() << "scripted crash did not fire";
    } else {
      check_ok(mpi.recv(1, 0, {&token, 1}).status());
      // Rank 1 holds the lock and is dead. A plain lock(1) would spin
      // forever; lock_for waits out the lease, breaks the ticket and
      // acquires.
      const Status s = win.lock_for(1, 5000ms);
      ASSERT_TRUE(s.is_ok()) << s.message();
      win.put(1, 0, payload);
      std::vector<std::byte> readback(payload.size());
      win.get(1, 0, readback);
      EXPECT_EQ(readback, payload);
      win.unlock(1);
      EXPECT_EQ(mpi.failed_ranks(), (std::vector<int>{1}));
    }
    // No Window::free(): freeing is collective and rank 1 is dead.
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
  EXPECT_TRUE(universe.fault_injector()->rank_crashed(1));
}

}  // namespace
}  // namespace cmpi::runtime
