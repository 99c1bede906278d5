#include "cxlsim/cache_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace cmpi::cxlsim {
namespace {

class CacheSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = check_ok(DaxDevice::create(4 * kDaxAlignment));
    node_a_ = std::make_unique<CacheSim>(*device_);
    node_b_ = std::make_unique<CacheSim>(*device_);
  }

  std::vector<std::byte> bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (const int v : values) {
      out.push_back(static_cast<std::byte>(v));
    }
    return out;
  }

  std::byte pool_at(std::uint64_t offset) { return device_->pool()[offset]; }

  std::unique_ptr<DaxDevice> device_;
  std::unique_ptr<CacheSim> node_a_;
  std::unique_ptr<CacheSim> node_b_;
};

TEST_F(CacheSimTest, WriteStaysInCacheUntilFlushed) {
  const auto data = bytes({1, 2, 3, 4});
  node_a_->write(128, data);
  // The pool has NOT been updated: this is the coherence hazard.
  EXPECT_EQ(std::to_integer<int>(pool_at(128)), 0);
  node_a_->clflush(128, data.size());
  EXPECT_EQ(std::to_integer<int>(pool_at(128)), 1);
  EXPECT_EQ(std::to_integer<int>(pool_at(131)), 4);
}

TEST_F(CacheSimTest, RemoteNodeSeesStaleDataWithoutInvalidate) {
  // Node B caches the line while it is zero.
  std::byte before[4];
  node_b_->read(256, before);
  EXPECT_EQ(std::to_integer<int>(before[0]), 0);

  // Node A writes and flushes.
  const auto data = bytes({42, 43, 44, 45});
  node_a_->write(256, data);
  node_a_->clflush(256, data.size());
  EXPECT_EQ(std::to_integer<int>(pool_at(256)), 42);

  // B still reads its stale cached copy.
  std::byte stale[4];
  node_b_->read(256, stale);
  EXPECT_EQ(std::to_integer<int>(stale[0]), 0);

  // After invalidating, B sees A's update.
  node_b_->clflush(256, 4);
  std::byte fresh[4];
  node_b_->read(256, fresh);
  EXPECT_EQ(std::to_integer<int>(fresh[0]), 42);
  EXPECT_EQ(std::to_integer<int>(fresh[3]), 45);
}

TEST_F(CacheSimTest, PartialLineWriteMergesWithPoolContents) {
  // Pre-existing pool data written by B.
  const auto base = bytes({9, 9, 9, 9, 9, 9, 9, 9});
  node_b_->nt_store(512, base);
  // A writes only bytes 2..3 (write-allocate must fill first).
  const auto patch = bytes({7, 7});
  node_a_->write(514, patch);
  node_a_->clflush(514, 2);
  EXPECT_EQ(std::to_integer<int>(pool_at(512)), 9);
  EXPECT_EQ(std::to_integer<int>(pool_at(514)), 7);
  EXPECT_EQ(std::to_integer<int>(pool_at(515)), 7);
  EXPECT_EQ(std::to_integer<int>(pool_at(516)), 9);
}

TEST_F(CacheSimTest, ClwbWritesBackButKeepsLineValid) {
  const auto data = bytes({5});
  node_a_->write(1024, data);
  const auto result = node_a_->clwb(1024, 1);
  EXPECT_EQ(result.lines_written_back, 1u);
  EXPECT_EQ(std::to_integer<int>(pool_at(1024)), 5);
  // Subsequent read must be a hit (line still valid).
  const auto before = node_a_->stats();
  std::byte out[1];
  node_a_->read(1024, out);
  const auto after = node_a_->stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(CacheSimTest, ClflushInvalidates) {
  const auto data = bytes({5});
  node_a_->write(1024, data);
  node_a_->clflush(1024, 1);
  const auto before = node_a_->stats();
  std::byte out[1];
  node_a_->read(1024, out);
  const auto after = node_a_->stats();
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST_F(CacheSimTest, FlushResultCountsSpannedLines) {
  node_a_->write(0, std::vector<std::byte>(200, std::byte{1}));
  const auto result = node_a_->clflush(0, 200);
  EXPECT_EQ(result.lines_touched, 4u);  // 200 bytes from offset 0: 4 lines
  EXPECT_EQ(result.lines_written_back, 4u);
}

TEST_F(CacheSimTest, FlushOfUncachedRangeWritesNothingBack) {
  const auto result = node_a_->clflush(8192, 256);
  EXPECT_EQ(result.lines_touched, 4u);
  EXPECT_EQ(result.lines_written_back, 0u);
}

TEST_F(CacheSimTest, ZeroSizeFlushIsNoop) {
  const auto result = node_a_->clflush(0, 0);
  EXPECT_EQ(result.lines_touched, 0u);
}

TEST_F(CacheSimTest, CapacityEvictionWritesBackDirtyLines) {
  CacheSim tiny(*device_, CacheSim::Geometry{.sets = 2, .ways = 2});
  // Dirty far more lines than the cache holds.
  for (std::uint64_t i = 0; i < 64; ++i) {
    tiny.write(i * kCacheLineSize, bytes({static_cast<int>(i + 1)}));
  }
  const auto stats = tiny.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.writebacks, 0u);
  // Evicted lines reached the pool; at most sets*ways remain cached.
  int in_pool = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (std::to_integer<int>(pool_at(i * kCacheLineSize)) ==
        static_cast<int>(i + 1)) {
      ++in_pool;
    }
  }
  EXPECT_GE(in_pool, 60);  // all but the (<=4) still-cached lines
}

TEST_F(CacheSimTest, NtStoreImmediatelyVisibleInPool) {
  node_a_->nt_store(2048, bytes({11, 12}));
  EXPECT_EQ(std::to_integer<int>(pool_at(2048)), 11);
  EXPECT_EQ(std::to_integer<int>(pool_at(2049)), 12);
}

TEST_F(CacheSimTest, NtStoreEvictsStaleCachedCopy) {
  // A caches the line.
  std::byte tmp[1];
  node_a_->read(4096, tmp);
  // A NT-stores new data; its own later cached read must see it.
  node_a_->nt_store(4096, bytes({77}));
  std::byte out[1];
  node_a_->read(4096, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 77);
}

TEST_F(CacheSimTest, NtLoadBypassesCacheAndSeesPool) {
  // B caches stale zero.
  std::byte tmp[1];
  node_b_->read(4160, tmp);
  node_a_->nt_store(4160, bytes({99}));
  // Cached read on B is stale, NT load is fresh.
  std::byte cached[1];
  node_b_->read(4160, cached);
  EXPECT_EQ(std::to_integer<int>(cached[0]), 0);
  std::byte fresh[1];
  node_b_->nt_load(4160, fresh);
  EXPECT_EQ(std::to_integer<int>(fresh[0]), 99);
}

TEST_F(CacheSimTest, NtLoadReturnsOwnDirtyData) {
  node_a_->write(4224, bytes({55}));
  std::byte out[1];
  node_a_->nt_load(4224, out);
  // The node's coherent domain satisfies the load with the dirty line.
  EXPECT_EQ(std::to_integer<int>(out[0]), 55);
}

TEST_F(CacheSimTest, NtU64RoundTrip) {
  node_a_->nt_store_u64(4352, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(node_b_->nt_load_u64(4352), 0xDEADBEEFCAFEF00DULL);
}

TEST_F(CacheSimTest, MemsetThroughCache) {
  node_a_->memset(8192, std::byte{0xEE}, 300);
  EXPECT_EQ(std::to_integer<int>(pool_at(8192)), 0);  // not yet flushed
  node_a_->clflush(8192, 300);
  for (std::uint64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(std::to_integer<int>(pool_at(8192 + i)), 0xEE);
  }
  EXPECT_EQ(std::to_integer<int>(pool_at(8192 + 300)), 0);
}

TEST_F(CacheSimTest, FalseSharingAcrossNodesLosesData) {
  // Nodes A and B write different halves of the SAME cache line, then both
  // flush. Whole-line write-back means the later flush clobbers the
  // earlier one — the hazard that motivates the paper's cacheline-aligned
  // object layout (§3.7).
  node_a_->write(8448, bytes({1, 1}));       // bytes 0-1 of the line
  node_b_->write(8448 + 32, bytes({2, 2}));  // bytes 32-33 of the line
  node_a_->clflush(8448, 2);
  node_b_->clflush(8448 + 32, 2);
  // B's write-back contained a stale zero prefix: A's data is gone.
  EXPECT_EQ(std::to_integer<int>(pool_at(8448)), 0);
  EXPECT_EQ(std::to_integer<int>(pool_at(8448 + 32)), 2);
}

TEST_F(CacheSimTest, WritebackAllFlushesEverything) {
  for (int i = 0; i < 10; ++i) {
    node_a_->write(16384 + i * 64, bytes({i + 1}));
  }
  node_a_->writeback_all();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::to_integer<int>(pool_at(16384 + i * 64)), i + 1);
  }
}

TEST_F(CacheSimTest, DropAllDiscardsDirtyData) {
  node_a_->write(32768, bytes({9}));
  node_a_->drop_all();
  std::byte out[1];
  node_a_->read(32768, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 0);  // dirty data was lost
}

TEST_F(CacheSimTest, RandomizedAgainstReferenceWithFlushDiscipline) {
  // Property: if every write is followed by clflush and every read is
  // preceded by clflush (the §3.5 discipline), a single node's view always
  // matches a flat reference buffer.
  constexpr std::uint64_t kBase = 65536;
  constexpr std::size_t kSpan = 2048;
  std::vector<std::byte> reference(kSpan, std::byte{0});
  Rng rng(1234);
  for (int step = 0; step < 500; ++step) {
    const std::size_t offset = rng.next_below(kSpan - 1);
    const std::size_t size = 1 + rng.next_below(
        std::min<std::uint64_t>(kSpan - offset, 200) - 1 + 1);
    if (rng.next_bool(0.5)) {
      std::vector<std::byte> data(size);
      for (auto& b : data) {
        b = static_cast<std::byte>(rng.next_below(256));
      }
      node_a_->write(kBase + offset, data);
      node_a_->clflush(kBase + offset, size);
      std::memcpy(reference.data() + offset, data.data(), size);
    } else {
      node_b_->clflush(kBase + offset, size);
      std::vector<std::byte> got(size);
      node_b_->read(kBase + offset, got);
      ASSERT_EQ(std::memcmp(got.data(), reference.data() + offset, size), 0)
          << "step " << step;
    }
  }
}

// Range operations skip pool pages on which the node cache holds no line.
// This drives every range operation on a tiny cache (4 sets x 2 ways, so
// fills evict constantly) over ranges that straddle partly cached 4 KiB
// pages, against a byte-level shadow of what the node sees. Every written
// byte differs from the pool byte it replaces, so a line is dirty exactly
// when the shadow and the pool disagree on it: that is the oracle for
// write-back counts, whichever lines the cache happened to evict.
TEST_F(CacheSimTest, RangeOpsMatchShadowModelUnderEvictions) {
  constexpr std::uint64_t kBase = 3 * 4096;  // pages 3..7 of the pool
  constexpr std::size_t kSpan = 5 * 4096;
  CacheSim tiny(*device_, CacheSim::Geometry{.sets = 4, .ways = 2});
  std::vector<std::byte> view(kSpan, std::byte{0});  // the node's view
  const auto pool = [&](std::size_t i) { return pool_at(kBase + i); };
  const auto dirty_lines = [&](std::size_t offset, std::size_t size) {
    std::size_t dirty = 0;
    for (std::size_t line = align_down(offset, kCacheLineSize);
         line < offset + size; line += kCacheLineSize) {
      for (std::size_t i = line; i < line + kCacheLineSize; ++i) {
        if (view[i] != pool(i)) {
          ++dirty;
          break;
        }
      }
    }
    return dirty;
  };
  const auto expect_view = [&](std::size_t offset,
                               const std::vector<std::byte>& got, int step) {
    ASSERT_EQ(std::memcmp(got.data(), view.data() + offset, got.size()), 0)
        << "step " << step << " offset " << offset << " size " << got.size();
  };

  Rng rng(20261018);
  for (int step = 0; step < 4000; ++step) {
    // Ranges from one byte to just over two pages: most straddle a page
    // boundary, many cover a page the cache holds only a line or two of.
    const std::size_t size =
        rng.next_bool(0.5) ? 1 + rng.next_below(256)
                           : 1 + rng.next_below(2 * 4096 + 64);
    const std::size_t offset = rng.next_below(kSpan - size + 1);
    const std::uint64_t at = kBase + offset;
    std::vector<std::byte> data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::byte>(std::to_integer<int>(pool(offset + i)) +
                                       1 + rng.next_below(255));
    }
    switch (rng.next_below(11)) {
      case 0:
      case 1:  // cached write
        tiny.write(at, data);
        std::memcpy(view.data() + offset, data.data(), size);
        break;
      case 2: {  // cached memset with a value no pool byte there holds
        const std::size_t n = std::min<std::size_t>(size, 255);
        bool held[256] = {};
        for (std::size_t i = 0; i < n; ++i) {
          held[std::to_integer<int>(pool(offset + i))] = true;
        }
        std::size_t value = rng.next_below(256);
        while (held[value]) {
          value = (value + 1) % 256;
        }
        tiny.memset(at, static_cast<std::byte>(value), n);
        std::fill_n(view.begin() + static_cast<std::ptrdiff_t>(offset), n,
                    static_cast<std::byte>(value));
        break;
      }
      case 3:
      case 4: {  // cached read
        std::vector<std::byte> got(size);
        tiny.read(at, got);
        expect_view(offset, got, step);
        break;
      }
      case 5: {  // clflush: write back dirty lines, drop the range
        const std::size_t dirty = dirty_lines(offset, size);
        const auto result = tiny.clflush(at, size);
        EXPECT_EQ(result.lines_touched, cache_lines_spanned(at, size));
        ASSERT_EQ(result.lines_written_back, dirty) << "step " << step;
        ASSERT_EQ(dirty_lines(offset, size), 0u) << "step " << step;
        break;
      }
      case 6: {  // clwb: write back dirty lines, keep them
        const std::size_t dirty = dirty_lines(offset, size);
        const auto result = tiny.clwb(at, size);
        EXPECT_EQ(result.lines_touched, cache_lines_spanned(at, size));
        ASSERT_EQ(result.lines_written_back, dirty) << "step " << step;
        ASSERT_EQ(dirty_lines(offset, size), 0u) << "step " << step;
        break;
      }
      case 7: {  // NT store: the pool takes the data, nothing shadows it
        tiny.nt_store(at, data);
        std::memcpy(view.data() + offset, data.data(), size);
        ASSERT_EQ(dirty_lines(offset, size), 0u) << "step " << step;
        std::vector<std::byte> got(size);
        tiny.read(at, got);
        expect_view(offset, got, step);
        break;
      }
      case 8: {  // NT load: the pool, overlaid with own dirty lines
        std::vector<std::byte> got(size);
        tiny.nt_load(at, got);
        expect_view(offset, got, step);
        break;
      }
      case 9:
        if (rng.next_bool(0.5)) {
          tiny.writeback_all();
          ASSERT_EQ(dirty_lines(0, kSpan), 0u) << "step " << step;
        } else {
          tiny.drop_all();  // dirty data is lost: the node sees the pool
          for (std::size_t i = 0; i < kSpan; ++i) {
            view[i] = pool(i);
          }
        }
        break;
      default: {  // a line far outside the span competes for the sets
        std::byte tmp[8];
        tiny.read(16 * 4096 + rng.next_below(64) * kCacheLineSize, tmp);
        break;
      }
    }
  }
  tiny.writeback_all();
  for (std::size_t i = 0; i < kSpan; ++i) {
    ASSERT_EQ(pool(i), view[i]) << "byte " << i;
  }
  EXPECT_GT(tiny.stats().evictions, 100u);
}

// Pool copies lock one 4 KiB page's stripe at a time. Writers NT-store
// whole-line stamps over ranges that cross page boundaries (two of them 64
// pages apart, so on the same stripes) while readers NT-load and cached-read
// the same ranges from both nodes: every line a reader sees must come from
// one write, and the pool must end with each line's last write.
TEST_F(CacheSimTest, ConcurrentPoolCopiesNeverTearALine) {
  constexpr std::uint64_t kPage = DaxDevice::kCopyPageSize;
  constexpr std::uint64_t kStripeCycle = kPage * DaxDevice::kCopyStripes;
  struct Range {
    std::uint64_t offset;
    std::size_t lines;
  };
  const Range ranges[] = {{kPage - 2 * kCacheLineSize, 4},
                          {kStripeCycle + kPage - 2 * kCacheLineSize, 4},
                          {10 * kPage - kCacheLineSize, 5}};
  constexpr int kWriters = 2;
  constexpr std::uint64_t kIterations = 1500;
  constexpr std::size_t kWords = kCacheLineSize / sizeof(std::uint64_t);
  const auto stamp = [](int writer, std::uint64_t iteration) {
    return (static_cast<std::uint64_t>(writer + 1) << 32) | iteration;
  };
  CacheSim* nodes[] = {node_a_.get(), node_b_.get()};

  std::atomic<int> writers_left{kWriters};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> lines_seen{0};
  const auto check_lines = [&](const std::vector<std::uint64_t>& words) {
    for (std::size_t at = 0; at < words.size(); at += kWords) {
      for (std::size_t w = 1; w < kWords; ++w) {
        if (words[at + w] != words[at]) {
          torn.fetch_add(1);
          break;
        }
      }
      lines_seen.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int writer = 0; writer < kWriters; ++writer) {
    threads.emplace_back([&, writer] {
      for (std::uint64_t it = 1; it <= kIterations; ++it) {
        for (const Range& r : ranges) {
          const std::vector<std::uint64_t> words(r.lines * kWords,
                                                 stamp(writer, it));
          nodes[writer]->nt_store(r.offset, std::as_bytes(std::span(words)));
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&, reader] {
      CacheSim& node = *nodes[reader];
      do {
        for (const Range& r : ranges) {
          std::vector<std::uint64_t> words(r.lines * kWords);
          const auto out = std::as_writable_bytes(std::span(words));
          if (reader == 0) {
            node.nt_load(r.offset, out);
          } else {
            node.read(r.offset, out);
            node.clflush(r.offset, out.size());
          }
          check_lines(words);
        }
      } while (writers_left.load() > 0);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(torn.load(), 0u) << "of " << lines_seen.load() << " lines";
  for (const Range& r : ranges) {
    for (std::size_t line = 0; line < r.lines; ++line) {
      std::uint64_t words[kWords];
      std::memcpy(words, device_->pool().data() + r.offset +
                             line * kCacheLineSize,
                  sizeof words);
      EXPECT_TRUE(words[0] == stamp(0, kIterations) ||
                  words[0] == stamp(1, kIterations))
          << "range at " << r.offset << " line " << line;
      for (const std::uint64_t word : words) {
        EXPECT_EQ(word, words[0]);
      }
    }
  }
}

TEST_F(CacheSimTest, PoolCopySpanningMoreThanAStripeCycleRoundTrips) {
  const std::uint64_t offset = 3 * DaxDevice::kCopyPageSize + 13;
  const std::size_t size =
      (DaxDevice::kCopyStripes + 6) * DaxDevice::kCopyPageSize + 77;
  Rng rng(7);
  std::vector<std::byte> data(size);
  for (std::byte& b : data) {
    b = static_cast<std::byte>(rng.next_below(256));
  }
  device_->copy_in(offset, data);
  std::vector<std::byte> back(size);
  device_->copy_out(offset, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(std::to_integer<int>(pool_at(offset - 1)), 0);
  EXPECT_EQ(std::to_integer<int>(pool_at(offset + size)), 0);

  // The same range through the node cache's NT path.
  std::reverse(data.begin(), data.end());
  node_a_->nt_store(offset, data);
  node_b_->nt_load(offset, back);
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace cmpi::cxlsim
