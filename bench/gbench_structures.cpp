// Wall-clock microbenchmarks (google-benchmark) of the data structures on
// the cMPI hot paths: the multi-level hash, the SPSC ring's functional
// operations, the per-node cache simulator (including the bulk NT paths and
// cold line fills), the CRC32C kernels, and the slotted bandwidth server.
// These measure real host CPU cost (the simulator's own speed),
// complementing the virtual-time figure benches.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "arena/multilevel_hash.hpp"
#include "common/crc32c.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "cxlsim/accessor.hpp"
#include "queue/spsc_ring.hpp"
#include "simtime/busy_resource.hpp"

namespace {

using namespace cmpi;

void BM_HashString(benchmark::State& state) {
  const std::string key = "cmpi_win_osu_bw_window_object";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_string(key, 7));
  }
}
BENCHMARK(BM_HashString);

void BM_MultilevelProbe(benchmark::State& state) {
  const auto index = check_ok(arena::MultilevelHash::create(10, 199999));
  const std::string key = "rma_window_object_42";
  for (auto _ : state) {
    for (std::size_t l = 0; l < index.levels(); ++l) {
      benchmark::DoNotOptimize(index.slot_of(key, l));
    }
  }
}
BENCHMARK(BM_MultilevelProbe);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_BusyResourceReserve(benchmark::State& state) {
  simtime::BusyResource device(9.9);
  simtime::Ns t = 0;
  for (auto _ : state) {
    t = device.reserve(t, 4096);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BusyResourceReserve);

void BM_CacheSimReadHit(benchmark::State& state) {
  auto device = check_ok(cxlsim::DaxDevice::create(16_MiB));
  cxlsim::CacheSim cache(*device);
  std::byte buf[64];
  cache.read(4096, buf);  // warm the line
  for (auto _ : state) {
    cache.read(4096, buf);
  }
}
BENCHMARK(BM_CacheSimReadHit);

void BM_CacheSimWriteFlush(benchmark::State& state) {
  auto device = check_ok(cxlsim::DaxDevice::create(16_MiB));
  cxlsim::CacheSim cache(*device);
  const std::vector<std::byte> data(
      static_cast<std::size_t>(state.range(0)), std::byte{1});
  for (auto _ : state) {
    cache.write(4096, data);
    cache.clflush(4096, data.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheSimWriteFlush)->Arg(64)->Arg(4096)->Arg(65536);

// Bulk-path host cost: NT store/load of a payload through a node cache that
// holds scattered control lines (one every 64 KiB, as ring headers and flags
// leave behind), so the range ops pay for finding the few cached lines.
class WarmNodeCache {
 public:
  static constexpr std::uint64_t kPayload = 8_MiB;

  WarmNodeCache()
      : device_(check_ok(cxlsim::DaxDevice::create(64_MiB))),
        cache_(*device_) {
    touch(0, device_->size());
  }
  cxlsim::CacheSim& cache() { return cache_; }

  /// Caches one control line in every 64 KiB of [offset, offset + size).
  void touch(std::uint64_t offset, std::uint64_t size) {
    std::byte line[kCacheLineSize];
    for (std::uint64_t at = offset; at < offset + size; at += 64_KiB) {
      cache_.read(at, line);
    }
  }

 private:
  std::unique_ptr<cxlsim::DaxDevice> device_;
  cxlsim::CacheSim cache_;
};

void BM_CacheSimNtStore(benchmark::State& state) {
  WarmNodeCache node;
  const std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                                    std::byte{1});
  for (auto _ : state) {
    // The store evicts the range's control lines; put them back (one
    // cached read per 64 KiB, small next to the store itself).
    node.touch(WarmNodeCache::kPayload, data.size());
    node.cache().nt_store(WarmNodeCache::kPayload, data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheSimNtStore)->Arg(64 << 10)->Arg(4 << 20);

void BM_CacheSimNtLoad(benchmark::State& state) {
  WarmNodeCache node;
  std::vector<std::byte> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    node.cache().nt_load(WarmNodeCache::kPayload, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheSimNtLoad)->Arg(64 << 10)->Arg(4 << 20);

// Line-fill host cost: a 64 KiB cached read of cold lines into a full node
// cache, i.e. 1024 fills, each evicting a line. With ->Threads(2) two nodes,
// each with its own cache and its own half of one shared device, fill at
// once, so their pool copies meet on the device's copy locks.
void BM_CacheSimColdRead(benchmark::State& state) {
  static const auto device = check_ok(cxlsim::DaxDevice::create(64_MiB));
  const std::uint64_t half = device->size() / 2;
  const std::uint64_t base =
      static_cast<std::uint64_t>(state.thread_index()) * half;
  cxlsim::CacheSim cache(*device);
  std::vector<std::byte> out(64_KiB);
  std::uint64_t at = 0;
  const auto next_read = [&] {
    cache.read(base + at, out);
    at = (at + out.size()) % half;  // 512 reads before a range returns
  };
  for (std::uint64_t filled = 0; filled < 2_MiB; filled += out.size()) {
    next_read();  // fill the 1 MiB cache, so every later fill evicts
  }
  for (auto _ : state) {
    next_read();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_CacheSimColdRead)->Threads(1)->Threads(2);

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_SpscRingRoundTrip(benchmark::State& state) {
  auto device = check_ok(cxlsim::DaxDevice::create(16_MiB));
  cxlsim::CacheSim cache_a(*device);
  cxlsim::CacheSim cache_b(*device);
  simtime::VClock clock_a;
  simtime::VClock clock_b;
  cxlsim::Accessor producer_acc(*device, cache_a, clock_a);
  cxlsim::Accessor consumer_acc(*device, cache_b, clock_b);
  queue::SpscRing::format(producer_acc, 0, 8,
                          static_cast<std::size_t>(state.range(0)));
  auto producer = check_ok(queue::SpscRing::attach(producer_acc, 0));
  auto consumer = check_ok(queue::SpscRing::attach(consumer_acc, 0));
  const std::vector<std::byte> payload(
      static_cast<std::size_t>(state.range(0)), std::byte{1});
  std::vector<std::byte> out(payload.size());
  queue::CellHeader header{};
  header.total_bytes = payload.size();
  header.chunk_bytes = payload.size();
  header.flags = queue::kLastChunk;
  queue::CellHeader got{};
  for (auto _ : state) {
    producer.try_enqueue(producer_acc, header, payload);
    consumer.try_dequeue(consumer_acc, got, out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SpscRingRoundTrip)->Arg(64)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
