#include "cxlsim/cache_sim.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/hash.hpp"
#include "cxlsim/coherence_checker.hpp"

namespace cmpi::cxlsim {

CacheSim::CacheSim(DaxDevice& device, Geometry geometry)
    : device_(device), geometry_(geometry) {
  CMPI_EXPECTS(geometry.sets > 0 && geometry.ways > 0);
  lines_.resize(geometry_.sets * geometry_.ways);
  page_lines_.resize(ceil_div(device_.size(), kPageSize));
  device_.register_cache(this);
  obs_registration_ = obs::ProviderRegistration([this] {
    const Stats s = stats();
    return std::vector<obs::Sample>{{"cache.hits", s.hits},
                                    {"cache.misses", s.misses},
                                    {"cache.evictions", s.evictions},
                                    {"cache.writebacks", s.writebacks}};
  });
}

CacheSim::~CacheSim() { device_.unregister_cache(this); }

void CacheSim::bi_acquire_range(std::uint64_t offset, std::size_t size,
                                bool for_write) {
  if (!device_.timing().params().hw_coherence || size == 0) {
    return;
  }
  const std::uint64_t first = align_down(offset, kCacheLineSize);
  const std::uint64_t last = align_down(offset + size - 1, kCacheLineSize);
  for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
    if (for_write) {
      device_.bi_write_acquire(at, this);
    } else {
      device_.bi_read_acquire(at, this);
    }
  }
}

void CacheSim::external_invalidate(std::uint64_t line_offset) {
  std::lock_guard lock(mutex_);
  if (Line* line = find_line(line_offset); line != nullptr) {
    writeback_line(*line);
    invalidate_line(*line);
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_invalidate(this, line_offset);
    }
  }
}

void CacheSim::external_writeback(std::uint64_t line_offset) {
  std::lock_guard lock(mutex_);
  if (Line* line = find_line(line_offset); line != nullptr && line->dirty) {
    writeback_line(*line);
  }
}

std::size_t CacheSim::set_index(std::uint64_t line_offset) const noexcept {
  // Hash the line index so pathological strides still spread across sets.
  return static_cast<std::size_t>(hash_u64(line_offset / kCacheLineSize) %
                                  geometry_.sets);
}

CacheSim::Line* CacheSim::find_line(std::uint64_t line_offset) {
  Line* base = &lines_[set_index(line_offset) * geometry_.ways];
  for (std::size_t w = 0; w < geometry_.ways; ++w) {
    if (base[w].valid && base[w].tag == line_offset) {
      base[w].lru = ++lru_clock_;
      return &base[w];
    }
  }
  return nullptr;
}

void CacheSim::invalidate_line(Line& line) {
  CMPI_ASSERT(line.valid);
  line.valid = false;
  --page_lines_[line.tag / kPageSize];
}

template <typename Fn>
void CacheSim::for_each_cached_line(std::uint64_t offset, std::size_t size,
                                    Fn&& fn) {
  if (size == 0) {
    return;
  }
  const std::uint64_t end = offset + size;
  std::uint64_t at = align_down(offset, kCacheLineSize);
  while (at < end) {
    if (page_lines_[at / kPageSize] == 0) {
      at = align_down(at, kPageSize) + kPageSize;
      continue;
    }
    if (Line* line = find_line(at); line != nullptr) {
      fn(*line);
    }
    at += kCacheLineSize;
  }
}

void CacheSim::writeback_line(Line& line) {
  CMPI_ASSERT(line.valid);
  if (line.dirty) {
    device_.copy_in(line.tag, {line.data, kCacheLineSize});
    line.dirty = false;
    ++stats_.writebacks;
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_writeback(this, line.tag);
    }
  }
}

CacheSim::Line& CacheSim::fill_line(std::uint64_t line_offset) {
  Line* base = &lines_[set_index(line_offset) * geometry_.ways];
  // Pick an invalid way, else the LRU victim.
  Line* victim = &base[0];
  for (std::size_t w = 0; w < geometry_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) {
      victim = &base[w];
    }
  }
  if (victim->valid) {
    writeback_line(*victim);
    invalidate_line(*victim);
    ++stats_.evictions;
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_invalidate(this, victim->tag);
    }
  }
  victim->tag = line_offset;
  victim->valid = true;
  ++page_lines_[line_offset / kPageSize];
  victim->dirty = false;
  victim->lru = ++lru_clock_;
  device_.copy_out(line_offset, {victim->data, kCacheLineSize});
  ++stats_.misses;
  return *victim;
}

CacheSim::ReadResult CacheSim::read(std::uint64_t offset,
                                   std::span<std::byte> dst) {
  CMPI_EXPECTS(device_.contains(offset, dst.size()));
  bi_acquire_range(offset, dst.size(), /*for_write=*/false);
  std::lock_guard lock(mutex_);
  ReadResult result;
  std::size_t done = 0;
  while (done < dst.size()) {
    const std::uint64_t at = offset + done;
    const std::uint64_t line_offset = align_down(at, kCacheLineSize);
    const std::size_t in_line = at - line_offset;
    const std::size_t chunk =
        std::min(dst.size() - done, kCacheLineSize - in_line);
    Line* line = find_line(line_offset);
    const bool hit = line != nullptr;
    if (hit) {
      ++stats_.hits;
      ++result.hits;
    } else {
      line = &fill_line(line_offset);
      ++result.misses;
    }
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_cached_read(this, line_offset, hit);
    }
    std::memcpy(dst.data() + done, line->data + in_line, chunk);
    done += chunk;
  }
  return result;
}

void CacheSim::write(std::uint64_t offset, std::span<const std::byte> src) {
  CMPI_EXPECTS(device_.contains(offset, src.size()));
  bi_acquire_range(offset, src.size(), /*for_write=*/true);
  std::lock_guard lock(mutex_);
  std::size_t done = 0;
  while (done < src.size()) {
    const std::uint64_t at = offset + done;
    const std::uint64_t line_offset = align_down(at, kCacheLineSize);
    const std::size_t in_line = at - line_offset;
    const std::size_t chunk =
        std::min(src.size() - done, kCacheLineSize - in_line);
    Line* line = find_line(line_offset);
    if (line != nullptr) {
      ++stats_.hits;
    } else {
      // Write-allocate: fill first so partial-line writes merge with the
      // pool's current contents.
      line = &fill_line(line_offset);
    }
    std::memcpy(line->data + in_line, src.data() + done, chunk);
    line->dirty = true;
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_cached_write(this, line_offset);
    }
    done += chunk;
  }
}

void CacheSim::memset(std::uint64_t offset, std::byte value,
                      std::size_t size) {
  std::byte chunk[kCacheLineSize];
  std::memset(chunk, static_cast<int>(value), sizeof chunk);
  std::size_t done = 0;
  while (done < size) {
    const std::size_t n = std::min(size - done, kCacheLineSize);
    write(offset + done, {chunk, n});
    done += n;
  }
}

CacheSim::FlushResult CacheSim::clflush(std::uint64_t offset,
                                        std::size_t size) {
  CMPI_EXPECTS(device_.contains(offset, size));
  std::lock_guard lock(mutex_);
  FlushResult result{};
  result.lines_touched = cache_lines_spanned(offset, size);
  for_each_cached_line(offset, size, [&](Line& line) {
    if (line.dirty) {
      writeback_line(line);
      ++result.lines_written_back;
    }
    invalidate_line(line);
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_invalidate(this, line.tag);
    }
  });
  return result;
}

CacheSim::FlushResult CacheSim::clwb(std::uint64_t offset, std::size_t size) {
  CMPI_EXPECTS(device_.contains(offset, size));
  std::lock_guard lock(mutex_);
  FlushResult result{};
  result.lines_touched = cache_lines_spanned(offset, size);
  for_each_cached_line(offset, size, [&](Line& line) {
    if (line.dirty) {
      writeback_line(line);
      ++result.lines_written_back;
    }
  });
  return result;
}

void CacheSim::nt_store(std::uint64_t offset, std::span<const std::byte> src) {
  CMPI_EXPECTS(device_.contains(offset, src.size()));
  bi_acquire_range(offset, src.size(), /*for_write=*/true);
  std::lock_guard lock(mutex_);
  // Evict any cached copies so the cache never shadows the NT data.
  for_each_cached_line(offset, src.size(), [&](Line& line) {
    writeback_line(line);
    invalidate_line(line);
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_invalidate(this, line.tag);
    }
  });
  device_.copy_in(offset, src);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_write(this, offset, src.size());
  }
}

void CacheSim::nt_load(std::uint64_t offset, std::span<std::byte> dst) {
  CMPI_EXPECTS(device_.contains(offset, dst.size()));
  bi_acquire_range(offset, dst.size(), /*for_write=*/false);
  std::lock_guard lock(mutex_);
  device_.copy_out(offset, dst);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_read(this, offset, dst.size());
  }
  // The node's own coherent domain satisfies loads of locally dirty lines.
  for_each_cached_line(offset, dst.size(), [&](Line& line) {
    if (!line.dirty) {
      return;
    }
    const std::uint64_t at = line.tag;
    const std::uint64_t lo = std::max<std::uint64_t>(at, offset);
    const std::uint64_t hi =
        std::min<std::uint64_t>(at + kCacheLineSize, offset + dst.size());
    std::memcpy(dst.data() + (lo - offset), line.data + (lo - at), hi - lo);
  });
}

std::uint64_t CacheSim::nt_load_u64(std::uint64_t offset) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  CMPI_EXPECTS(device_.contains(offset, sizeof(std::uint64_t)));
  const auto* cell = reinterpret_cast<const std::atomic<std::uint64_t>*>(
      device_.pool().data() + offset);
  const std::uint64_t value = cell->load(std::memory_order_acquire);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_read_u64(this, offset);
  }
  return value;
}

void CacheSim::nt_store_u64(std::uint64_t offset, std::uint64_t value) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  CMPI_EXPECTS(device_.contains(offset, sizeof(std::uint64_t)));
  auto* cell = reinterpret_cast<std::atomic<std::uint64_t>*>(
      device_.pool().data() + offset);
  cell->store(value, std::memory_order_release);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_write_u64(this, offset);
  }
}

void CacheSim::writeback_all() {
  std::lock_guard lock(mutex_);
  CoherenceChecker* chk = device_.checker();
  for (Line& line : lines_) {
    if (line.valid) {
      writeback_line(line);
      invalidate_line(line);
      if (chk != nullptr) {
        chk->on_invalidate(this, line.tag);
      }
    }
  }
}

void CacheSim::drop_all() {
  std::lock_guard lock(mutex_);
  CoherenceChecker* chk = device_.checker();
  for (Line& line : lines_) {
    if (line.valid && chk != nullptr) {
      chk->on_invalidate(this, line.tag);
    }
    line.valid = false;
    line.dirty = false;
  }
  std::fill(page_lines_.begin(), page_lines_.end(), std::uint8_t{0});
}

CacheSim::Stats CacheSim::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace cmpi::cxlsim
