#include "cxlsim/dax_device.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "cxlsim/cache_sim.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "cxlsim/fault_injector.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace cmpi::cxlsim {
namespace {

int make_memfd(const char* name, std::size_t size) {
#if defined(__linux__)
  const int fd = static_cast<int>(syscall(SYS_memfd_create, name, 0));
#else
  (void)name;
  const int fd = -1;
  errno = ENOSYS;
#endif
  if (fd < 0) {
    return -1;
  }
  if (ftruncate(fd, static_cast<off_t>(size)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<DaxDevice>> DaxDevice::create(
    std::size_t size, unsigned heads, const CxlTimingParams& timing) {
  if (size == 0) {
    return status::invalid_argument("pool size must be nonzero");
  }
  if (heads == 0) {
    return status::invalid_argument("device needs at least one head");
  }
  const std::size_t pool_size = align_up(size, kDaxAlignment);

  const int pool_fd = make_memfd("cmpi-cxl-pool", pool_size);
  if (pool_fd < 0) {
    return status::internal(std::string("memfd_create(pool): ") +
                            std::strerror(errno));
  }
  void* pool_base = mmap(nullptr, pool_size, PROT_READ | PROT_WRITE,
                         MAP_SHARED, pool_fd, 0);
  if (pool_base == MAP_FAILED) {
    close(pool_fd);
    return status::internal(std::string("mmap(pool): ") +
                            std::strerror(errno));
  }

  const int ctrl_fd = make_memfd("cmpi-cxl-ctrl", sizeof(CtrlBlock));
  if (ctrl_fd < 0) {
    munmap(pool_base, pool_size);
    close(pool_fd);
    return status::internal(std::string("memfd_create(ctrl): ") +
                            std::strerror(errno));
  }
  void* ctrl_raw = mmap(nullptr, sizeof(CtrlBlock), PROT_READ | PROT_WRITE,
                        MAP_SHARED, ctrl_fd, 0);
  if (ctrl_raw == MAP_FAILED) {
    munmap(pool_base, pool_size);
    close(pool_fd);
    close(ctrl_fd);
    return status::internal(std::string("mmap(ctrl): ") +
                            std::strerror(errno));
  }

  auto* ctrl = new (ctrl_raw) CtrlBlock{};
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  for (CopyStripe& stripe : ctrl->stripes) {
    pthread_mutex_init(&stripe.mutex, &attr);
  }
  pthread_mutexattr_destroy(&attr);

  log_info("cxlsim: created pooled device: %zu MiB, %u heads",
           pool_size >> 20, heads);
  auto device = std::unique_ptr<DaxDevice>(
      new DaxDevice(pool_fd, static_cast<std::byte*>(pool_base), pool_size,
                    ctrl_fd, ctrl, heads, timing));
  if (const char* env = std::getenv("CMPI_COHERENCE_CHECK");
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    device->enable_coherence_checker();
  }
  return device;
}

DaxDevice::DaxDevice(int pool_fd, std::byte* pool_base, std::size_t size,
                     int ctrl_fd, CtrlBlock* ctrl, unsigned heads,
                     const CxlTimingParams& timing)
    : pool_fd_(pool_fd),
      pool_base_(pool_base),
      size_(size),
      ctrl_fd_(ctrl_fd),
      ctrl_(ctrl),
      heads_(heads),
      timing_(timing) {}

DaxDevice::~DaxDevice() {
  if (ctrl_ != nullptr) {
    for (CopyStripe& stripe : ctrl_->stripes) {
      pthread_mutex_destroy(&stripe.mutex);
    }
    munmap(ctrl_, sizeof(CtrlBlock));
  }
  if (ctrl_fd_ >= 0) {
    close(ctrl_fd_);
  }
  if (pool_base_ != nullptr) {
    munmap(pool_base_, size_);
  }
  if (pool_fd_ >= 0) {
    close(pool_fd_);
  }
}

Status DaxDevice::set_cacheability(std::uint64_t offset, std::uint64_t size,
                                   Cacheability type) {
  if (size == 0 || !contains(offset, size)) {
    return status::invalid_argument("MTRR range outside the pool");
  }
  MtrrTable& table = ctrl_->mtrr;
  // Reprogramming an existing range replaces it.
  for (std::uint32_t i = 0; i < table.count; ++i) {
    if (table.ranges[i].offset == offset && table.ranges[i].size == size) {
      table.ranges[i].type = type;
      return Status::ok();
    }
  }
  if (table.count == MtrrTable::kMaxRanges) {
    return status::capacity_exceeded("MTRR register file full");
  }
  table.ranges[table.count++] = {offset, size, type};
  return Status::ok();
}

template <typename Copy>
void DaxDevice::for_each_page_locked(std::uint64_t offset, std::size_t size,
                                     Copy&& copy) const {
  CMPI_EXPECTS(contains(offset, size));
  const std::uint64_t end = offset + size;
  for (std::uint64_t at = offset; at < end;) {
    // The piece ends at `next` rather than being min(size, page remainder)
    // long: GCC bounds the latter by 4096 and expands the memcpy inline as
    // `rep movs`, which doubles the cost of the 64 B line copies that make
    // up most pool traffic.
    const std::uint64_t next =
        std::min(end, align_down(at, kCopyPageSize) + kCopyPageSize);
    pthread_mutex_t* stripe =
        &ctrl_->stripes[(at / kCopyPageSize) % kCopyStripes].mutex;
    pthread_mutex_lock(stripe);
    copy(at, at - offset, next - at);
    pthread_mutex_unlock(stripe);
    at = next;
  }
}

void DaxDevice::copy_in(std::uint64_t offset, std::span<const std::byte> src) {
  for_each_page_locked(offset, src.size(),
                       [&](std::uint64_t at, std::size_t done, std::size_t n) {
                         std::memcpy(pool_base_ + at, src.data() + done, n);
                       });
}

void DaxDevice::copy_out(std::uint64_t offset, std::span<std::byte> dst) const {
  for_each_page_locked(offset, dst.size(),
                       [&](std::uint64_t at, std::size_t done, std::size_t n) {
                         std::memcpy(dst.data() + done, pool_base_ + at, n);
                       });
}

CoherenceChecker& DaxDevice::enable_coherence_checker() {
  if (checker_ == nullptr) {
    checker_ = std::make_unique<CoherenceChecker>();
  }
  return *checker_;
}

void DaxDevice::disable_coherence_checker() { checker_.reset(); }

FaultInjector& DaxDevice::install_fault_plan(FaultPlan plan) {
  fault_injector_ = std::make_unique<FaultInjector>(std::move(plan));
  return *fault_injector_;
}

void DaxDevice::clear_fault_plan() { fault_injector_.reset(); }

void DaxDevice::register_cache(CacheSim* cache) {
  std::lock_guard lock(cache_registry_mutex_);
  caches_.push_back(cache);
}

void DaxDevice::unregister_cache(CacheSim* cache) {
  if (checker_ != nullptr) {
    checker_->on_cache_detached(cache);
  }
  std::lock_guard lock(cache_registry_mutex_);
  std::erase(caches_, cache);
}

std::size_t DaxDevice::attached_caches() const {
  std::lock_guard lock(cache_registry_mutex_);
  return caches_.size();
}

void DaxDevice::bi_write_acquire(std::uint64_t line_offset, CacheSim* self) {
  std::lock_guard lock(cache_registry_mutex_);
  for (CacheSim* cache : caches_) {
    if (cache != self) {
      cache->external_invalidate(line_offset);
    }
  }
}

void DaxDevice::bi_read_acquire(std::uint64_t line_offset, CacheSim* self) {
  std::lock_guard lock(cache_registry_mutex_);
  for (CacheSim* cache : caches_) {
    if (cache != self) {
      cache->external_writeback(line_offset);
    }
  }
}

Cacheability DaxDevice::cacheability(std::uint64_t offset) const noexcept {
  const MtrrTable& table = ctrl_->mtrr;
  for (std::uint32_t i = 0; i < table.count; ++i) {
    const auto& r = table.ranges[i];
    if (offset >= r.offset && offset < r.offset + r.size) {
      return r.type;
    }
  }
  return Cacheability::kWriteBack;
}

}  // namespace cmpi::cxlsim
