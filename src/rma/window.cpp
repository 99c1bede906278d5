#include "rma/window.hpp"

#include <algorithm>

#include "common/align.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"
#include "runtime/seq_barrier.hpp"

namespace cmpi::rma {

namespace {
constexpr std::size_t kPairStride = kCacheLineSize;  // one flag per line

std::uint64_t matrix_bytes(int nranks) noexcept {
  return static_cast<std::uint64_t>(nranks) *
         static_cast<std::uint64_t>(nranks) * kPairStride;
}

struct Layout {
  std::uint64_t post;
  std::uint64_t complete;
  std::uint64_t locks;
  std::uint64_t data;
  std::size_t lock_stride;
};

Layout layout_of(std::uint64_t base, int nranks) noexcept {
  Layout l{};
  l.post = base + runtime::SeqBarrier::footprint(
                      static_cast<std::size_t>(nranks));
  l.complete = l.post + matrix_bytes(nranks);
  l.locks = l.complete + matrix_bytes(nranks);
  l.lock_stride = align_up(
      arena::BakeryLock::footprint(static_cast<std::size_t>(nranks)),
      kCacheLineSize);
  l.data = l.locks + static_cast<std::uint64_t>(nranks) * l.lock_stride;
  return l;
}
}  // namespace

std::size_t Window::footprint(int nranks, std::size_t win_size) noexcept {
  const Layout l = layout_of(0, nranks);
  return l.data +
         static_cast<std::size_t>(nranks) * align_up(win_size, kCacheLineSize);
}

Window Window::create(runtime::RankCtx& ctx, const std::string& name,
                      std::size_t win_size) {
  return create_grouped(ctx, name, win_size, ctx.rank(), ctx.nranks(),
                        /*is_root=*/ctx.rank() == 0,
                        [&ctx] { ctx.barrier(); });
}

Window Window::create_grouped(runtime::RankCtx& ctx, const std::string& name,
                              std::size_t win_size, int group_rank,
                              int group_size, bool is_root,
                              std::function<void()> group_barrier) {
  const std::string object_name = "cmpi_win_" + name;
  const std::size_t aligned_size = align_up(std::max<std::size_t>(win_size, 1),
                                            kCacheLineSize);
  arena::ObjectHandle handle;
  if (is_root) {
    handle = check_ok(ctx.arena().create(
        object_name, footprint(group_size, aligned_size)));
    // Format all synchronization structures before anyone attaches
    // (arena memory may be reused and hold stale flags).
    const Layout l = layout_of(handle.pool_offset, group_size);
    runtime::SeqBarrier::format(ctx.acc(), handle.pool_offset,
                                static_cast<std::size_t>(group_size));
    for (int o = 0; o < group_size; ++o) {
      for (int t = 0; t < group_size; ++t) {
        const std::uint64_t n = static_cast<std::uint64_t>(group_size);
        const std::uint64_t post =
            l.post + (static_cast<std::uint64_t>(o) * n +
                      static_cast<std::uint64_t>(t)) *
                         kPairStride;
        const std::uint64_t comp =
            l.complete + (static_cast<std::uint64_t>(t) * n +
                          static_cast<std::uint64_t>(o)) *
                             kPairStride;
        ctx.acc().publish_flag(post, 0);
        ctx.acc().publish_flag(comp, 0);
      }
    }
    for (int t = 0; t < group_size; ++t) {
      arena::BakeryLock::format(ctx.acc(), l.locks + t * l.lock_stride,
                                static_cast<std::size_t>(group_size));
    }
    ctx.doorbell().ring();
  }
  group_barrier();
  if (!is_root) {
    handle = check_ok(ctx.arena().open(object_name));
  }
  Window window(ctx, object_name, handle.pool_offset, aligned_size, handle,
                group_rank, group_size, group_barrier);
  group_barrier();
  return window;
}

Window::Window(runtime::RankCtx& ctx, std::string name, std::uint64_t base,
               std::size_t win_size, arena::ObjectHandle handle,
               int group_rank, int group_size,
               std::function<void()> group_barrier)
    : ctx_(&ctx),
      name_(std::move(name)),
      group_rank_(group_rank),
      group_size_(group_size),
      group_barrier_(std::move(group_barrier)),
      base_(base),
      win_size_(win_size),
      handle_(std::move(handle)),
      fence_barrier_(ctx.acc(), base,
                     static_cast<std::size_t>(group_size),
                     static_cast<std::size_t>(group_rank)),
      posts_made_(static_cast<std::size_t>(group_size), 0),
      starts_seen_(static_cast<std::size_t>(group_size), 0),
      completes_made_(static_cast<std::size_t>(group_size), 0),
      waits_seen_(static_cast<std::size_t>(group_size), 0) {
  const Layout l = layout_of(base_, group_size);
  post_offset_ = l.post;
  complete_offset_ = l.complete;
  locks_offset_ = l.locks;
  lock_stride_ = l.lock_stride;
  data_offset_ = l.data;
  target_locks_.reserve(static_cast<std::size_t>(group_size));
  for (int t = 0; t < group_size; ++t) {
    target_locks_.push_back(check_ok(arena::BakeryLock::attach(
        ctx.acc(), locks_offset_ + t * lock_stride_)));
  }
}

void Window::free() {
  group_barrier_();
  if (group_rank_ == 0) {
    check_ok(ctx_->arena().destroy(handle_));
  } else {
    check_ok(ctx_->arena().close(handle_));
  }
  group_barrier_();
}

std::uint64_t Window::segment_offset(int target) const {
  CMPI_EXPECTS(target >= 0 && target < nranks());
  return data_offset_ + static_cast<std::uint64_t>(target) * win_size_;
}

std::uint64_t Window::post_flag(int origin, int target) const {
  return post_offset_ + (static_cast<std::uint64_t>(origin) *
                             static_cast<std::uint64_t>(nranks()) +
                         static_cast<std::uint64_t>(target)) *
                            kPairStride;
}

std::uint64_t Window::complete_flag(int target, int origin) const {
  return complete_offset_ + (static_cast<std::uint64_t>(target) *
                                 static_cast<std::uint64_t>(nranks()) +
                             static_cast<std::uint64_t>(origin)) *
                                kPairStride;
}

// ---------- Data operations ----------

void Window::note_epoch_put(std::uint64_t offset, std::size_t size) {
  if (size == 0 || ctx_->device().checker() == nullptr) {
    return;
  }
  if (epoch_puts_.size() < kMaxEpochPutRanges) {
    epoch_puts_.emplace_back(offset, size);
  }
}

void Window::annotate_epoch_puts() {
  for (const auto& [offset, size] : epoch_puts_) {
    ctx_->acc().annotate_publish_range(offset, size);
  }
  epoch_puts_.clear();
}

void Window::put(int target, std::uint64_t disp,
                 std::span<const std::byte> data) {
  CMPI_EXPECTS(in_window(disp, data.size()));
  CMPI_OBS_COUNT("rma.put_bytes", data.size());
  CMPI_OBS_INSTANT_ARG("rma.put", "bytes", data.size());
  ctx_->charge_mpi_overhead();
  ctx_->acc().fault_sync_point("window-put");
  const std::uint64_t at = segment_offset(target) + disp;
  ctx_->acc().bulk_write(at, data);
  note_epoch_put(at, data.size());
}

void Window::get(int target, std::uint64_t disp, std::span<std::byte> out) {
  CMPI_EXPECTS(in_window(disp, out.size()));
  CMPI_OBS_COUNT("rma.get_bytes", out.size());
  CMPI_OBS_INSTANT_ARG("rma.get", "bytes", out.size());
  ctx_->charge_mpi_overhead();
  ctx_->acc().bulk_read(segment_offset(target) + disp, out);
}

void Window::accumulate(int target, std::uint64_t disp,
                        std::span<const double> values, AccumulateOp op) {
  CMPI_EXPECTS(in_window(disp, values.size() * sizeof(double)));
  ctx_->charge_mpi_overhead();
  const std::uint64_t at = segment_offset(target) + disp;
  std::vector<double> current(values.size());
  ctx_->acc().bulk_read(at, std::as_writable_bytes(std::span(current)));
  for (std::size_t i = 0; i < values.size(); ++i) {
    switch (op) {
      case AccumulateOp::kSum:
        current[i] += values[i];
        break;
      case AccumulateOp::kMin:
        current[i] = std::min(current[i], values[i]);
        break;
      case AccumulateOp::kMax:
        current[i] = std::max(current[i], values[i]);
        break;
      case AccumulateOp::kReplace:
        current[i] = values[i];
        break;
    }
  }
  // Element-wise combine cost on the CPU (~1 ns per element).
  ctx_->clock().advance(static_cast<double>(values.size()) * 1.0);
  ctx_->acc().bulk_write(at, std::as_bytes(std::span(current)));
  note_epoch_put(at, values.size() * sizeof(double));
}

void Window::get_accumulate(int target, std::uint64_t disp,
                            std::span<const double> values,
                            std::span<double> result, AccumulateOp op) {
  CMPI_EXPECTS(values.size() == result.size());
  CMPI_EXPECTS(in_window(disp, values.size() * sizeof(double)));
  ctx_->charge_mpi_overhead();
  const std::uint64_t at = segment_offset(target) + disp;
  ctx_->acc().bulk_read(at, std::as_writable_bytes(result));
  std::vector<double> updated(result.begin(), result.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    switch (op) {
      case AccumulateOp::kSum:
        updated[i] += values[i];
        break;
      case AccumulateOp::kMin:
        updated[i] = std::min(updated[i], values[i]);
        break;
      case AccumulateOp::kMax:
        updated[i] = std::max(updated[i], values[i]);
        break;
      case AccumulateOp::kReplace:
        updated[i] = values[i];
        break;
    }
  }
  ctx_->clock().advance(static_cast<double>(values.size()) * 1.0);
  ctx_->acc().bulk_write(at, std::as_bytes(std::span(updated)));
  note_epoch_put(at, values.size() * sizeof(double));
}

std::uint64_t Window::fetch_and_op_u64(int target, std::uint64_t disp,
                                       std::uint64_t operand,
                                       AccumulateOp op) {
  CMPI_EXPECTS(in_window(disp, sizeof(std::uint64_t)));
  CMPI_EXPECTS(op == AccumulateOp::kSum || op == AccumulateOp::kReplace);
  ctx_->charge_mpi_overhead();
  const std::uint64_t at = segment_offset(target) + disp;
  const std::uint64_t old = ctx_->acc().nt_load_u64(at);
  const std::uint64_t updated =
      op == AccumulateOp::kSum ? old + operand : operand;
  ctx_->acc().nt_store_u64(at, updated);
  ctx_->acc().sfence();
  return old;
}

void Window::write_local(std::uint64_t disp, std::span<const std::byte> data) {
  CMPI_EXPECTS(in_window(disp, data.size()));
  ctx_->acc().coherent_write(segment_offset(rank()) + disp, data);
}

void Window::read_local(std::uint64_t disp, std::span<std::byte> out) {
  CMPI_EXPECTS(in_window(disp, out.size()));
  ctx_->acc().coherent_read(segment_offset(rank()) + disp, out);
}

// ---------- PSCW ----------

void Window::wait_count_at_least(std::uint64_t flag_offset,
                                 std::uint64_t target) {
  cxlsim::Accessor::FlagValue seen{};
  ctx_->doorbell().wait_until([&] {
    seen = ctx_->acc().peek_flag(flag_offset);
    return seen.value >= target;
  });
  ctx_->acc().absorb_flag(seen);
}

void Window::post(std::span<const int> origins) {
  CMPI_OBS_SPAN("rma.post");
  ctx_->charge_mpi_overhead();
  // Make the target's own prior segment writes visible before exposing.
  ctx_->acc().sfence();
  for (const int origin : origins) {
    CMPI_EXPECTS(origin >= 0 && origin < nranks());
    auto& count = posts_made_[static_cast<std::size_t>(origin)];
    ++count;
    ctx_->acc().publish_flag(post_flag(origin, rank()), count);
  }
  ctx_->doorbell().ring();
}

void Window::start(std::span<const int> targets) {
  CMPI_OBS_SPAN("rma.start");
  ctx_->charge_mpi_overhead();
  for (const int target : targets) {
    CMPI_EXPECTS(target >= 0 && target < nranks());
    auto& count = starts_seen_[static_cast<std::size_t>(target)];
    ++count;
    wait_count_at_least(post_flag(rank(), target), count);
  }
}

void Window::complete(std::span<const int> targets) {
  CMPI_OBS_SPAN("rma.complete");
  ctx_->charge_mpi_overhead();
  // The first complete flag's publish covers every put of this epoch; the
  // checker verifies none of the payload is still dirty in our cache.
  annotate_epoch_puts();
  ctx_->acc().sfence();  // drain puts of this access epoch
  for (const int target : targets) {
    CMPI_EXPECTS(target >= 0 && target < nranks());
    auto& count = completes_made_[static_cast<std::size_t>(target)];
    ++count;
    ctx_->acc().publish_flag(complete_flag(target, rank()), count);
  }
  ctx_->doorbell().ring();
}

void Window::wait(std::span<const int> origins) {
  CMPI_OBS_SPAN("rma.wait");
  ctx_->charge_mpi_overhead();
  for (const int origin : origins) {
    CMPI_EXPECTS(origin >= 0 && origin < nranks());
    auto& count = waits_seen_[static_cast<std::size_t>(origin)];
    ++count;
    wait_count_at_least(complete_flag(rank(), origin), count);
  }
}

// ---------- Fence / passive target ----------

void Window::fence() {
  CMPI_OBS_SPAN("rma.fence");
  ctx_->charge_mpi_overhead();
  // The barrier's arrival publish covers this epoch's puts.
  annotate_epoch_puts();
  ctx_->acc().sfence();
  fence_barrier_.enter(ctx_->acc(), ctx_->doorbell());
}

void Window::lock(int target) {
  CMPI_EXPECTS(target >= 0 && target < nranks());
  CMPI_OBS_SPAN("rma.lock");
  ctx_->charge_mpi_overhead();
  target_locks_[static_cast<std::size_t>(target)].lock(
      ctx_->acc(), static_cast<std::size_t>(rank()));
}

Status Window::lock_for(int target, std::chrono::milliseconds timeout) {
  CMPI_EXPECTS(target >= 0 && target < nranks());
  ctx_->charge_mpi_overhead();
  runtime::FailureDetector& detector = ctx_->failure_detector();
  cxlsim::Accessor& acc = ctx_->acc();
  return target_locks_[static_cast<std::size_t>(target)].lock_for(
      acc, static_cast<std::size_t>(rank()), timeout,
      [&](std::size_t participant) {
        // Bakery participants are group ranks; the detector judges world
        // ranks. The two coincide for world-spanning windows (see header).
        return detector.dead(acc, static_cast<int>(participant));
      },
      [&] { detector.beat(acc); });
}

void Window::unlock(int target) {
  CMPI_EXPECTS(target >= 0 && target < nranks());
  CMPI_OBS_SPAN("rma.unlock");
  ctx_->charge_mpi_overhead();
  // The lock-release publish covers the epoch's puts.
  annotate_epoch_puts();
  ctx_->acc().sfence();  // puts complete before the lock releases
  target_locks_[static_cast<std::size_t>(target)].unlock(
      ctx_->acc(), static_cast<std::size_t>(rank()));
  ctx_->doorbell().ring();
}

void Window::lock_all() {
  for (int target = 0; target < nranks(); ++target) {
    lock(target);
  }
}

void Window::unlock_all() {
  for (int target = nranks() - 1; target >= 0; --target) {
    unlock(target);
  }
}

void Window::flush(int target) {
  CMPI_EXPECTS(target >= 0 && target < nranks());
  ctx_->charge_mpi_overhead();
  ctx_->acc().sfence();
}

void Window::flush_all() {
  ctx_->charge_mpi_overhead();
  ctx_->acc().sfence();
}

Window::PeerScavengeReport Window::scavenge_peer(int dead_group_rank) {
  CMPI_EXPECTS(dead_group_rank >= 0 && dead_group_rank < group_size_ &&
               dead_group_rank != group_rank_);
  PeerScavengeReport report;
  cxlsim::Accessor& acc = ctx_->acc();
  const auto dead = static_cast<std::size_t>(dead_group_rank);
  for (arena::BakeryLock& lock : target_locks_) {
    if (lock.break_participant(acc, dead)) {
      ++report.lock_tickets_broken;
    }
  }
  report.fence_slot_forged = runtime::SeqBarrier::forge_slot(
      acc, base_, static_cast<std::size_t>(group_size_), dead);
  return report;
}

}  // namespace cmpi::rma
