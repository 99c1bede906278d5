// One-sided MPI communication over CXL SHM (paper §3.2, §3.4).
//
// A Window extends MPI_Win_allocate_shared across nodes: the root rank
// creates one CXL SHM Arena object holding all ranks' segments laid out
// contiguously (segment of rank i directly follows rank i-1), so any rank
// computes any other rank's segment address from the object base and the
// rank id alone. MPI_Put/MPI_Get become direct stores/loads into the
// pool — no network transfer, no target-side progress.
//
// Synchronization (all built from single-writer flags and the bakery lock,
// because the pooled device has no cross-head atomics):
//
//  * PSCW — a post-count matrix and a complete-count matrix of timestamped
//    sequence flags, one cacheline per ordered pair so each flag has
//    exactly one writer. Target's Post(origins) increments its row;
//    origin's Start(targets) waits for the counts; Complete/Wait mirror
//    it. Counters never reset, so epochs repeat indefinitely (§3.4's
//    shared synchronization array, generalized to counting flags).
//  * Lock/Unlock — a per-target-rank Lamport bakery lock resident in the
//    window's CXL SHM, eliminating the lock-request network round trip.
//    Both MPI lock modes map to exclusive acquisition (conservative).
//  * Fence — a sequence-number barrier in the window (plus a store drain).
//
// Window object layout:
//   [0]                 fence barrier slots   (nranks * 64 B)
//   [post_offset]       post-count matrix     (nranks^2 * 64 B)
//   [complete_offset]   complete-count matrix (nranks^2 * 64 B)
//   [locks_offset]      per-target bakery locks
//   [data_offset]       segments: nranks * win_size
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "arena/bakery_lock.hpp"
#include "common/status.hpp"
#include "runtime/universe.hpp"

namespace cmpi::rma {

/// Reduction op for accumulate.
enum class AccumulateOp { kSum, kMin, kMax, kReplace };

/// Fixed-width buffer size used when broadcasting a window's object name
/// (§3.2: "the root rank then broadcasts the object name").
inline constexpr std::size_t kWindowNameCapacity = 40;

class Window {
 public:
  /// Collective creation: every rank calls with the same `name` and
  /// `win_size` (bytes per rank, rounded up to a cacheline). The root
  /// creates the arena object; everyone else opens it (the paper's
  /// root-broadcasts-name flow); two barriers close the epoch.
  static Window create(runtime::RankCtx& ctx, const std::string& name,
                       std::size_t win_size);

  /// Group-scoped creation for sub-communicators (§3.2): segments and
  /// synchronization structures are sized for `group_size` members with
  /// dense group ranks; `group_barrier` synchronizes exactly the members
  /// (the world barrier would deadlock). The root creates and formats the
  /// object; everyone attaches.
  static Window create_grouped(runtime::RankCtx& ctx,
                               const std::string& name, std::size_t win_size,
                               int group_rank, int group_size, bool is_root,
                               std::function<void()> group_barrier);

  /// Collective destruction: barrier, then the root destroys the object.
  void free();

  // --- RMA data operations (require an access epoch) ---
  /// MPI_Put: store into `target`'s segment at byte displacement `disp`.
  void put(int target, std::uint64_t disp, std::span<const std::byte> data);
  /// MPI_Get: load from `target`'s segment.
  void get(int target, std::uint64_t disp, std::span<std::byte> out);
  /// MPI_Accumulate on contiguous doubles. Epoch exclusivity (PSCW or
  /// lock) provides the element-wise atomicity MPI requires.
  void accumulate(int target, std::uint64_t disp,
                  std::span<const double> values, AccumulateOp op);

  /// MPI_Get_accumulate: fetch the target values into `result`, then
  /// apply `op` with `values`. Requires an exclusive epoch (lock/PSCW).
  void get_accumulate(int target, std::uint64_t disp,
                      std::span<const double> values,
                      std::span<double> result, AccumulateOp op);

  /// MPI_Fetch_and_op on one 64-bit integer: returns the old value and
  /// stores old+operand (kSum) or operand (kReplace). The pooled device
  /// has no atomic RMW, so this is only atomic under the window lock —
  /// lock(target) must be held (MPI requires a passive epoch here too).
  std::uint64_t fetch_and_op_u64(int target, std::uint64_t disp,
                                 std::uint64_t operand, AccumulateOp op);

  // --- Local segment access (the app's own window memory) ---
  /// Coherent write into the caller's own segment (§3.5 discipline).
  void write_local(std::uint64_t disp, std::span<const std::byte> data);
  /// Coherent read from the caller's own segment.
  void read_local(std::uint64_t disp, std::span<std::byte> out);

  // --- PSCW (§3.4) ---
  /// Target side: expose the window to `origins` (MPI_Win_post).
  void post(std::span<const int> origins);
  /// Origin side: open an access epoch to `targets` (MPI_Win_start).
  void start(std::span<const int> targets);
  /// Origin side: end the access epoch (MPI_Win_complete).
  void complete(std::span<const int> targets);
  /// Target side: wait for all origins to complete (MPI_Win_wait).
  void wait(std::span<const int> origins);

  // --- Fence ---
  /// MPI_Win_fence: drain outstanding stores, then barrier on the window.
  void fence();

  // --- Passive target (Lock/Unlock, §3.4) ---
  void lock(int target);
  /// Deadline- and failure-aware lock: beats the caller's heartbeat while
  /// queued, and if a participant ahead of it is declared dead by the
  /// failure detector, BREAKS the dead holder's bakery ticket and acquires
  /// the lock (arena::BakeryLock::lock_for). Returns kTimedOut if every
  /// contender stayed alive past the deadline. Caveat: the liveness
  /// mapping assumes group ranks equal world ranks, which holds for
  /// world-spanning windows (Window::create); for create_grouped windows
  /// with reordered members the dead-holder check is conservative (it may
  /// misattribute liveness and fall back to kTimedOut).
  [[nodiscard]] Status lock_for(int target, std::chrono::milliseconds timeout);
  void unlock(int target);
  /// MPI_Win_lock_all / unlock_all: acquire every target's lock (in rank
  /// order, so concurrent lock_all callers cannot deadlock).
  void lock_all();
  void unlock_all();

  /// MPI_Win_flush: complete outstanding puts to `target` (drain stores).
  void flush(int target);
  void flush_all();

  /// What scavenge_peer repaired in this window's synchronization state.
  struct PeerScavengeReport {
    std::uint64_t lock_tickets_broken = 0;  ///< standing bakery tickets
    bool fence_slot_forged = false;         ///< barrier slot leveled up
  };

  /// Window-local half of pool recovery (see runtime::PoolRecovery for the
  /// pool-global half): break the dead group member's standing bakery
  /// tickets on every per-target window lock — a corpse's ticket blocks
  /// all future acquirers with larger tickets — and forge its
  /// fence-barrier slot level with the survivors so fences drain past it.
  /// `dead_group_rank` is a rank within this window's group. Survivors'
  /// PSCW counts toward the corpse are not rewritten: post/start epochs
  /// are per-pair and simply stop advancing.
  PeerScavengeReport scavenge_peer(int dead_group_rank);

  [[nodiscard]] std::size_t win_size() const noexcept { return win_size_; }
  /// Members of the window's group (the communicator that created it).
  [[nodiscard]] int nranks() const noexcept { return group_size_; }
  /// This rank's dense index within the window's group.
  [[nodiscard]] int rank() const noexcept { return group_rank_; }
  /// Pool offset of `target`'s segment (contiguous layout arithmetic).
  [[nodiscard]] std::uint64_t segment_offset(int target) const;

  /// Bytes the window object occupies for a given geometry.
  static std::size_t footprint(int nranks, std::size_t win_size) noexcept;

 private:
  /// Cap on coherence-checker payload hints kept per epoch; past it the
  /// epoch is only partially annotated (a hint, not a correctness issue).
  static constexpr std::size_t kMaxEpochPutRanges = 256;

  Window(runtime::RankCtx& ctx, std::string name, std::uint64_t base,
         std::size_t win_size, arena::ObjectHandle handle, int group_rank,
         int group_size, std::function<void()> group_barrier);

  /// Whether [disp, disp + n) lies inside a segment (overflow-safe).
  [[nodiscard]] bool in_window(std::uint64_t disp,
                               std::uint64_t n) const noexcept {
    return n <= win_size_ && disp <= win_size_ - n;
  }
  [[nodiscard]] std::uint64_t post_flag(int origin, int target) const;
  [[nodiscard]] std::uint64_t complete_flag(int target, int origin) const;
  void wait_count_at_least(std::uint64_t flag_offset, std::uint64_t target);
  /// Record a put/accumulate destination range for the coherence checker.
  void note_epoch_put(std::uint64_t offset, std::size_t size);
  /// Hand the recorded ranges to the accessor as the payload of the next
  /// epoch-closing publish, then forget them.
  void annotate_epoch_puts();

  runtime::RankCtx* ctx_;
  std::string name_;
  int group_rank_ = 0;
  int group_size_ = 0;
  std::function<void()> group_barrier_;
  std::uint64_t base_ = 0;
  std::size_t win_size_ = 0;
  arena::ObjectHandle handle_;
  std::uint64_t post_offset_ = 0;
  std::uint64_t complete_offset_ = 0;
  std::uint64_t locks_offset_ = 0;
  std::uint64_t data_offset_ = 0;
  std::size_t lock_stride_ = 0;
  runtime::SeqBarrier fence_barrier_;
  std::vector<arena::BakeryLock> target_locks_;
  // Local epoch counters (single-writer flags hold the shared values).
  std::vector<std::uint64_t> posts_made_;      // per origin
  std::vector<std::uint64_t> starts_seen_;     // per target
  std::vector<std::uint64_t> completes_made_;  // per target
  std::vector<std::uint64_t> waits_seen_;      // per origin
  // Destination ranges written this access epoch (coherence-checker hints:
  // the epoch-closing publish in complete/fence/unlock covers them).
  std::vector<std::pair<std::uint64_t, std::size_t>> epoch_puts_;
};

}  // namespace cmpi::rma
