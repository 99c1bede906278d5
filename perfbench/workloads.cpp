// One trial of the cMPI benchmark: build a 2-node x 2-rank Universe, run
// one workload through the public API for a host-time budget, check every
// output, and write the samples and checks as JSON. run.py runs several
// trials per benchmark run, each in its own process, and aggregates them.
//
//   cmpi_perfbench --workload small_msgs|large_msgs|halo_step --seed N
//                  [--trial K] --seconds S --out result.json
//                  [--trace --spans spans.csv --metrics metrics.json]
//
// Two clocks: "virt" values are virtual time of the modelled CXL platform
// (RankCtx::clock), "host" values are steady_clock time of the simulator.
// With --trace every cMPI call is wrapped in a benchmark-side span and the
// library's own counters are read through obs::MetricsRegistry (with
// CMPI_METRICS set) and Session::stats().
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cmpi.hpp"
#include "obs/obs.hpp"
#include "support.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using cmpi::RequestPtr;
using cmpi::Session;
using cmpi::runtime::RankCtx;

constexpr int kNodes = 2;
constexpr int kRanksPerNode = 2;
constexpr int kRanks = kNodes * kRanksPerNode;
constexpr std::size_t kCellPayload = std::size_t{64} << 10;  // paper §4.2

// small_msgs
constexpr std::size_t kPingPongSeq = 2048;  // round trips per round
constexpr std::size_t kPingPongMin = 8;
constexpr std::size_t kPingPongMax = 4096;
constexpr int kPingRank = 0;  // node 0
constexpr int kPongRank = 2;  // node 1
constexpr std::size_t kFaninWindow = 16;   // messages per sender per window
constexpr std::size_t kFaninWindows = 32;  // windows per round
constexpr std::size_t kFaninMin = 8;
constexpr std::size_t kFaninMax = 256;
// large_msgs: pairs 0->2 and 1->3, both cross-node
constexpr std::size_t kStreamWindow = 4;    // messages per window
constexpr std::size_t kStreamWindows = 16;  // windows per round
constexpr std::size_t kStreamSeqWindows = 256;  // windows before sizes repeat
constexpr std::size_t kStreamMin = std::size_t{16} << 10;
constexpr std::size_t kStreamMax = std::size_t{4} << 20;
// halo_step
constexpr std::size_t kHaloSteps = 256;  // steps per round
constexpr std::size_t kHaloMin = std::size_t{1} << 10;
constexpr std::size_t kHaloMax = std::size_t{64} << 10;
constexpr std::uint64_t kFromLeft = 0;
constexpr std::uint64_t kFromRight = kHaloMax;
constexpr std::uint64_t kBoundary = 2 * kHaloMax;
constexpr std::size_t kHaloWindowBytes = 3 * kHaloMax;

constexpr int kTagPing = 1;
constexpr int kTagFanin = 2;
constexpr int kTagAck = 3;
constexpr int kTagStream = 4;
constexpr std::size_t kAckBytes = 4;
/// Round index of the untimed warm-up, so warm-up keys never collide with
/// timed keys.
constexpr std::uint64_t kWarmupRound = 1u << 20;

// Stream ids for derive().
enum : std::uint64_t {
  kIdPingSizes = 1,
  kIdPingOut,
  kIdPingBack,
  kIdFaninSizes,
  kIdFaninMsg,
  kIdFaninChoice,
  kIdAck,
  kIdStreamSizes,
  kIdStreamMsg,
  kIdHaloSizes,
  kIdHalo,
  kIdBoundary,
  kIdPattern,
  kIdTrial,
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t trial = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string metrics;
};

/// The seed every input of this trial derives from: trials of one run see
/// different inputs, and the same (seed, trial) always the same ones.
std::uint64_t trial_seed(const Options& o) {
  return derive(o.seed, kIdTrial, o.trial);
}

/// Rank threads meet here between rounds. Only the host threads wait: no
/// virtual time passes, and the last thread to arrive runs `on_last`.
class HostBarrier {
 public:
  explicit HostBarrier(int parties) : parties_(parties) {}

  template <typename Fn>
  void arrive_and_wait(Fn&& on_last) {
    std::unique_lock lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      on_last();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// What one rank measured and checked.
struct RankResult {
  std::vector<double> virt_op_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t msgs_sent = 0;  ///< two-sided sends the benchmark issued
  std::uint64_t msgs_delivered = 0;   ///< rate numerator (messages)
  std::uint64_t bytes_delivered = 0;  ///< rate numerator (payload bytes)
  std::uint64_t rma_transfers = 0;
  std::uint64_t payload_bytes = 0;  ///< all payload bytes moved, timed phase
  double rate_virt_ns = 0;   ///< virtual time of the rate phase
  double phase_virt_ns = 0;  ///< virtual time of the whole timed phase
  double session_ms = 0;
  double ready_wall_ns = 0;
  /// Thread CPU time this rank spent checking sampled operations; taken
  /// out of the host-cost samples.
  double check_cpu_ns = 0;
  std::size_t first_timed_span = 0;
  std::size_t end_timed_span = 0;
  cmpi::p2p::CommStats stats;
};

struct Shared {
  Options opt;
  PatternBlock pattern;
  HostBarrier barrier{kRanks};
  std::array<RankResult, kRanks> results;
  std::array<std::unique_ptr<Tracer>, kRanks> tracers;
  double phase_deadline_ns = 0;
  double phase_budget_ns = 0;
  bool go = false;
  double start_cpu_ns = 0;  ///< process CPU time before the Universe ctor
  double setup_cpu_ns = 0;
  /// Host cost per operation, one sample per round: process CPU time of
  /// the round, less the benchmark's checks, over the operations sampled
  /// in it.
  std::vector<double> cpu_us_per_op;
  double round_cpu_ns = 0;
  double round_check_ns = 0;
  std::size_t round_ops = 0;
  cmpi::obs::MetricsSnapshot before;
  cmpi::obs::MetricsSnapshot after;

  explicit Shared(const Options& o)
      : opt(o), pattern(derive(trial_seed(o), kIdPattern), kStreamMax) {}
};

/// Per-rank context for one workload.
struct Rank {
  Shared& sh;
  RankCtx& ctx;
  Session& mpi;
  RankResult& res;
  Tracer* tracer;
  double phase_start = 0;

  [[nodiscard]] int rank() const { return ctx.rank(); }
  [[nodiscard]] std::uint64_t seed() const { return trial_seed(sh.opt); }
  [[nodiscard]] double virt() { return ctx.clock().now(); }

  template <typename Fn>
  decltype(auto) call(Call c, Fn&& fn) {
    return traced(tracer, c, std::forward<Fn>(fn));
  }

  /// Record a failed check against the current operation.
  void fail(bool& op_ok, const std::string& what) {
    op_ok = false;
    if (res.errors.size() < 8) {
      res.errors.push_back("rank " + std::to_string(rank()) + ": " + what);
    }
  }
  void check_status(bool& op_ok, const cmpi::Status& st, const char* what) {
    if (!st.is_ok()) {
      fail(op_ok, std::string(what) + ": " + st.to_string());
    }
  }
  void check_payload(bool& op_ok, std::uint64_t key, std::size_t want_size,
                     std::span<const std::byte> got, const char* what) {
    if (!payload_ok(sh.pattern, key, want_size, got)) {
      fail(op_ok, std::string(what) + ": " + std::to_string(got.size()) +
                      " bytes differ from the expected " +
                      std::to_string(want_size) + "-byte pattern");
    }
  }
  /// Run the output checks of a sampled operation, timed on this thread's
  /// CPU clock so that host cost per operation leaves them out.
  template <typename Fn>
  void checks(Fn&& fn) {
    const double t0 = thread_cpu_ns();
    std::forward<Fn>(fn)();
    res.check_cpu_ns += thread_cpu_ns() - t0;
  }
  void count_op(bool op_ok) {
    ++res.attempted;
    res.failed += op_ok ? 0 : 1;
  }

  /// Host-only rendezvous of all rank threads.
  template <typename Fn>
  void host_sync(Fn&& on_last) {
    sh.barrier.arrive_and_wait(std::forward<Fn>(on_last));
  }
  void start_phase(double budget_fraction) {
    host_sync([&] {
      close_round();
      sh.phase_deadline_ns =
          host_now_ns() + sh.phase_budget_ns * budget_fraction;
    });
  }
  /// Runs while every rank thread is parked at a host rendezvous: takes a
  /// host-cost sample for the round that just ended, if it sampled any
  /// operations, and starts the next one.
  void close_round() {
    std::size_t ops = 0;
    double check_ns = 0;
    for (const RankResult& q : sh.results) {
      ops += q.virt_op_us.size();
      check_ns += q.check_cpu_ns;
    }
    const double cpu = cpu_now_ns();
    if (ops > sh.round_ops) {
      const double round_ns =
          (cpu - sh.round_cpu_ns) - (check_ns - sh.round_check_ns);
      sh.cpu_us_per_op.push_back(round_ns / 1e3 /
                                 static_cast<double>(ops - sh.round_ops));
    }
    sh.round_cpu_ns = cpu;
    sh.round_check_ns = check_ns;
    sh.round_ops = ops;
  }
  /// Ends the untimed warm-up: snapshots the library counters, marks where
  /// the ledger starts, and starts the first phase's budget. Each workload
  /// calls it once, right before the barrier that opens its timed phase.
  void open_timed_phase(double budget_fraction) {
    if (sh.opt.trace) {
      host_sync([&] {
        sh.before = cmpi::obs::MetricsRegistry::instance().snapshot();
      });
    }
    start_phase(budget_fraction);
    res.first_timed_span = tracer != nullptr ? tracer->spans().size() : 0;
    phase_start = virt();
  }
  /// Round gate: round 0 always runs; later rounds run while the phase
  /// deadline has not passed. Every rank gets the same answer.
  bool next_round(std::uint64_t round) {
    host_sync([&] {
      close_round();
      sh.go = round == 0 || host_now_ns() < sh.phase_deadline_ns;
    });
    return sh.go;
  }
  void barrier() {
    call(Call::kBarrier, [&] { ctx.barrier(); });
  }
  void sample(double virt_ns, double divisor = 1.0) {
    res.virt_op_us.push_back(virt_ns / divisor / 1e3);
  }
};

// ---------------------------------------------------------------- small_msgs

/// Ping-pong between ranks 0 and 2; one sample per round trip, halved to
/// one-way. `count` limits the round (warm-up).
void pingpong_round(Rank& r, const std::vector<std::size_t>& sizes,
                    std::uint64_t round, std::size_t count, bool record) {
  std::vector<std::byte> buffer(kPingPongMax);
  const int me = r.rank();
  if (me != kPingRank && me != kPongRank) {
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t size = sizes[i];
    const std::uint64_t n = round * kPingPongSeq + i;
    const std::uint64_t out = derive(r.seed(), kIdPingOut, n);
    const std::uint64_t back = derive(r.seed(), kIdPingBack, n);
    bool ok = true;
    const double v0 = r.virt();
    cmpi::Status recv_status;
    std::size_t recv_bytes = 0;
    r.call(Call::kPingPong, [&] {
      const int peer = me == kPingRank ? kPongRank : kPingRank;
      if (me == kPingRank) {
        r.check_status(ok, r.call(Call::kSend, [&] {
          return r.mpi.send(peer, kTagPing, r.sh.pattern.payload(out, size));
        }), "ping send");
      }
      auto got = r.call(Call::kRecv, [&] {
        return r.mpi.recv(peer, kTagPing, std::span(buffer));
      });
      recv_status = got.status();
      recv_bytes = got.is_ok() ? got.value().bytes : 0;
      if (me == kPongRank) {
        r.check_status(ok, r.call(Call::kSend, [&] {
          return r.mpi.send(peer, kTagPing, r.sh.pattern.payload(back, size));
        }), "pong send");
      }
    });
    const double v1 = r.virt();
    // Checked after the timing, and on rank 2 after the reply went out.
    r.checks([&] {
      r.check_status(ok, recv_status, "ping-pong recv");
      r.check_payload(ok, me == kPingRank ? back : out, size,
                      std::span(buffer).first(recv_bytes), "ping-pong message");
    });
    r.res.msgs_sent += 1;
    if (record) {
      r.res.payload_bytes += size;
      r.count_op(ok);
      if (me == kPingRank) {
        r.sample(v1 - v0, 2.0);
      }
    }
  }
}

/// Fan-in: ranks 1-3 each send windows of kFaninWindow messages to rank 0,
/// which receives them with a seeded mix of named-source and any-source
/// receives and acks each sender once per window.
void fanin_round(Rank& r, const std::vector<std::vector<std::size_t>>& sizes,
                 std::uint64_t round, std::size_t windows, bool record) {
  const int me = r.rank();
  std::vector<std::byte> buffer(kFaninMax);
  std::array<std::byte, kAckBytes> ack{};
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint64_t window_id = round * kFaninWindows + w;
    auto key_of = [&](std::size_t j, int src) {
      return derive(r.seed(), kIdFaninMsg,
                    (window_id * kFaninWindow + j) * kRanks + src);
    };
    bool ok = true;
    r.call(Call::kFaninWindow, [&] {
      if (me != 0) {
        std::vector<RequestPtr> requests;
        requests.reserve(kFaninWindow);
        for (std::size_t j = 0; j < kFaninWindow; ++j) {
          const std::size_t size = sizes[me][w * kFaninWindow + j];
          requests.push_back(r.call(Call::kIsend, [&] {
            return r.mpi.isend(0, kTagFanin,
                               r.sh.pattern.payload(key_of(j, me), size));
          }));
        }
        r.check_status(ok, r.call(Call::kWaitAll, [&] {
          return r.mpi.wait_all(requests);
        }), "fan-in wait_all");
        for (const RequestPtr& req : requests) {
          r.check_status(ok, req->result(), "fan-in isend");
        }
        r.res.msgs_sent += kFaninWindow;
        auto got = r.call(Call::kRecv, [&] {
          return r.mpi.recv(0, kTagAck, std::span(ack));
        });
        r.check_status(ok, got.status(), "fan-in ack recv");
        if (got.is_ok()) {
          r.check_payload(ok, derive(r.seed(), kIdAck, window_id * kRanks + me),
                          kAckBytes, std::span(ack).first(got.value().bytes),
                          "fan-in ack");
        }
        return;
      }
      std::array<std::size_t, kRanks> next{};  // per sender, next message
      Stream choice(derive(r.seed(), kIdFaninChoice, window_id));
      const std::size_t total = kFaninWindow * (kRanks - 1);
      for (std::size_t k = 0; k < total; ++k) {
        int want = cmpi::kAnySource;
        if (choice.unit() >= 0.5) {
          std::vector<int> open;
          for (int s = 1; s < kRanks; ++s) {
            if (next[s] < kFaninWindow) {
              open.push_back(s);
            }
          }
          want = open[choice.below(open.size())];
        }
        auto got = r.call(Call::kRecv, [&] {
          return r.mpi.recv(want, kTagFanin, std::span(buffer));
        });
        r.check_status(ok, got.status(), "fan-in recv");
        if (!got.is_ok()) {
          continue;
        }
        const int src = got.value().source;
        if (src < 1 || src >= kRanks || next[src] >= kFaninWindow ||
            (want != cmpi::kAnySource && src != want)) {
          r.fail(ok, "fan-in message from unexpected source " +
                         std::to_string(src));
          continue;
        }
        const std::size_t j = next[src]++;
        const std::size_t size = sizes[src][w * kFaninWindow + j];
        r.check_payload(ok, key_of(j, src), size,
                        std::span(buffer).first(got.value().bytes),
                        "fan-in message");
        r.res.msgs_delivered += record ? 1 : 0;
        r.res.bytes_delivered += record ? size : 0;
        r.res.payload_bytes += record ? size : 0;
      }
      for (int s = 1; s < kRanks; ++s) {
        const std::uint64_t key = derive(r.seed(), kIdAck, window_id * kRanks + s);
        r.check_status(ok, r.call(Call::kSend, [&] {
          return r.mpi.send(s, kTagAck, r.sh.pattern.payload(key, kAckBytes));
        }), "fan-in ack send");
        r.res.msgs_sent += 1;
      }
    });
    if (record) {
      r.count_op(ok);
    }
  }
}

void run_small_msgs(Rank& r) {
  const auto ping_sizes =
      log_uniform_sizes(derive(r.seed(), kIdPingSizes), kPingPongSeq,
                        kPingPongMin, kPingPongMax);
  std::vector<std::vector<std::size_t>> fanin_sizes(kRanks);
  for (int s = 1; s < kRanks; ++s) {
    fanin_sizes[s] =
        log_uniform_sizes(derive(r.seed(), kIdFaninSizes, s),
                          kFaninWindow * kFaninWindows, kFaninMin, kFaninMax);
  }
  pingpong_round(r, ping_sizes, kWarmupRound, 32, false);
  fanin_round(r, fanin_sizes, kWarmupRound, 1, false);

  r.open_timed_phase(0.5);
  r.barrier();
  for (std::uint64_t round = 0; r.next_round(round); ++round) {
    pingpong_round(r, ping_sizes, round, kPingPongSeq, true);
  }
  r.start_phase(0.5);
  r.barrier();
  const double fanin_start = r.virt();
  for (std::uint64_t round = 0; r.next_round(round); ++round) {
    fanin_round(r, fanin_sizes, round, kFaninWindows, true);
  }
  r.res.rate_virt_ns = r.virt() - fanin_start;
}

// ---------------------------------------------------------------- large_msgs

/// Two cross-node pairs stream windows of kStreamWindow messages; the
/// receiver acks each window. One sample per window at the sender.
void stream_round(Rank& r, const std::vector<std::size_t>& sizes,
                  std::vector<std::vector<std::byte>>& buffers,
                  std::uint64_t round, std::size_t windows, bool record) {
  const int me = r.rank();
  const bool sender = me < kRanksPerNode;
  const int peer = sender ? me + kRanksPerNode : me - kRanksPerNode;
  const int pair = sender ? me : peer;
  std::array<std::byte, kAckBytes> ack{};
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint64_t window_id = round * kStreamWindows + w;
    const std::size_t* window_sizes =
        &sizes[(window_id % kStreamSeqWindows) * kStreamWindow];
    const std::uint64_t ack_key = derive(r.seed(), kIdAck, window_id * kRanks + pair);
    auto key_of = [&](std::size_t j) {
      return derive(r.seed(), kIdStreamMsg,
                    (window_id * kStreamWindow + j) * kRanks + pair);
    };
    bool ok = true;
    std::vector<RequestPtr> requests;
    requests.reserve(kStreamWindow);
    const double v0 = r.virt();
    r.call(Call::kStreamWindow, [&] {
      for (std::size_t j = 0; j < kStreamWindow; ++j) {
        const std::size_t size = window_sizes[j];
        requests.push_back(sender
            ? r.call(Call::kIsend, [&] {
                return r.mpi.isend(peer, kTagStream,
                                   r.sh.pattern.payload(key_of(j), size));
              })
            : r.call(Call::kIrecv, [&] {
                return r.mpi.irecv(peer, kTagStream, std::span(buffers[j]));
              }));
      }
      r.check_status(ok, r.call(Call::kWaitAll, [&] {
        return r.mpi.wait_all(requests);
      }), "stream wait_all");
      if (sender) {
        r.res.msgs_sent += kStreamWindow;
        auto got = r.call(Call::kRecv, [&] {
          return r.mpi.recv(peer, kTagAck, std::span(ack));
        });
        r.check_status(ok, got.status(), "stream ack recv");
        if (got.is_ok()) {
          r.check_payload(ok, ack_key, kAckBytes,
                          std::span(ack).first(got.value().bytes), "stream ack");
        }
      } else {
        r.check_status(ok, r.call(Call::kSend, [&] {
          return r.mpi.send(peer, kTagAck, r.sh.pattern.payload(ack_key, kAckBytes));
        }), "stream ack send");
        r.res.msgs_sent += 1;
      }
    });
    const double v1 = r.virt();
    // Verified after the ack, so the sender's timing excludes the check.
    r.checks([&] {
      for (std::size_t j = 0; j < kStreamWindow; ++j) {
        r.check_status(ok, requests[j]->result(), "stream message");
        if (!sender && requests[j]->result().is_ok()) {
          const std::size_t size = window_sizes[j];
          r.check_payload(ok, key_of(j), size,
                          std::span(buffers[j]).first(requests[j]->info().bytes),
                          "stream message");
          r.res.msgs_delivered += record ? 1 : 0;
          r.res.bytes_delivered += record ? size : 0;
          r.res.payload_bytes += record ? size : 0;
        }
      }
    });
    if (record) {
      r.count_op(ok);
      if (sender) {
        r.sample(v1 - v0);
      }
    }
  }
}

/// Window sizes, kStreamWindow per window: slot j of a window is
/// 16 KiB * 4^(j + u) for one stratified u in [0, 1) per window, so every
/// window mixes an eager 16-64 KiB message with rendezvous ones up to
/// 4 MiB, and over all messages the sizes are log-uniform in 16 KiB-4 MiB.
/// The slots come in a seeded order per window. Both pairs send the same
/// size sequence (with their own payloads).
std::vector<std::size_t> stream_sizes(std::uint64_t seed) {
  static_assert(kStreamMin << (2 * kStreamWindow) == kStreamMax);
  const auto base = log_uniform_sizes(derive(seed, kIdStreamSizes),
                                      kStreamSeqWindows, kStreamMin,
                                      kStreamMin << 2);
  Stream order(derive(seed, kIdStreamSizes, 1));
  std::vector<std::size_t> sizes(kStreamSeqWindows * kStreamWindow);
  for (std::size_t w = 0; w < kStreamSeqWindows; ++w) {
    std::size_t* window = &sizes[w * kStreamWindow];
    for (std::size_t j = 0; j < kStreamWindow; ++j) {
      window[j] = base[w] << (2 * j);
    }
    for (std::size_t i = kStreamWindow; i > 1; --i) {
      std::swap(window[i - 1], window[order.below(i)]);
    }
  }
  return sizes;
}

void run_large_msgs(Rank& r) {
  const auto sizes = stream_sizes(r.seed());
  std::vector<std::vector<std::byte>> buffers;
  if (r.rank() >= kRanksPerNode) {
    buffers.assign(kStreamWindow, std::vector<std::byte>(kStreamMax));
  }
  stream_round(r, sizes, buffers, kWarmupRound, 1, false);

  r.open_timed_phase(1.0);
  r.barrier();
  const double start = r.virt();
  for (std::uint64_t round = 0; r.next_round(round); ++round) {
    stream_round(r, sizes, buffers, round, kStreamWindows, true);
  }
  r.res.rate_virt_ns = r.virt() - start;
}

// ----------------------------------------------------------------- halo_step

struct Halo {
  cmpi::rma::Window& win;
  /// Per step, shared by every rank as on a uniform grid; the boundary a
  /// rank exposes is as wide as its halo.
  std::vector<std::size_t> halo_sizes;
  std::vector<std::byte> boundary_in;
  std::vector<std::byte> left_in;
  std::vector<std::byte> right_in;
};

/// 1-D periodic ring: each step writes the own boundary, then inside one
/// fence epoch puts a halo into both neighbours and gets the right
/// neighbour's boundary, then checks what arrived and allreduces an 8 B
/// residual. One sample per step per rank.
void halo_round(Rank& r, Halo& h, std::uint64_t round, std::size_t steps,
                bool record) {
  const int me = r.rank();
  const int left = (me + kRanks - 1) % kRanks;
  const int right = (me + 1) % kRanks;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint64_t step = round * kHaloSteps + i;
    auto halo_key = [&](int src, int dir) {
      return derive(r.seed(), kIdHalo, (step * kRanks + src) * 2 + dir);
    };
    auto boundary_key = [&](int owner) {
      return derive(r.seed(), kIdBoundary, step * kRanks + owner);
    };
    const std::size_t halo = h.halo_sizes[i];

    bool ok = true;
    double sum = residual(r.seed(), me, step);
    const std::span<std::byte> boundary = std::span(h.boundary_in).first(halo);
    const std::span<std::byte> left_in = std::span(h.left_in).first(halo);
    const std::span<std::byte> right_in = std::span(h.right_in).first(halo);
    const double v0 = r.virt();
    r.call(Call::kHaloStep, [&] {
      r.call(Call::kWriteLocal, [&] {
        h.win.write_local(kBoundary,
                          r.sh.pattern.payload(boundary_key(me), halo));
      });
      r.call(Call::kFence, [&] { h.win.fence(); });
      r.call(Call::kPut, [&] {
        h.win.put(left, kFromRight, r.sh.pattern.payload(halo_key(me, 0), halo));
      });
      r.call(Call::kPut, [&] {
        h.win.put(right, kFromLeft, r.sh.pattern.payload(halo_key(me, 1), halo));
      });
      r.call(Call::kGet, [&] { h.win.get(right, kBoundary, boundary); });
      r.call(Call::kFence, [&] { h.win.fence(); });
      r.call(Call::kReadLocal, [&] { h.win.read_local(kFromLeft, left_in); });
      r.call(Call::kReadLocal, [&] { h.win.read_local(kFromRight, right_in); });
      r.call(Call::kAllreduce, [&] {
        r.mpi.allreduce(std::span(&sum, 1), cmpi::ReduceOp::kSum);
      });
    });
    const double v1 = r.virt();
    r.checks([&] {
      r.check_payload(ok, boundary_key(right), halo, boundary, "boundary get");
      r.check_payload(ok, halo_key(left, 1), halo, left_in, "halo from left");
      r.check_payload(ok, halo_key(right, 0), halo, right_in, "halo from right");
      if (!reduction_ok(sum, r.seed(), kRanks, step)) {
        r.fail(ok, "allreduce sum " + std::to_string(sum) + " != closed form " +
                       std::to_string(residual_sum(r.seed(), kRanks, step)));
      }
    });
    if (record) {
      r.count_op(ok);
      r.sample(v1 - v0);
      r.res.msgs_delivered += 3;
      r.res.bytes_delivered += 3 * halo;
      r.res.payload_bytes += 3 * halo;
      r.res.rma_transfers += 3;
    }
  }
}

void run_halo_step(Rank& r, cmpi::rma::Window& win) {
  Halo h{win,
         log_uniform_sizes(derive(r.seed(), kIdHaloSizes), kHaloSteps,
                           kHaloMin, kHaloMax),
         std::vector<std::byte>(kHaloMax), std::vector<std::byte>(kHaloMax),
         std::vector<std::byte>(kHaloMax)};
  halo_round(r, h, kWarmupRound, 2, false);

  r.open_timed_phase(1.0);
  r.barrier();
  const double start = r.virt();
  for (std::uint64_t round = 0; r.next_round(round); ++round) {
    halo_round(r, h, round, kHaloSteps, true);
  }
  r.res.rate_virt_ns = r.virt() - start;
}

// -------------------------------------------------------------------- trial

void rank_main(Shared& sh, RankCtx& ctx, double t0_host_ns) {
  const int me = ctx.rank();
  RankResult& res = sh.results[me];
  if (sh.opt.trace) {
    sh.tracers[me] = std::make_unique<Tracer>(me, &ctx.clock());
  }
  Tracer* tracer = sh.tracers[me].get();
  const double s0 = host_now_ns();
  Session mpi(ctx);
  res.session_ms = (host_now_ns() - s0) / 1e6;
  std::optional<cmpi::rma::Window> win;
  if (sh.opt.workload == "halo_step") {
    win.emplace(traced(tracer, Call::kWindowCreate, [&] {
      return mpi.create_window("perfbench.halo", kHaloWindowBytes);
    }));
  }
  res.ready_wall_ns = host_now_ns() - t0_host_ns;

  Rank r{sh, ctx, mpi, res, tracer};
  r.host_sync([&] { sh.setup_cpu_ns = cpu_now_ns() - sh.start_cpu_ns; });
  if (sh.opt.workload == "small_msgs") {
    run_small_msgs(r);
  } else if (sh.opt.workload == "large_msgs") {
    run_large_msgs(r);
  } else {
    run_halo_step(r, *win);
  }
  r.barrier();
  res.phase_virt_ns = r.virt() - r.phase_start;
  res.end_timed_span = tracer != nullptr ? tracer->spans().size() : 0;
  r.host_sync([&] {
    if (sh.opt.trace) {
      sh.after = cmpi::obs::MetricsRegistry::instance().snapshot();
    }
  });
  res.stats = mpi.stats();
  if (win) {
    win->free();
  }
}

/// Per-layer metrics of one traced trial from the library's counters:
/// deltas over the timed phase. run.py derives the span statistics (calls,
/// percentiles, ledger) from the span file.
std::map<std::string, double> layer_metrics(const Shared& sh) {
  std::map<std::string, double> m;
  const cmpi::obs::MetricsSnapshot& a = sh.after;
  const cmpi::obs::MetricsSnapshot& b = sh.before;
  auto dc = [&](const char* n) {
    return static_cast<double>(a.counter(n)) - static_cast<double>(b.counter(n));
  };
  auto dh = [&](const char* n) {
    cmpi::obs::HistogramSnapshot d;
    const auto ai = a.histograms.find(n);
    if (ai == a.histograms.end()) {
      return d;
    }
    d = ai->second;
    const auto bi = b.histograms.find(n);
    if (bi != b.histograms.end()) {
      d.count -= bi->second.count;
      d.sum -= bi->second.sum;
      for (std::size_t k = 0; k < d.buckets.size(); ++k) {
        d.buckets[k] -= bi->second.buckets[k];
      }
    }
    return d;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  double payload_bytes = 0;
  double rma_transfers = 0;
  for (const RankResult& res : sh.results) {
    payload_bytes += static_cast<double>(res.payload_bytes);
    rma_transfers += static_cast<double>(res.rma_transfers);
  }
  const double sent = dc("p2p.messages_sent");
  const double eager = dc("p2p.eager_messages");
  const double rdvz = dc("p2p.rendezvous_sent");
  const double fallbacks = dc("p2p.rendezvous_fallbacks");
  const double rings = dc("p2p.doorbell_rings");
  const double suppressed = dc("p2p.doorbell_suppressed");
  const double reuse = dc("p2p.rdvz_slot_reuse");
  const double hits = dc("cache.hits");
  const double flush_lines = dc("cxl.flush_lines");
  m["p2p.unexpected_ratio"] =
      ratio(dc("p2p.unexpected_messages"), dc("p2p.messages_received"));
  m["p2p.match_probe_len_p50"] = dh("p2p.match_probe_len").quantile(0.5);
  m["p2p.cells_per_reap_p50"] = dh("p2p.cells_per_reap").quantile(0.5);
  m["p2p.doorbell_spurious_ratio"] =
      ratio(dc("p2p.doorbell_spurious"), dc("p2p.doorbell_visits"));
  m["p2p.doorbell_coalesce_ratio"] = ratio(suppressed, rings + suppressed);
  m["p2p.publish_cells_per_batch"] =
      ratio(dc("p2p.cells_published"), dc("p2p.publish_batches"));
  m["p2p.eager_share"] = ratio(eager, eager + rdvz);
  m["p2p.rendezvous_fallback_ratio"] = ratio(fallbacks, rdvz + fallbacks);
  m["p2p.rdvz_slot_reuse_ratio"] =
      ratio(reuse, reuse + dc("p2p.rdvz_slot_create"));
  m["p2p.rdvz_rts_to_fin_us_p50"] =
      dh("p2p.rdvz_rts_to_fin_ns").quantile(0.5) / 1e3;
  m["ring.enqueues_per_msg"] = ratio(dc("ring.enqueues"), sent);
  m["ring.cells_per_publish_p50"] = dh("ring.cells_per_publish").quantile(0.5);
  m["ring.occupancy_hwm"] = static_cast<double>(
      a.gauges.count("ring.occupancy_hwm") ? a.gauges.at("ring.occupancy_hwm")
                                           : 0);
  m["ring.retransmit_cells"] = dc("ring.retransmit_cells");
  m["cxl.cache_hit_ratio"] = ratio(hits, hits + dc("cache.misses"));
  m["cxl.flush_lines_per_msg"] = ratio(flush_lines, sent + rma_transfers);
  m["cxl.flush_writeback_ratio"] = ratio(dc("cxl.flush_writebacks"), flush_lines);
  m["cxl.dev_read_wait_us_sum"] = dh("cxl.dev_read_wait_ns").sum / 1e3;
  m["cxl.dev_write_wait_us_sum"] = dh("cxl.dev_write_wait_ns").sum / 1e3;
  m["cxl.bulk_bytes_per_payload_byte"] = ratio(
      dc("cxl.bulk_read_bytes") + dc("cxl.bulk_write_bytes"), payload_bytes);
  m["rma.put_bytes"] = dc("rma.put_bytes");
  m["rma.get_bytes"] = dc("rma.get_bytes");
  return m;
}

void put_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';
    } else {
      os << ch;
    }
  }
  os << '"';
}

void put_array(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? "," : "") << v[i];
  }
  os << ']';
}

int run(const Options& opt) {
  // A clean environment: nothing inherited may switch on tuning, checking
  // or telemetry. The traced run sets only CMPI_METRICS.
  for (const char* var : {"CMPI_TUNE", "CMPI_COHERENCE_CHECK", "CMPI_TRACE",
                          "CMPI_METRICS", "CMPI_FLIGHT", "CMPI_OBS"}) {
    ::unsetenv(var);
  }
  if (opt.trace) {
    ::setenv("CMPI_METRICS", opt.metrics.c_str(), 1);
  }
  auto shared = std::make_unique<Shared>(opt);
  Shared& sh = *shared;
  sh.phase_budget_ns = opt.seconds * 1e9;

  cmpi::runtime::UniverseConfig config;
  config.nodes = kNodes;
  config.ranks_per_node = kRanksPerNode;
  config.cell_payload = kCellPayload;

  sh.start_cpu_ns = cpu_now_ns();
  const double t0 = host_now_ns();
  cmpi::runtime::Universe universe(config);
  const double universe_ctor_ms = (host_now_ns() - t0) / 1e6;
  universe.run([&](RankCtx& ctx) { rank_main(sh, ctx, t0); });

  // Whole-trial checks: every message the benchmark sent was counted as
  // sent and as received by the library.
  std::uint64_t lib_sent = 0;
  std::uint64_t lib_received = 0;
  std::uint64_t bench_sent = 0;
  std::uint64_t attempted = 1;  // the trial's set-up and accounting
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const RankResult& res : sh.results) {
    lib_sent += res.stats.messages_sent.load();
    lib_received += res.stats.messages_received.load();
    bench_sent += res.msgs_sent;
    attempted += res.attempted;
    failed += res.failed;
    errors.insert(errors.end(), res.errors.begin(), res.errors.end());
  }
  const bool has_collectives = opt.workload == "halo_step";
  if (lib_sent != lib_received ||
      (!has_collectives && lib_sent != bench_sent)) {
    failed += 1;
    errors.push_back("message accounting: benchmark sent " +
                     std::to_string(bench_sent) + ", library sent " +
                     std::to_string(lib_sent) + ", library received " +
                     std::to_string(lib_received));
  }

  double setup_wall_ns = 0;
  double session_ms = 0;
  double rate_virt_ns = 0;
  double msgs = 0;
  double bytes = 0;
  for (const RankResult& res : sh.results) {
    setup_wall_ns = std::max(setup_wall_ns, res.ready_wall_ns);
    session_ms = std::max(session_ms, res.session_ms);
    rate_virt_ns = std::max(rate_virt_ns, res.rate_virt_ns);
    msgs += static_cast<double>(res.msgs_delivered);
    bytes += static_cast<double>(res.bytes_delivered);
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  std::ofstream out(opt.out);
  out.precision(17);
  out << "{\"workload\":";
  put_string(out, opt.workload);
  out << ",\"seed\":" << opt.seed << ",\"trial\":" << opt.trial
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"compiler\":";
  put_string(out, std::string("g++ ") + __VERSION__);
  out << ",\"build_type\":";
  put_string(out, PERFBENCH_BUILD_TYPE);
  out << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"params\":{\"nodes\":" << kNodes
      << ",\"ranks_per_node\":" << kRanksPerNode
      << ",\"cell_payload\":" << kCellPayload
      << ",\"pingpong_sizes\":[" << kPingPongMin << ',' << kPingPongMax
      << "],\"pingpong_seq\":" << kPingPongSeq
      << ",\"fanin_sizes\":[" << kFaninMin << ',' << kFaninMax
      << "],\"fanin_window\":" << kFaninWindow
      << ",\"fanin_windows\":" << kFaninWindows
      << ",\"stream_sizes\":[" << kStreamMin << ',' << kStreamMax
      << "],\"stream_window\":" << kStreamWindow
      << ",\"stream_windows\":" << kStreamWindows
      << ",\"stream_seq_windows\":" << kStreamSeqWindows
      << ",\"halo_sizes\":[" << kHaloMin << ',' << kHaloMax
      << "],\"halo_steps\":" << kHaloSteps << "}"
      << ",\"setup_s\":" << sh.setup_cpu_ns / 1e9
      << ",\"setup_wall_s\":" << setup_wall_ns / 1e9
      << ",\"universe_ctor_ms\":" << universe_ctor_ms
      << ",\"session_create_ms\":" << session_ms
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size() && i < 16; ++i) {
    out << (i ? "," : "");
    put_string(out, errors[i]);
  }
  out << "],\"messages\":{\"benchmark_sent\":" << bench_sent
      << ",\"library_sent\":" << lib_sent
      << ",\"library_received\":" << lib_received << "}"
      << ",\"rate_virt_s\":" << rate_virt_ns / 1e9
      << ",\"rate_msgs\":" << msgs << ",\"rate_bytes\":" << bytes
      << ",\"peak_rss_kb\":" << usage.ru_maxrss;
  // Per-rank sample lists, in operation order.
  out << ",\"virt_op_us\":[";
  for (int q = 0; q < kRanks; ++q) {
    out << (q ? "," : "");
    put_array(out, sh.results[q].virt_op_us);
  }
  out << "],\"host_cpu_us_per_op\":";
  put_array(out, sh.cpu_us_per_op);
  if (opt.trace) {
    std::map<std::string, double> layers = layer_metrics(sh);
    layers["runtime.universe_ctor.host_ms"] = universe_ctor_ms;
    layers["runtime.session_create.host_ms"] = session_ms;
    out << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layers) {
      out << (first ? "" : ",");
      put_string(out, name);
      out << ':' << value;
      first = false;
    }
    out << '}';
    // Per rank: the spans of the timed phase, [first, end) in the rank's
    // own span order, and the phase's elapsed virtual time (the ledger).
    out << ",\"timed_spans\":[";
    for (int q = 0; q < kRanks; ++q) {
      out << (q ? "," : "") << '[' << sh.results[q].first_timed_span << ','
          << sh.results[q].end_timed_span << ']';
    }
    out << "],\"phase_virt_ns\":[";
    for (int q = 0; q < kRanks; ++q) {
      out << (q ? "," : "") << sh.results[q].phase_virt_ns;
    }
    out << ']';
    std::ofstream spans(opt.spans);
    spans << "call,rank,parent,host_start_ns,host_end_ns,virt_start_ns,"
             "virt_end_ns\n";
    for (const auto& tracer : sh.tracers) {
      write_spans(spans, tracer->spans());
    }
  }
  out << "}\n";
  out.close();
  return out ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cmpi_perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--trial") {
      opt.trial = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--spans") {
      opt.spans = value();
    } else if (arg == "--metrics") {
      opt.metrics = value();
    } else {
      std::fprintf(stderr, "cmpi_perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if ((opt.workload != "small_msgs" && opt.workload != "large_msgs" &&
       opt.workload != "halo_step") ||
      opt.out.empty() || opt.seconds <= 0 ||
      (opt.trace && (opt.spans.empty() || opt.metrics.empty()))) {
    std::fprintf(stderr,
                 "usage: cmpi_perfbench --workload small_msgs|large_msgs|"
                 "halo_step --seed N [--trial K] --seconds S --out FILE "
                 "[--trace --spans FILE --metrics FILE]\n");
    return 2;
  }
  return perfbench::run(opt);
}
