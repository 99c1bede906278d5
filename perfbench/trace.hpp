// Benchmark-side spans around every call the benchmark makes into cMPI.
//
// Each rank thread owns one Tracer. A span records which call it wraps,
// the rank, its parent span, and start/end on both clocks: host (what the
// simulator costs) and virtual (what the modelled CXL platform takes).
// Spans stay in memory and are written out once, after the run.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "simtime/vclock.hpp"

namespace perfbench {

/// Every call the benchmark wraps. The first block are benchmark-level
/// operations (always top-level spans); the rest are cMPI entry points,
/// named "<layer>.<function>" in the output.
enum class Call : std::uint8_t {
  kPingPong,
  kFaninWindow,
  kStreamWindow,
  kHaloStep,
  kWindowCreate,
  kBarrier,
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWaitAll,
  kPut,
  kGet,
  kFence,
  kWriteLocal,
  kReadLocal,
  kAllreduce,
  kCount,
};

inline const char* call_name(Call c) noexcept {
  switch (c) {
    case Call::kPingPong: return "op.pingpong";
    case Call::kFaninWindow: return "op.fanin_window";
    case Call::kStreamWindow: return "op.stream_window";
    case Call::kHaloStep: return "op.halo_step";
    case Call::kWindowCreate: return "rma.window_create";
    case Call::kBarrier: return "runtime.barrier";
    case Call::kSend: return "p2p.send";
    case Call::kRecv: return "p2p.recv";
    case Call::kIsend: return "p2p.isend";
    case Call::kIrecv: return "p2p.irecv";
    case Call::kWaitAll: return "p2p.wait_all";
    case Call::kPut: return "rma.put";
    case Call::kGet: return "rma.get";
    case Call::kFence: return "rma.fence";
    case Call::kWriteLocal: return "rma.write_local";
    case Call::kReadLocal: return "rma.read_local";
    case Call::kAllreduce: return "coll.allreduce";
    case Call::kCount: break;
  }
  return "?";
}

inline double host_now_ns() noexcept {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (all threads): what the simulator costs,
/// without time its threads waited for a CPU.
inline double cpu_now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread only.
inline double thread_cpu_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

struct Span {
  Call call = Call::kCount;
  int rank = -1;
  std::int32_t parent = -1;  ///< index into the same rank's spans, -1 = top
  double host_start_ns = 0;
  double host_end_ns = 0;
  double virt_start_ns = 0;
  double virt_end_ns = 0;
};

class Tracer {
 public:
  Tracer(int rank, const cmpi::simtime::VClock* clock)
      : rank_(rank), clock_(clock) {
    spans_.reserve(1 << 16);
  }

  /// Run `fn` inside a span of kind `call`.
  template <typename Fn>
  decltype(auto) span(Call call, Fn&& fn) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{call, rank_, open_, host_now_ns(), 0, virt(), 0});
    const std::int32_t saved = std::exchange(open_, index);
    struct Close {
      Tracer* t;
      std::int32_t index;
      std::int32_t saved;
      ~Close() {
        Span& s = t->spans_[static_cast<std::size_t>(index)];
        s.virt_end_ns = t->virt();
        s.host_end_ns = host_now_ns();
        t->open_ = saved;
      }
    } close{this, index, saved};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  [[nodiscard]] double virt() const noexcept {
    return clock_ != nullptr ? clock_->now() : 0.0;
  }

  int rank_;
  const cmpi::simtime::VClock* clock_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// Run `fn`, inside a span when tracing (tracer non-null).
template <typename Fn>
decltype(auto) traced(Tracer* tracer, Call call, Fn&& fn) {
  if (tracer == nullptr) {
    return std::forward<Fn>(fn)();
  }
  return tracer->span(call, std::forward<Fn>(fn));
}

/// CSV: call,rank,parent,host_start_ns,host_end_ns,virt_start_ns,virt_end_ns
inline void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os.precision(17);
  for (const Span& s : spans) {
    os << call_name(s.call) << ',' << s.rank << ',' << s.parent << ','
       << s.host_start_ns << ',' << s.host_end_ns << ',' << s.virt_start_ns
       << ',' << s.virt_end_ns << '\n';
  }
}

}  // namespace perfbench
