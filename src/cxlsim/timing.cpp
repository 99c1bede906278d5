#include "cxlsim/timing.hpp"

#include <algorithm>
#include <cmath>

#include "common/align.hpp"

namespace cmpi::cxlsim {

simtime::Ns CxlTimingModel::cpu_copy_cost(std::size_t bytes,
                                          double other_streams) const noexcept {
  if (bytes == 0) {
    return 0;
  }
  double rate = params_.cpu_copy_bytes_per_ns;
  if (bytes > params_.contention_threshold) {
    // Working set exceeds the cache-friendly size: concurrent streams evict
    // each other and contend for DIMM row buffers. The slowdown grows with
    // how far past the threshold the message is (log2 scale, saturating)
    // and with the number of other streams of the node.
    const double excess =
        std::min(1.0, std::log2(static_cast<double>(bytes) /
                                static_cast<double>(
                                    params_.contention_threshold)) /
                          params_.contention_span_log2);
    rate /= 1.0 + params_.contention_alpha * excess *
                      std::max(0.0, other_streams);
  }
  return static_cast<double>(bytes) / rate;
}

simtime::Ns CopyStreams::charge(const CxlTimingModel& model,
                                const void* stream, simtime::Ns start,
                                std::size_t bytes) {
  if (bytes <= model.params().contention_threshold) {
    return model.cpu_copy_cost(bytes);
  }
  const simtime::Ns solo = model.cpu_copy_cost(bytes);
  const simtime::Ns solo_end = start + solo;
  std::lock_guard lock(mutex_);
  // Every interval overlapping [start, solo_end) begins after
  // start - longest_; live_ is sorted by begin.
  auto it = std::lower_bound(
      live_.begin(), live_.end(), start - longest_,
      [](const Interval& iv, simtime::Ns t) { return iv.begin < t; });
  simtime::Ns overlap = 0;
  for (; it != live_.end() && it->begin < solo_end; ++it) {
    if (it->stream != stream) {
      overlap += std::max(0.0, std::min(it->end, solo_end) -
                                   std::max(it->begin, start));
    }
  }
  const simtime::Ns cost = model.cpu_copy_cost(bytes, overlap / solo);
  const Interval recorded{start, start + cost, stream};
  live_.insert(std::upper_bound(live_.begin(), live_.end(), start,
                                [](simtime::Ns t, const Interval& iv) {
                                  return t < iv.begin;
                                }),
               recorded);
  longest_ = std::max(longest_, cost);
  latest_end_ = std::max(latest_end_, recorded.end);
  // Retire, from the front, intervals that ended a lookback behind the
  // newest copy.
  while (!live_.empty() && live_.front().end < latest_end_ - kLookbackNs) {
    live_.pop_front();
  }
  return cost;
}

simtime::Ns CxlTimingModel::uncached_cost(std::size_t total_size) const noexcept {
  const std::size_t lines = ceil_div(std::max<std::size_t>(total_size, 1),
                                     kCacheLineSize);
  const simtime::Ns per_line = total_size > params_.pcie_mps
                                   ? params_.uc_line_cost_large
                                   : params_.uc_line_cost_small;
  return static_cast<simtime::Ns>(lines) * per_line;
}

}  // namespace cmpi::cxlsim
