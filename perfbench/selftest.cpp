// Self-test of the benchmark's own input generation and output checks:
// the checks must accept correct outputs and reject a corrupted payload, a
// truncated one, or a wrong reduction result. Exits non-zero on failure.
#include <cstdio>
#include <vector>

#include "support.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void payload_checks() {
  const perfbench::PatternBlock pattern(42, 1 << 16);
  const auto want = pattern.payload(7, 4096);
  std::vector<std::byte> got(want.begin(), want.end());
  expect(perfbench::payload_ok(pattern, 7, 4096, got),
         "intact payload accepted");
  expect(!perfbench::payload_ok(pattern, 8, 4096, got),
         "payload checked against another key rejected");
  for (const std::size_t at : {std::size_t{0}, std::size_t{2047},
                               std::size_t{4095}}) {
    got[at] ^= std::byte{0x01};
    expect(!perfbench::payload_ok(pattern, 7, 4096, got),
           "payload with one flipped bit rejected");
    got[at] ^= std::byte{0x01};
  }
  expect(!perfbench::payload_ok(pattern, 7, 4096, std::span(got).first(4000)),
         "truncated payload rejected");
  got.push_back(std::byte{0});
  expect(!perfbench::payload_ok(pattern, 7, 4096, got),
         "over-long payload rejected");
  const perfbench::PatternBlock other_seed(43, 1 << 16);
  expect(!perfbench::payload_ok(pattern, 7, 4096, other_seed.payload(7, 4096)),
         "payload from another seed rejected");
}

void reduction_checks() {
  for (std::uint64_t step = 0; step < 1000; ++step) {
    double forward = 0;
    double backward = 0;
    for (int r = 0; r < 4; ++r) {
      forward += perfbench::residual(9, r, step);
      backward += perfbench::residual(9, 3 - r, step);
    }
    expect(perfbench::reduction_ok(forward, 9, 4, step) &&
               perfbench::reduction_ok(backward, 9, 4, step),
           "allreduce sum accepted in any order");
    expect(!perfbench::reduction_ok(forward + 1, 9, 4, step),
           "allreduce sum off by one rejected");
    expect(!perfbench::reduction_ok(forward - perfbench::residual(9, 2, step),
                                    9, 4, step) ||
               perfbench::residual(9, 2, step) == 0,
           "allreduce sum missing a rank rejected");
  }
}

void size_checks() {
  const auto a = perfbench::log_uniform_sizes(5, 2048, 8, 4096);
  const auto b = perfbench::log_uniform_sizes(5, 2048, 8, 4096);
  const auto c = perfbench::log_uniform_sizes(6, 2048, 8, 4096);
  expect(a == b, "same seed gives the same sizes");
  expect(a != c, "another seed gives other sizes");
  bool in_range = true;
  std::size_t below_64 = 0;
  for (const std::size_t s : a) {
    in_range = in_range && s >= 8 && s <= 4096;
    below_64 += s < 64 ? 1 : 0;
  }
  expect(in_range, "sizes stay within [lo, hi]");
  // log2(64/8) / log2(4096/8) = 3/9 of a log-uniform draw lies below 64.
  expect(below_64 >= 2048 / 3 - 2 && below_64 <= 2048 / 3 + 2,
         "stratified sizes follow the log-uniform distribution");
}

}  // namespace

int main() {
  payload_checks();
  reduction_checks();
  size_checks();
  if (failures == 0) {
    std::printf("perfbench self-test: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
