#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dcm::perfbench {
namespace {

// The reference kernel: an integer xorshift feeding a std::priority_queue
// of 4096 entries, filled and drained 4 times (about 1.7 ms). It is small
// enough that the previous run's cache footprint does not leak into it;
// perfbench/README.md records how well it tracks the host and what else was
// tried.
constexpr size_t kEntries = 4096;
constexpr int kRounds = 4;

uint64_t g_kernel_sink = 0;

double run_kernel() {
  std::vector<uint64_t> storage;
  storage.reserve(kEntries);
  std::priority_queue<uint64_t> heap(std::less<uint64_t>(), std::move(storage));
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t sink = 0;
  const int64_t start = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kEntries; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push(x);
    }
    while (!heap.empty()) {
      sink += heap.top();
      heap.pop();
    }
  }
  const int64_t end = now_ns();
  g_kernel_sink += sink;
  return static_cast<double>(end - start) * 1e-9;
}

struct Sample {
  int64_t start;
  int64_t end;
  double seconds;
};
std::vector<Sample> g_samples;  // in time order

}  // namespace

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sample_host_speed() {
  const int64_t start = now_ns();
  const double seconds = run_kernel();
  g_samples.push_back(Sample{start, now_ns(), seconds});
}

double ref_seconds(const Span& span) {
  // First sample that starts at or after the span ends; the one before it
  // is the last that ended before the span began, when the caller
  // bracketed the span.
  const auto after = std::lower_bound(
      g_samples.begin(), g_samples.end(), span.to,
      [](const Sample& s, int64_t t) { return s.start < t; });
  if (after == g_samples.end()) throw std::logic_error("ref_seconds: span has no closing sample");
  if (after == g_samples.begin() || std::prev(after)->end > span.from) {
    throw std::logic_error("ref_seconds: span has no opening sample");
  }
  const double kernel_s = 0.5 * (std::prev(after)->seconds + after->seconds);
  return span.seconds() * kRefKernelSeconds / kernel_s;
}

double ref_per_host_second(const Span& span) { return ref_seconds(span) / span.seconds(); }

double kernel_p50() {
  if (g_samples.empty()) throw std::logic_error("kernel_p50: no samples");
  std::vector<double> times;
  times.reserve(g_samples.size());
  for (const Sample& s : g_samples) times.push_back(s.seconds);
  const auto mid = times.begin() + static_cast<std::ptrdiff_t>(times.size() / 2);
  std::nth_element(times.begin(), mid, times.end());
  return *mid;
}

}  // namespace dcm::perfbench
