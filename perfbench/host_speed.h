// Host-speed calibration for dcm_bench: ref-seconds.
//
// Host time on a shared machine drifts in phases as neighbours come and go.
// A fixed reference kernel, which contains no repository code, runs right
// before and right after every timed span, and the span's host time is
// converted to ref-seconds: seconds × kRefKernelSeconds ÷ the mean time of
// those two kernel runs.
#pragma once

#include <cstdint>

namespace dcm::perfbench {

/// The reference kernel's median time on the host that defined the
/// benchmark. Never change it, or the kernel: every recorded ref-second value
/// would stop being comparable.
inline constexpr double kRefKernelSeconds = 0.0017;

/// A stretch of host time in steady-clock nanoseconds.
struct Span {
  int64_t from = 0;
  int64_t to = 0;

  double seconds() const { return static_cast<double>(to - from) * 1e-9; }
};

int64_t now_ns();

/// Runs the reference kernel and records when and how long. Call it before
/// the first timed span and after every timed span: one run closes a span's
/// bracket and opens the next one's.
void sample_host_speed();

/// `span` in ref-seconds, calibrated by the last kernel run that ended before
/// it and the first that started after it.
double ref_seconds(const Span& span);

/// ref_seconds(span) ÷ span.seconds(): converts a host time measured inside
/// the span.
double ref_per_host_second(const Span& span);

/// Median kernel time over every run so far, in seconds.
double kernel_p50();

}  // namespace dcm::perfbench
