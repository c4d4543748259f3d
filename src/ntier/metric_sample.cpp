#include "ntier/metric_sample.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace dcm::ntier {

std::optional<MetricSample> decode(std::span<const std::byte> payload) {
  if (payload.size() != sizeof(MetricSample)) return std::nullopt;
  MetricSample s;
  std::memcpy(&s, payload.data(), sizeof(s));
  const auto state = static_cast<int32_t>(s.vm_state);
  if (state < 0 || state > static_cast<int32_t>(VmState::kFailed)) return std::nullopt;
  return s;
}

double quantize_decimal(double x, int places) {
  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                      1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
  DCM_CHECK(places >= 0 && places <= 15);
  const double scale = kPow10[places];
  const double p = x * scale;
  if (std::fabs(p) < 0x1p52) {  // false for NaN and infinities
    // x·scale = p + r exactly. Below 2^52, p and its nearest integer n are
    // multiples of ulp(p) <= 1/2 and |r| <= ulp(p)/2, so r can only move
    // the rounding when p sits exactly on a half: there the exact value is
    // off the tie on r's side (r == 0 is a true tie, kept even by rint).
    const double r = std::fma(x, scale, -p);
    double n = std::rint(p);
    const double d = p - n;  // exact (Sterbenz), so the tie tests below are too
    if (d == 0.5 && r > 0.0) {  // dcm-lint: allow(no-float-eq)
      n += 1.0;
    } else if (d == -0.5 && r < 0.0) {  // dcm-lint: allow(no-float-eq)
      n -= 1.0;
    }
    return n / scale;
  }
  char text[400];  // "%.15f" of ±DBL_MAX is 326 characters
  std::snprintf(text, sizeof(text), "%.*f", places, x);
  return std::strtod(text, nullptr);
}

}  // namespace dcm::ntier
