// Differential test of the monitor's decimal quantisation: over more than
// ten million seeded values, quantize_decimal(x, 6) and quantize_decimal(x,
// 4) must be bit-identical (memcmp) to strtod(snprintf("%.6f"/"%.4f", x)),
// the text round trip the telemetry path used to pay per sample.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "ntier/metric_sample.h"

namespace dcm::ntier {
namespace {

double reference(double x, int places) {
  char text[400];
  std::snprintf(text, sizeof(text), "%.*f", places, x);
  return std::strtod(text, nullptr);
}

// Checks both precisions of every value fed to it; reports the first
// mismatch and the counts at the end.
class Differential {
 public:
  void check(double x) {
    for (const int places : {6, 4}) {
      const double got = quantize_decimal(x, places);
      const double want = reference(x, places);
      ++checked_;
      if (std::memcmp(&got, &want, sizeof(double)) != 0 && mismatches_++ == 0) {
        first_ = x;
        first_places_ = places;
      }
    }
  }
  // Checks x and both of its nextafter neighbours.
  void check_with_neighbours(double x) {
    check(std::nextafter(x, -INFINITY));
    check(x);
    check(std::nextafter(x, INFINITY));
  }

  void expect_clean(uint64_t min_checks) const {
    EXPECT_GE(checked_, min_checks);
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a", first_);
    EXPECT_EQ(mismatches_, 0u) << "first mismatch: x = " << hex << " at " << first_places_
                               << " places";
  }

 private:
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
  double first_ = 0.0;
  int first_places_ = 0;
};

constexpr int kUniform = 1'500'000;

TEST(QuantizeDifferentialTest, UniformUnitInterval) {
  Rng rng(101);
  Differential diff;
  for (int i = 0; i < kUniform; ++i) diff.check(rng.next_double());
  diff.expect_clean(2 * kUniform);
}

TEST(QuantizeDifferentialTest, UniformThousands) {
  Rng rng(102);
  Differential diff;
  for (int i = 0; i < kUniform; ++i) diff.check(rng.uniform(0.0, 1e3));
  diff.expect_clean(2 * kUniform);
}

TEST(QuantizeDifferentialTest, UniformMillions) {
  Rng rng(103);
  Differential diff;
  for (int i = 0; i < kUniform; ++i) diff.check(rng.uniform(0.0, 1e6));
  diff.expect_clean(2 * kUniform);
}

TEST(QuantizeDifferentialTest, CollectStyleRatios) {
  // What collect() divides: completions or integrals over a window of about
  // one second of nanosecond ticks, and response-time sums per completion.
  Rng rng(104);
  Differential diff;
  constexpr int kRatios = 1'500'000;
  for (int i = 0; i < kRatios; ++i) {
    const double window =
        static_cast<double>(1'000'000'000 + rng.uniform_int(-2'000'000, 2'000'000)) * 1e-9;
    const auto completed = static_cast<double>(rng.uniform_int(0, 5000));
    diff.check(completed / window);
    diff.check(rng.uniform(0.0, 40.0) / window);  // busy-thread integral
    const auto n = static_cast<double>(rng.uniform_int(1, 2000));
    diff.check(rng.uniform(0.0, 2.0 * n) / n);  // mean response time
  }
  diff.expect_clean(6 * kRatios);
}

TEST(QuantizeDifferentialTest, NearTiesAndTheirNeighbours) {
  // (k + 0.5)·10^-d computed in double lands next to the tie, on either
  // side, so the fma residual decides the rounding direction.
  Rng rng(105);
  Differential diff;
  constexpr int kTies = 400'000;
  for (int i = 0; i < kTies; ++i) {
    const auto k = static_cast<double>(rng.uniform_int(0, 2'000'000'000));
    diff.check_with_neighbours((k + 0.5) * 1e-6);
    diff.check_with_neighbours((k + 0.5) * 1e-4);
  }
  diff.expect_clean(12 * kTies);
}

TEST(QuantizeDifferentialTest, ExactTiesAndTheirNeighbours) {
  // x·10^6 is exactly k + 1/2 only for odd multiples of 2^-7, and x·10^4
  // only for odd multiples of 2^-5: both round half to even.
  Rng rng(106);
  Differential diff;
  constexpr int kTies = 300'000;
  for (int i = 0; i < kTies; ++i) {
    const int64_t odd = 2 * rng.uniform_int(0, int64_t{1} << 38) + 1;
    diff.check_with_neighbours(std::ldexp(static_cast<double>(odd), -7));
    diff.check_with_neighbours(std::ldexp(static_cast<double>(odd), -5));
  }
  diff.expect_clean(12 * kTies);
}

TEST(QuantizeDifferentialTest, SignsSpecialsAndMagnitudes) {
  Differential diff;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(), std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(), 0x1p52 / 1e6, 0x1p52 / 1e4, 0x1p53,
        -0x1p52 / 1e6, 1e300, -1e300, 5e-7, -5e-7, 5e-5, -5e-5}) {
    diff.check_with_neighbours(x);
  }
  Rng rng(107);
  // Random bit patterns cover every exponent, NaN payloads included.
  constexpr int kBits = 20'000;
  for (int i = 0; i < kBits; ++i) diff.check(std::bit_cast<double>(rng.next_u64()));
  // Random magnitudes from 2^-40 to 2^60, either side of the 2^52 / 10^d
  // bound between the exact path and the text path.
  constexpr int kScaled = 400'000;
  for (int i = 0; i < kScaled; ++i) {
    diff.check(std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform_int(-40, 60))));
  }
  // Negatives of every family above.
  constexpr int kNegatives = 400'000;
  for (int i = 0; i < kNegatives; ++i) {
    diff.check(-rng.next_double());
    diff.check(-rng.uniform(0.0, 1e6));
    diff.check(-std::ldexp(static_cast<double>(2 * rng.uniform_int(0, 1 << 30) + 1), -7));
  }
  diff.expect_clean(2 * (kBits + kScaled + 3 * kNegatives));
}

}  // namespace
}  // namespace dcm::ntier
