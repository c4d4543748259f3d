#include "ntier/metric_sample.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "bus/record.h"

namespace dcm::ntier {
namespace {

MetricSample sample_fixture() {
  MetricSample s;
  s.time = 12'000'000'000;
  s.depth = 1;
  s.vm = 2;
  s.vm_state = VmState::kActive;
  s.throughput = 87.25;
  s.avg_response_time = 0.042;
  s.concurrency = 19.5;
  s.cpu_util = 0.931;
  s.thread_pool_size = 20;
  s.conn_pool_size = 18;
  s.queue_length = 5;
  return s;
}

std::vector<std::byte> bytes_of(const MetricSample& s) {
  const auto view = encode(s);
  return {view.begin(), view.end()};
}

TEST(MetricSampleTest, RoundTripPreservesFields) {
  const MetricSample original = sample_fixture();
  const auto decoded = decode(encode(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->time, original.time);
  EXPECT_EQ(decoded->depth, original.depth);
  EXPECT_EQ(decoded->vm, original.vm);
  EXPECT_EQ(decoded->vm_state, original.vm_state);
  // Binary transport: the doubles arrive bit for bit.
  EXPECT_EQ(decoded->throughput, original.throughput);
  EXPECT_EQ(decoded->avg_response_time, original.avg_response_time);
  EXPECT_EQ(decoded->concurrency, original.concurrency);
  EXPECT_EQ(decoded->cpu_util, original.cpu_util);
  EXPECT_EQ(decoded->thread_pool_size, original.thread_pool_size);
  EXPECT_EQ(decoded->conn_pool_size, original.conn_pool_size);
  EXPECT_EQ(decoded->queue_length, original.queue_length);
}

TEST(MetricSampleTest, DefaultSampleRoundTrips) {
  const MetricSample sample;
  const auto decoded = decode(encode(sample));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->vm_state, VmState::kBooting);
  EXPECT_DOUBLE_EQ(decoded->throughput, 0.0);
}

TEST(MetricSampleTest, RejectsMissingField) {
  // The last field (queue_length) cut off: a wrong-length payload.
  const auto bytes = bytes_of(sample_fixture());
  EXPECT_FALSE(decode(std::span(bytes).first(bytes.size() - sizeof(int32_t))).has_value());
}

TEST(MetricSampleTest, RejectsUnknownVmState) {
  auto bytes = bytes_of(sample_fixture());
  const size_t at = offsetof(MetricSample, vm_state);
  for (const int32_t state : {-1, 5, 1 << 20}) {
    std::memcpy(bytes.data() + at, &state, sizeof(state));
    EXPECT_FALSE(decode(bytes).has_value()) << state;
  }
  const int32_t failed = static_cast<int32_t>(VmState::kFailed);
  std::memcpy(bytes.data() + at, &failed, sizeof(failed));
  EXPECT_TRUE(decode(bytes).has_value());
}

TEST(MetricSampleTest, RejectsGarbage) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode(bus::text_payload("not a sample")).has_value());
  EXPECT_FALSE(decode(bus::text_payload("a=b;c=d")).has_value());
}

// The differential test (quantize_differential_test.cpp) covers millions of
// values; these are the readable cases.
double reference(double x, int places) {
  char text[400];
  std::snprintf(text, sizeof(text), "%.*f", places, x);
  return std::strtod(text, nullptr);
}

void expect_same_bits(double got, double want) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << got << " vs " << want;
}

TEST(QuantizeDecimalTest, MatchesPrintfOnReadableCases) {
  for (const double x : {0.0, -0.0, 0.931, 87.25, 0.0425, 19.49995, -3.14159265, 1e-9, -1e-9,
                         123456.7891234, 0.5, 2.5}) {
    expect_same_bits(quantize_decimal(x, 6), reference(x, 6));
    expect_same_bits(quantize_decimal(x, 4), reference(x, 4));
  }
}

TEST(QuantizeDecimalTest, ExactTiesRoundHalfToEven) {
  // 1/128 = 0.0078125 exactly: its 6th-decimal tie rounds to even (…812),
  // and 3/128 = 0.0234375 rounds up to even (…438).
  EXPECT_EQ(quantize_decimal(1.0 / 128, 6), 0.007812);
  EXPECT_EQ(quantize_decimal(3.0 / 128, 6), 0.023438);
  // The neighbours on either side of a tie leave it.
  EXPECT_EQ(quantize_decimal(std::nextafter(1.0 / 128, 1.0), 6), 0.007813);
  EXPECT_EQ(quantize_decimal(std::nextafter(3.0 / 128, 0.0), 6), 0.023437);
}

TEST(QuantizeDecimalTest, NonFiniteAndHugeValuesTakeTheTextPath) {
  expect_same_bits(quantize_decimal(INFINITY, 6), reference(INFINITY, 6));
  expect_same_bits(quantize_decimal(-INFINITY, 4), reference(-INFINITY, 4));
  EXPECT_TRUE(std::isnan(quantize_decimal(NAN, 6)));
  expect_same_bits(quantize_decimal(1e300, 6), reference(1e300, 6));
  expect_same_bits(quantize_decimal(-0x1p53, 4), reference(-0x1p53, 4));
}

}  // namespace
}  // namespace dcm::ntier
