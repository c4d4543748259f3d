// Seeded decode fuzzing of monitor-sample payloads. Truncated, oversized
// and bit-flipped payloads must either decode or be rejected, and must
// never read outside the payload (each one lives in its own exact-size heap
// buffer, so an over-read fails under ASan). The strictness contract:
//   * a payload of the wrong length is always rejected;
//   * a full-length payload decodes iff its VM state is a known one, and
//     then decodes to exactly its bytes;
//   * the same payloads sent through the bus arrive and decode (or are
//     rejected) identically.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "bus/consumer.h"
#include "bus/producer.h"
#include "common/rng.h"
#include "ntier/metric_sample.h"
#include "ntier/monitor_agent.h"

namespace dcm::ntier {
namespace {

class SampleDecodeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

MetricSample random_sample(Rng& rng) {
  MetricSample s;
  s.time = rng.uniform_int(0, int64_t{1} << 50);
  s.throughput = quantize_decimal(rng.uniform(0.0, 500.0), 6);
  s.avg_response_time = quantize_decimal(rng.uniform(0.0, 2.0), 6);
  s.concurrency = quantize_decimal(rng.uniform(0.0, 100.0), 4);
  s.cpu_util = quantize_decimal(rng.next_double(), 4);
  s.depth = static_cast<int32_t>(rng.uniform_int(0, 4));
  s.vm = static_cast<int32_t>(rng.uniform_int(0, 16));
  s.vm_state = static_cast<VmState>(rng.uniform_int(0, 4));
  s.thread_pool_size = static_cast<int32_t>(rng.uniform_int(1, 400));
  s.conn_pool_size = static_cast<int32_t>(rng.uniform_int(0, 400));
  s.queue_length = static_cast<int32_t>(rng.uniform_int(0, 1000));
  return s;
}

bool state_is_known(const std::vector<std::byte>& payload) {
  int32_t state = 0;
  std::memcpy(&state, payload.data() + offsetof(MetricSample, vm_state), sizeof(state));
  return state >= 0 && state <= static_cast<int32_t>(VmState::kFailed);
}

TEST_P(SampleDecodeFuzzTest, MutatedPayloadsDecodeOrAreRejected) {
  Rng rng(GetParam());
  bus::Broker broker;
  broker.create_topic(kMetricsTopic, {4, 0});
  bus::Producer producer(broker);
  bus::Consumer consumer(broker, "fuzz", kMetricsTopic);
  constexpr size_t kSize = sizeof(MetricSample);
  constexpr auto kBits = static_cast<int64_t>(kSize * 8);

  for (int step = 0; step < 4000; ++step) {
    const MetricSample sample = random_sample(rng);
    const auto wire = encode(sample);
    std::vector<std::byte> payload(wire.begin(), wire.end());
    const double roll = rng.next_double();
    if (roll < 0.3) {
      // Truncated.
      payload.resize(payload.size() - static_cast<size_t>(rng.uniform_int(1, kSize)));
    } else if (roll < 0.5) {
      // Oversized.
      const auto extra = static_cast<size_t>(rng.uniform_int(1, 64));
      for (size_t i = 0; i < extra; ++i) {
        payload.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
      }
    } else {
      // Bit-flipped.
      const auto flips = rng.uniform_int(1, 8);
      for (int64_t f = 0; f < flips; ++f) {
        const auto bit = static_cast<size_t>(rng.uniform_int(0, kBits - 1));
        payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
    }

    const auto decoded = decode(payload);
    const bool should_decode = payload.size() == kSize && state_is_known(payload);
    ASSERT_EQ(decoded.has_value(), should_decode) << "step " << step;
    if (decoded) {
      EXPECT_EQ(std::memcmp(&*decoded, payload.data(), kSize), 0) << "step " << step;
    }

    // Every payload that fits a record goes through the bus unchanged.
    if (payload.size() <= bus::Record::kMaxValueBytes) {
      producer.send(kMetricsTopic, "vm-" + std::to_string(step % 7), payload, step);
      const auto records = consumer.poll(1);
      ASSERT_EQ(records.size(), 1u);
      const auto delivered = records[0].value();
      ASSERT_EQ(delivered.size(), payload.size());
      if (!payload.empty()) {
        EXPECT_EQ(std::memcmp(delivered.data(), payload.data(), payload.size()), 0);
      }
      EXPECT_EQ(decode(delivered).has_value(), should_decode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampleDecodeFuzzTest, ::testing::Values(7, 17, 27, 37),
                         [](const ::testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed_" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace dcm::ntier
