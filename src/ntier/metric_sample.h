// The per-second monitoring sample shipped from agents to the controller.
//
// Agents and the controller are different components and the bus carries
// bytes, exactly as Kafka does in the paper's deployment. The wire format is
// the sample itself: a fixed-size, padding-free, trivially copyable record
// (encode() views its bytes, decode() memcpys them back), so publishing a
// sample formats no text and allocates nothing.
//
// Quantisation contract: throughput and response time carry 6 decimals,
// concurrency and utilisation 4. collect() stores quantize_decimal(x, 6)
// and quantize_decimal(x, 4), which equal strtod(snprintf("%.6f"/"%.4f",
// x)) bit for bit. Controller decisions, and so the pinned digests, depend
// on exactly these values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "ntier/vm.h"
#include "sim/time.h"

namespace dcm::ntier {

struct MetricSample {
  sim::SimTime time = 0;
  double throughput = 0.0;         // completions/s over the window, 6 decimals
  double avg_response_time = 0.0;  // seconds (0 when nothing completed), 6 decimals
  double concurrency = 0.0;        // time-weighted busy worker threads, 4 decimals
  double cpu_util = 0.0;           // [0, 1], 4 decimals
  int32_t depth = 0;               // tier index
  int32_t vm = 0;                  // tier-local VM index (the N of "<tier>-vmN")
  VmState vm_state = VmState::kBooting;
  int32_t thread_pool_size = 0;
  int32_t conn_pool_size = 0;      // 0 for leaf servers
  int32_t queue_length = 0;
};

static_assert(std::is_trivially_copyable_v<MetricSample>);
static_assert(sizeof(VmState) == sizeof(int32_t));
// No padding: every encoded byte is a field byte.
static_assert(sizeof(MetricSample) == sizeof(sim::SimTime) + 4 * sizeof(double) +
                                          6 * sizeof(int32_t));

/// The sample's wire bytes (a view of `sample`, so not of a temporary).
inline std::span<const std::byte> encode(const MetricSample& sample) {
  return std::as_bytes(std::span<const MetricSample, 1>(&sample, 1));
}
std::span<const std::byte> encode(const MetricSample&&) = delete;

/// Strict decode: nullopt unless the payload is exactly one sample with a
/// valid VM state.
std::optional<MetricSample> decode(std::span<const std::byte> payload);

/// strtod(snprintf("%.<places>f", x)), computed without text for finite x
/// with |x|·10^places < 2^52: the exact product x·10^places (its rounded
/// value plus an fma residual) is rounded half to even to an integer n, and
/// n / 10^places is the correctly rounded quotient strtod also returns.
/// Other inputs take the text round trip. `places` is in [0, 15].
double quantize_decimal(double x, int places);

}  // namespace dcm::ntier
