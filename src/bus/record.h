// Bus record type.
//
// The DCM monitoring pipeline ships per-second metric samples from agents to
// the controller through a Kafka-like log (paper Sec. IV: agents produce at
// 1 Hz, the controller consumes at its own 15 s pace; the log decouples the
// rates). Records carry opaque byte payloads, like Kafka's byte values —
// agents encode samples, the controller decodes them. The payload is stored
// inline (at most kMaxValueBytes), so a record is a fixed-size, trivially
// copyable value: appending, fetching and retention never touch the heap.
// The partitioning key is consumed at send time and not stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

#include "sim/time.h"

namespace dcm::bus {

/// Views text as a payload (text producers and tests).
inline std::span<const std::byte> text_payload(std::string_view text) {
  return std::as_bytes(std::span<const char>(text.data(), text.size()));
}

struct Record {
  static constexpr size_t kMaxValueBytes = 64;

  int64_t offset = -1;          // assigned by the partition on append
  sim::SimTime timestamp = 0;   // producer-supplied event time
  uint32_t size = 0;            // payload bytes in use
  std::byte bytes[kMaxValueBytes]{};

  std::span<const std::byte> value() const { return {bytes, size}; }
  /// The payload viewed as characters (for text payloads).
  std::string_view text() const { return {reinterpret_cast<const char*>(bytes), size}; }
};

static_assert(std::is_trivially_copyable_v<Record>);

}  // namespace dcm::bus
