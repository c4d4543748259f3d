// Producer: appends keyed records to a topic via the broker.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "bus/broker.h"

namespace dcm::bus {

class Producer {
 public:
  /// A resolved destination. A sender that publishes under one key resolves
  /// it once, instead of looking the topic up and hashing the key per record.
  struct Route {
    Topic* topic = nullptr;
    int partition = 0;
  };

  /// The broker must outlive the producer.
  explicit Producer(Broker& broker);

  /// The key's partition of `topic`. The topic must exist.
  Route route(const std::string& topic, std::string_view key) const;

  /// Appends to the route's partition; returns the assigned offset, or -1 if
  /// the topic is inside a fault-injected drop window (record lost). The
  /// value holds at most Record::kMaxValueBytes.
  int64_t send(Route route, std::span<const std::byte> value, sim::SimTime timestamp);
  /// Keyed send: route(topic, key), then send. The topic must exist.
  int64_t send(const std::string& topic, std::string_view key, std::span<const std::byte> value,
               sim::SimTime timestamp) {
    return send(route(topic, key), value, timestamp);
  }
  /// Keyed send of a text payload.
  int64_t send(const std::string& topic, std::string_view key, std::string_view value,
               sim::SimTime timestamp) {
    return send(topic, key, text_payload(value), timestamp);
  }

  uint64_t records_sent() const { return records_sent_; }
  /// Records lost to topic drop windows (telemetry-loss fault accounting).
  uint64_t records_dropped() const { return records_dropped_; }

 private:
  Broker* broker_;
  uint64_t records_sent_ = 0;
  uint64_t records_dropped_ = 0;
};

}  // namespace dcm::bus
